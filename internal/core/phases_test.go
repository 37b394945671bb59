package core

import (
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/match"
	"dagcover/internal/obs"
	"dagcover/internal/subject"
)

// TestPhaseMergeDeterminism pins the Stats contract after the phase
// breakdown was added: across Parallelism 1..8 the Counters stay
// byte-identical to the serial run (they merge at wave boundaries) while
// the Phases durations — which legitimately vary run to run — remain
// structurally sound: non-negative, labeling time positive, and the
// summed worker CPU (Label) at least the serial fraction of wall time it
// overlaps. Run with -race to exercise the merge.
func TestPhaseMergeDeterminism(t *testing.T) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	serial, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.Phases.Label <= 0 {
		t.Errorf("serial Label time %v, want > 0", serial.Stats.Phases.Label)
	}
	for par := 2; par <= 8; par++ {
		res, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if res.Stats.Counters != serial.Stats.Counters {
			t.Errorf("parallelism=%d: counters %+v, serial %+v",
				par, res.Stats.Counters, serial.Stats.Counters)
		}
		p := res.Stats.Phases
		if p.Label <= 0 || p.LabelWall <= 0 {
			t.Errorf("parallelism=%d: label times %v wall %v, want > 0", par, p.Label, p.LabelWall)
		}
		if p.Cover < 0 || p.Emit < 0 {
			t.Errorf("parallelism=%d: negative phase duration %+v", par, p)
		}
		if p.Total() <= 0 {
			t.Errorf("parallelism=%d: Total() = %v, want > 0", par, p.Total())
		}
	}
}

// TestMapTraceSpans checks that a traced run records the pipeline's
// named phase spans with counter args, attributes matcher probes per
// signature bucket, exports a schema-valid Chrome trace — and that
// tracing does not perturb the mapping.
func TestMapTraceSpans(t *testing.T) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	quiet, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		tr := obs.New()
		res, err := Map(g, m, Options{
			Class: match.Standard, Delay: genlib.UnitDelay{},
			Parallelism: par, Trace: tr,
		})
		if err != nil {
			t.Fatalf("parallelism=%d: %v", par, err)
		}
		if res.Delay != quiet.Delay || res.Stats.Counters != quiet.Stats.Counters {
			t.Errorf("parallelism=%d: tracing perturbed the mapping", par)
		}
		byName := map[string]int{}
		for _, e := range tr.Events() {
			byName[e.Name]++
		}
		for _, want := range []string{"core.label", "core.cover", "core.emit", "match.signature_buckets"} {
			if byName[want] == 0 {
				t.Errorf("parallelism=%d: no %q event; got %v", par, want, byName)
			}
		}
		if par > 1 && byName["core.label.chunk"] == 0 {
			t.Errorf("parallel run recorded no chunk spans; got %v", byName)
		}
		var sb strings.Builder
		if err := tr.WriteChromeTrace(&sb); err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateChromeTrace([]byte(sb.String())); err != nil {
			t.Errorf("parallelism=%d: trace fails schema validation: %v", par, err)
		}
	}
}
