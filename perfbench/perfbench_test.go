package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinyRun runs one workload on tiny inputs for half a second.
func tinyRun(t *testing.T, workload string, traced bool, seed int64) (*result, *outcome) {
	t.Helper()
	cfg := &config{
		workload: workload, seed: seed, seconds: 0.5, traced: traced, tiny: true,
		outDir: t.TempDir(), heavyRPS: defaultHeavyRPS,
	}
	o, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res, err := report(cfg, o, io.Discard, 0)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, o
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, o := tinyRun(t, w, traced, 1)
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d wrong=%v", w, traced, res.Correct, res.Attempted, o.wrong)
			}
			defs := catalogue(traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, catalogue has %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSameSeedSameCounts checks that the deterministic counts and the
// output digests repeat exactly across two runs with one seed.
func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range workloads {
		_, a := tinyRun(t, w, true, 7)
		_, b := tinyRun(t, w, true, 7)
		for _, name := range []string{"subject.nodes", "core.cells", "core.patterns_tried"} {
			if a.values[name] != b.values[name] || a.values[name] == 0 {
				t.Errorf("%s: %s = %v then %v", w, name, a.values[name], b.values[name])
			}
		}
		if len(a.digests) == 0 || !reflect.DeepEqual(a.digests, b.digests) {
			t.Errorf("%s: output digests differ between runs (%d vs %d outputs)", w, len(a.digests), len(b.digests))
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metric catalogue in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, catalogue %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, d, m)
		}
	}
	for i, m := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, d, m)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample should be 0")
	}
}

// TestNamedLayersLeaveOutCatchAlls checks that time no layer span
// explains lowers the named-layer sum, so the 5% check can fail.
func TestNamedLayersLeaveOutCatchAlls(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "verify", Start: 0, End: 40 * ms, Parent: 0},
		{Name: "check.output", Start: 40 * ms, End: 50 * ms, Parent: 0},
		{Name: "unlisted", Start: 50 * ms, End: 70 * ms, Parent: 0},
	}}
	self := tr.selfTimes()
	if self["op.other"] != 30*ms || self["other"] != 20*ms {
		t.Fatalf("catch-all self times %v, want op.other 30ms and other 20ms", self)
	}
	if got := namedLayers(self); got != 50*ms {
		t.Errorf("named layers sum to %v, want 50ms (verify + check)", got)
	}
}

// TestCalibrationKernel checks that the speed kernel does the same work
// every run and allocates nothing, so that it neither pays for nor
// triggers a garbage collection beside the work it calibrates.
func TestCalibrationKernel(t *testing.T) {
	want := calib.kernel()
	if allocs := testing.AllocsPerRun(3, func() {
		if got := calib.kernel(); got != want {
			t.Fatalf("kernel checksum %d, first run gave %d", got, want)
		}
	}); allocs != 0 {
		t.Errorf("kernel allocates %v objects per run", allocs)
	}
	if s := speedSample(); s <= 0 {
		t.Errorf("speed sample %v ms", s)
	}
}
