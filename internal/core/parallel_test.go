package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/subject"
	"dagcover/internal/verify"
)

// netlistSig serializes a netlist's cell list in emission order so two
// mappings can be compared bit-for-bit.
func netlistSig(nl *mapping.Netlist) string {
	var b strings.Builder
	for _, c := range nl.Cells {
		fmt.Fprintf(&b, "%s:%s<%s;", c.Gate.Name, c.Output, strings.Join(c.Inputs, ","))
	}
	return b.String()
}

// parallelLibs pairs each library with the delay model its paper table
// uses.
func parallelLibs() []struct {
	name  string
	lib   *genlib.Library
	delay genlib.DelayModel
} {
	return []struct {
		name  string
		lib   *genlib.Library
		delay genlib.DelayModel
	}{
		{"lib2", libgen.Lib2(), genlib.IntrinsicDelay{}},
		{"44-1", libgen.Lib441(), genlib.UnitDelay{}},
		{"44-3", libgen.Lib443(), genlib.UnitDelay{}},
	}
}

// TestParallelMatchesSerial is the determinism contract: for every
// bench circuit x library x match class, wavefront labeling with 8
// workers reproduces the serial mapping bit-for-bit — same delay, same
// cell list, same stats — and the netlist is functionally equivalent
// to the source network. Run with -race to exercise the concurrency.
func TestParallelMatchesSerial(t *testing.T) {
	circuits := bench.FullSuite()
	libs := parallelLibs()
	if testing.Short() {
		circuits = circuits[:3]
		libs = libs[1:2]
	}
	for _, lc := range libs {
		shared, _, err := subject.CompileLibrary(lc.lib, subject.CompileOptions{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		trees, _, err := subject.CompileLibrary(lc.lib, subject.CompileOptions{Share: false})
		if err != nil {
			t.Fatal(err)
		}
		matchers := map[match.Class]*match.Matcher{
			match.Exact:    match.NewMatcher(trees),
			match.Standard: match.NewMatcher(shared),
		}
		for _, c := range circuits {
			g, err := subject.FromNetwork(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			for _, class := range []match.Class{match.Exact, match.Standard} {
				t.Run(fmt.Sprintf("%s/%s/%v", lc.name, c.Name, class), func(t *testing.T) {
					m := matchers[class]
					serial, err := Map(g, m, Options{Class: class, Delay: lc.delay})
					if err != nil {
						t.Fatal(err)
					}
					par, err := Map(g, m, Options{Class: class, Delay: lc.delay, Parallelism: 8})
					if err != nil {
						t.Fatal(err)
					}
					if par.Delay != serial.Delay {
						t.Errorf("delay: parallel %v, serial %v", par.Delay, serial.Delay)
					}
					if par.Netlist.NumCells() != serial.Netlist.NumCells() {
						t.Errorf("cells: parallel %d, serial %d",
							par.Netlist.NumCells(), serial.Netlist.NumCells())
					}
					if ps, ss := netlistSig(par.Netlist), netlistSig(serial.Netlist); ps != ss {
						t.Errorf("cell lists differ:\nparallel: %.200s\nserial:   %.200s", ps, ss)
					}
					if par.Stats.Counters != serial.Stats.Counters {
						t.Errorf("stats: parallel %+v, serial %+v", par.Stats, serial.Stats)
					}
					if err := verify.Mapped(c.Network, par.Netlist, verify.Options{}); err != nil {
						t.Errorf("parallel netlist not equivalent: %v", err)
					}
				})
			}
		}
	}
}

// TestParallelWorkerCountInvariance sweeps worker counts on one
// circuit: every count must give the same bytes.
func TestParallelWorkerCountInvariance(t *testing.T) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	ref, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	refSig := netlistSig(ref.Netlist)
	for _, workers := range []int{2, 3, 4, 7, 16} {
		res, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Delay != ref.Delay || netlistSig(res.Netlist) != refSig {
			t.Errorf("workers=%d: mapping diverged from serial", workers)
		}
		if res.Stats.Counters != ref.Stats.Counters {
			t.Errorf("workers=%d: stats %+v, serial %+v", workers, res.Stats, ref.Stats)
		}
	}
}

// TestParallelWithChoices checks the wave-boundary class merge: a
// choice-encoded graph labeled in parallel reproduces the serial
// choice mapping exactly.
func TestParallelWithChoices(t *testing.T) {
	shared, _, err := subject.CompileLibrary(libgen.Lib441(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	base := match.NewMatcher(shared)
	circuits := []bench.Circuit{
		{Name: "adder16", Network: bench.RippleAdder(16)},
		{Name: "mult6", Network: bench.ArrayMultiplier(6)},
		{Name: "alu4", Network: bench.ALU(4)},
	}
	for _, c := range circuits {
		t.Run(c.Name, func(t *testing.T) {
			g, choices, err := subject.FromNetworkWithChoices(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			m := base.Clone()
			m.SetChoices(choices)
			opt := Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Choices: choices}
			serial, err := Map(g, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Parallelism = 8
			par, err := Map(g, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if par.Delay != serial.Delay {
				t.Errorf("delay: parallel %v, serial %v", par.Delay, serial.Delay)
			}
			if netlistSig(par.Netlist) != netlistSig(serial.Netlist) {
				t.Errorf("choice cell lists differ")
			}
			if par.Stats.Counters != serial.Stats.Counters {
				t.Errorf("stats: parallel %+v, serial %+v", par.Stats, serial.Stats)
			}
			if err := verify.Mapped(c.Network, par.Netlist, verify.Options{}); err != nil {
				t.Errorf("parallel choice netlist not equivalent: %v", err)
			}
		})
	}
}

// TestParallelChoicesWithoutOptionsFallsBack pins the soundness guard:
// a matcher descending choices the Options don't declare cannot be
// wave-scheduled, so Map must produce the serial result (not a racy
// wrong one) even with Parallelism set.
func TestParallelChoicesWithoutOptionsFallsBack(t *testing.T) {
	shared, _, err := subject.CompileLibrary(libgen.Lib441(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	nw := bench.ArrayMultiplier(6)
	g, choices, err := subject.FromNetworkWithChoices(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	m.SetChoices(choices)
	serial, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Delay != serial.Delay || netlistSig(par.Netlist) != netlistSig(serial.Netlist) {
		t.Errorf("fallback mapping diverged from serial")
	}
}

// TestParallelNoMatchError checks error propagation out of the worker
// pool: an impoverished library (inverter only) cannot label a NAND
// wave and must fail cleanly, serial and parallel alike.
func TestParallelNoMatchError(t *testing.T) {
	lib := genlib.NewLibrary("invonly")
	e := logic.MustParse("!a")
	inv := &genlib.Gate{Name: "inv", Area: 1, Output: "O", Expr: e}
	inv.Pins = append(inv.Pins, genlib.Pin{Name: "a", RiseBlock: 1, FallBlock: 1, InputLoad: 1, MaxLoad: 999})
	if err := lib.Add(inv); err != nil {
		t.Fatal(err)
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(pats)
	g, err := subject.FromNetwork(bench.RippleAdder(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(g, m, Options{Class: match.Standard}); err == nil {
		t.Fatal("serial map with inverter-only library should fail")
	}
	if _, err := Map(g, m, Options{Class: match.Standard, Parallelism: 8}); err == nil {
		t.Fatal("parallel map with inverter-only library should fail")
	}
}

// BenchmarkLabelAllocs guards the hot-loop allocation budget: labeling
// the multiplier under 44-3. The scratch staging in bestMatch keeps
// allocations near one Match per node instead of one per improvement.
func BenchmarkLabelAllocs(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &Result{Labels: make([]Label, g.NumNodes())}
		classMax := make([]int, g.NumNodes())
		for j := range classMax {
			classMax[j] = j
		}
		if err := labelSerial(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Ctx: context.Background()}, res, classMax, nil); err != nil {
			b.Fatal(err)
		}
	}
}
