// Benchmark harness: one benchmark per table and figure of the paper,
// plus the ablations of DESIGN.md. Custom metrics report the mapped
// delay/area/cells alongside the wall-clock cost, so a -bench run
// regenerates both the quality and the CPU columns of the tables.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable3 -benchtime=1x
package dagcover

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	"dagcover/internal/core"
	"dagcover/internal/cutmap"
	"dagcover/internal/experiments"
	"dagcover/internal/flowmap"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/subject"
	"dagcover/internal/treemap"
	"dagcover/internal/verify"
)

// tableCase precompiles everything so each benchmark iteration times
// exactly one mapping run (the CPU column of the paper's tables).
type tableCase struct {
	name  string
	graph *subject.Graph
	dagM  *match.Matcher
	treeM *match.Matcher
	delay genlib.DelayModel
}

func tableCases(b *testing.B, spec experiments.TableSpec) []tableCase {
	b.Helper()
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	trees, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: false})
	if err != nil {
		b.Fatal(err)
	}
	var out []tableCase
	for _, c := range bench.Suite() {
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, tableCase{
			name:  c.Name,
			graph: g,
			dagM:  match.NewMatcher(shared),
			treeM: match.NewMatcher(trees),
			delay: spec.Delay,
		})
	}
	return out
}

func benchTable(b *testing.B, spec experiments.TableSpec) {
	for _, tc := range tableCases(b, spec) {
		b.Run(tc.name+"/tree", func(b *testing.B) {
			var delay, area float64
			var cells int
			for i := 0; i < b.N; i++ {
				res, err := treemap.Map(tc.graph, tc.treeM, treemap.Options{Delay: tc.delay})
				if err != nil {
					b.Fatal(err)
				}
				delay, area, cells = res.Delay, res.Netlist.Area(), res.Netlist.NumCells()
			}
			b.ReportMetric(delay, "delay")
			b.ReportMetric(area, "area")
			b.ReportMetric(float64(cells), "cells")
		})
		b.Run(tc.name+"/dag", func(b *testing.B) {
			var delay, area float64
			var cells, dup int
			for i := 0; i < b.N; i++ {
				res, err := core.Map(tc.graph, tc.dagM, core.Options{Class: match.Standard, Delay: tc.delay})
				if err != nil {
					b.Fatal(err)
				}
				delay, area = res.Delay, res.Netlist.Area()
				cells, dup = res.Netlist.NumCells(), res.Stats.DuplicatedNodes
			}
			b.ReportMetric(delay, "delay")
			b.ReportMetric(area, "area")
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(dup), "dup")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: tree vs DAG covering under the
// lib2-like library with intrinsic pin delays.
func BenchmarkTable1(b *testing.B) { benchTable(b, experiments.Table1()) }

// BenchmarkTable2 regenerates Table 2: the 7-gate 44-1 library with
// unit delay.
func BenchmarkTable2(b *testing.B) { benchTable(b, experiments.Table2()) }

// BenchmarkTable3 regenerates Table 3: the rich 44-3 library with
// unit delay (the paper's headline result).
func BenchmarkTable3(b *testing.B) { benchTable(b, experiments.Table3()) }

// BenchmarkFigure1Matching times match enumeration on the Figure 1
// structure in both classes (the cost of relaxing one-to-one).
func BenchmarkFigure1Matching(b *testing.B) {
	lib := genlib.NewLibrary("fig1")
	e := logic.MustParse("!(a*!b)")
	g := &genlib.Gate{Name: "andnot", Area: 2, Output: "O", Expr: e}
	for _, v := range e.Vars() {
		g.Pins = append(g.Pins, genlib.Pin{Name: v, RiseBlock: 1, FallBlock: 1, InputLoad: 1, MaxLoad: 999})
	}
	if err := lib.Add(g); err != nil {
		b.Fatal(err)
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(pats)
	sg := subject.NewGraph("fig1", true)
	p, _ := sg.AddPI("p")
	q, _ := sg.AddPI("q")
	n := sg.Nand(p, q)
	top := sg.Nand(n, sg.Not(n))
	for _, class := range []match.Class{match.Standard, match.Extended} {
		b.Run(class.String(), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				found = len(m.AllMatches(sg, top, class))
			}
			b.ReportMetric(float64(found), "matches")
		})
	}
}

// BenchmarkFigure2Duplication times the Figure 2 mapping in both
// modes; the metrics show the delay-1-vs-2 and duplication effects.
func BenchmarkFigure2Duplication(b *testing.B) {
	lib := genlib.NewLibrary("fig2")
	for _, spec := range []struct {
		name, expr string
		area       float64
	}{{"inv", "!a", 1}, {"nand2", "!(a*b)", 2}, {"ao21n", "a*b+!c", 3}} {
		e := logic.MustParse(spec.expr)
		g := &genlib.Gate{Name: spec.name, Area: spec.area, Output: "O", Expr: e}
		for _, v := range e.Vars() {
			g.Pins = append(g.Pins, genlib.Pin{Name: v, RiseBlock: 1, FallBlock: 1, InputLoad: 1, MaxLoad: 999})
		}
		if err := lib.Add(g); err != nil {
			b.Fatal(err)
		}
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(pats)
	sg := subject.NewGraph("fig2", true)
	pa, _ := sg.AddPI("a")
	pb, _ := sg.AddPI("b")
	pc, _ := sg.AddPI("c")
	pd, _ := sg.AddPI("d")
	mid := sg.Nand(pa, pb)
	sg.MarkOutput("o1", sg.Nand(mid, pc))
	sg.MarkOutput("o2", sg.Nand(mid, pd))
	for _, mode := range []struct {
		name  string
		class match.Class
	}{{"tree", match.Exact}, {"dag", match.Standard}} {
		b.Run(mode.name, func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res, err := core.Map(sg, m, core.Options{Class: mode.class, Delay: genlib.UnitDelay{}})
				if err != nil {
					b.Fatal(err)
				}
				delay = res.Delay
			}
			b.ReportMetric(delay, "delay")
		})
	}
}

// BenchmarkFlowMap times the §2 FPGA mapper across k on the suite's
// multiplier (the deepest circuit).
func BenchmarkFlowMap(b *testing.B) {
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var depth, luts int
			for i := 0; i < b.N; i++ {
				res, err := flowmap.Map(g, k)
				if err != nil {
					b.Fatal(err)
				}
				depth, luts = res.Depth, res.LUTs
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(luts), "LUTs")
		})
	}
}

// BenchmarkSequential times the §4 flow (map + retime) on pipelined
// circuits.
func BenchmarkSequential(b *testing.B) {
	mapper, err := NewMapper(Lib2())
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		nw   *Network
	}{
		{"palu8x2", bench.PipelinedALU(8, 2)},
		{"palu8x3", bench.PipelinedALU(8, 3)},
		{"correlator16", bench.Correlator(16)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var before, after float64
			for i := 0; i < b.N; i++ {
				res, err := mapper.MapSequential(cfg.nw, nil)
				if err != nil {
					b.Fatal(err)
				}
				before, after = res.PeriodBefore, res.PeriodAfter
			}
			b.ReportMetric(before, "period0")
			b.ReportMetric(after, "period")
		})
	}
}

// BenchmarkAblationMatchClass compares standard vs extended matching
// cost on the suite under 44-1 (footnote 3: quality is equal; this
// measures the price of the larger search space).
func BenchmarkAblationMatchClass(b *testing.B) {
	spec := experiments.Table2()
	shared, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.C2670())
	if err != nil {
		b.Fatal(err)
	}
	for _, class := range []match.Class{match.Standard, match.Extended} {
		b.Run(class.String(), func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, m, core.Options{Class: class, Delay: spec.Delay})
				if err != nil {
					b.Fatal(err)
				}
				delay = res.Delay
			}
			b.ReportMetric(delay, "delay")
		})
	}
}

// BenchmarkAblationLibraryRichness sweeps the maximum AOI group size
// (ablation A2) on an 8x8 multiplier.
func BenchmarkAblationLibraryRichness(b *testing.B) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	for gs := 1; gs <= 4; gs++ {
		lib := libgen.Rich(fmt.Sprintf("rich-%d", gs), libgen.RichOptions{MaxGroupSize: gs})
		shared, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
		if err != nil {
			b.Fatal(err)
		}
		m := match.NewMatcher(shared)
		b.Run(fmt.Sprintf("groupsize%d", gs), func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, m, core.Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
				if err != nil {
					b.Fatal(err)
				}
				delay = res.Delay
			}
			b.ReportMetric(delay, "delay")
			b.ReportMetric(float64(len(lib.Gates)), "gates")
		})
	}
}

// BenchmarkAblationAreaRecovery measures the cost and benefit of the
// slack-driven area recovery pass (ablation A3).
func BenchmarkAblationAreaRecovery(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib2(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.C5315())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		recovery bool
	}{{"plain", false}, {"recovery", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var area float64
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, m, core.Options{
					Class: match.Standard, Delay: genlib.IntrinsicDelay{},
					AreaRecovery: mode.recovery,
				})
				if err != nil {
					b.Fatal(err)
				}
				area = res.Netlist.Area()
			}
			b.ReportMetric(area, "area")
		})
	}
}

// BenchmarkParallelLabeling times the full DAG-covering labeling of
// the suite's multiplier under 44-3 across worker counts. Per-count
// results are bit-identical; only the wall clock moves (single-CPU
// hosts will show no speedup — the wavefront only buys time when the
// scheduler has cores to spread the waves over).
func BenchmarkParallelLabeling(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	var refDelay float64
	var refCells int
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var delay float64
			var cells int
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, m, core.Options{
					Class: match.Standard, Delay: genlib.UnitDelay{}, Parallelism: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				delay, cells = res.Delay, res.Netlist.NumCells()
			}
			if refCells == 0 {
				refDelay, refCells = delay, cells
			} else if delay != refDelay || cells != refCells {
				b.Fatalf("workers=%d diverged: delay %v cells %d vs %v/%d",
					workers, delay, cells, refDelay, refCells)
			}
			b.ReportMetric(delay, "delay")
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkMemoLabeling isolates the structural match memo on the
// multiplier under 44-3 (the acceptance case): the same labeling run
// with the memo off and on. The memo-on matcher keeps its table across
// iterations, so after the first iteration every node hits and the
// labeling phase replays recipes instead of backtracking — the
// labelWallNs metric is the phase the memo targets. Results must be
// bit-identical in both modes.
func BenchmarkMemoLabeling(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	var refDelay float64
	var refCells int
	for _, mode := range []struct {
		name string
		m    *match.Matcher
	}{
		{"off", match.NewMatcher(shared)},
		{"on", match.NewMatcher(shared, match.WithMemo(match.NewMemo(0)))},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var delay float64
			var cells int
			var labelWall time.Duration
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, mode.m, core.Options{
					Class: match.Standard, Delay: genlib.UnitDelay{},
				})
				if err != nil {
					b.Fatal(err)
				}
				delay, cells = res.Delay, res.Netlist.NumCells()
				labelWall = res.Stats.Phases.LabelWall
			}
			if refCells == 0 {
				refDelay, refCells = delay, cells
			} else if delay != refDelay || cells != refCells {
				b.Fatalf("memo=%s diverged: delay %v cells %d vs %v/%d",
					mode.name, delay, cells, refDelay, refCells)
			}
			b.ReportMetric(float64(labelWall.Nanoseconds()), "labelWallNs")
			b.ReportMetric(delay, "delay")
		})
	}
}

// BenchmarkSignatureIndex isolates the root-signature index: the same
// labeling run with and without it, reporting the pattern plans tried
// per iteration (the index's whole effect is that column plus the
// saved wall clock).
func BenchmarkSignatureIndex(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		m    *match.Matcher
	}{
		{"indexed", match.NewMatcher(shared)},
		{"fullscan", match.NewMatcher(shared, match.WithoutSignatureIndex())},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var tried, matches int
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, mode.m, core.Options{
					Class: match.Standard, Delay: genlib.UnitDelay{},
				})
				if err != nil {
					b.Fatal(err)
				}
				tried, matches = res.Stats.PatternsTried, res.Stats.MatchesEnumerated
			}
			b.ReportMetric(float64(tried), "plansTried")
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// BenchmarkMatcherEnumerate is a microbenchmark of the graph-match
// inner loop: all standard matches at every node of the multiplier
// under 44-3.
func BenchmarkMatcherEnumerate(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count = 0
		for j := 0; j < g.NumNodes(); j++ {
			m.Enumerate(g, subject.Node(j), match.Standard, func(*match.Match) bool {
				count++
				return true
			})
		}
	}
	b.ReportMetric(float64(count), "matches")
}

// BenchmarkSubjectBuild times technology decomposition of the suite's
// largest circuit. Run with -benchmem: the allocs/op column is the
// arena regression gate — the SoA core should allocate per growth
// step, not per node.
func BenchmarkSubjectBuild(b *testing.B) {
	nw := bench.C7552()
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		g, err := subject.FromNetwork(nw)
		if err != nil {
			b.Fatal(err)
		}
		nodes = g.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkIngestStream times the streaming BLIF-to-subject path on a
// generated mult64 (68k subject nodes): bytes in, arena out, no
// network.Network in between. SetBytes turns the result into ingest
// MB/s; -benchmem gives the allocs/op regression column.
func BenchmarkIngestStream(b *testing.B) {
	var buf bytes.Buffer
	if err := bench.StreamMult(&buf, 64); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	rd := &blif.Reader{}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		g, err := rd.StreamSubject(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		nodes = g.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// TestArenaBuildAllocs asserts the arena property directly: appending
// nodes to a Reserve'd graph performs no per-node heap allocation —
// only the strash table's occasional doubling allocates, which
// amortizes to well under one hundredth of an allocation per node.
func TestArenaBuildAllocs(t *testing.T) {
	const rounds = 1 << 14
	g := subject.NewGraph("arena", true)
	g.Reserve(4 * rounds)
	a, err := g.AddPI("a")
	if err != nil {
		t.Fatal(err)
	}
	prev := a
	allocs := testing.AllocsPerRun(rounds, func() {
		// Two fresh nodes per run: an inverter and a NAND neither of
		// which can hit the strash table.
		prev = g.Nand(prev, g.Not(prev))
	})
	perNode := allocs / 2
	if perNode > 0.01 {
		t.Fatalf("arena build allocates %.4f allocations per node, want amortized zero (<= 0.01)", perNode)
	}
	t.Logf("arena build: %d nodes, %.5f allocs/node", g.NumNodes(), perNode)
}

// BenchmarkVerify times the 64-way simulation equivalence check used
// to validate every mapping.
func BenchmarkVerify(b *testing.B) {
	nw := bench.ALU(8)
	mapper, err := NewMapper(Lib2())
	if err != nil {
		b.Fatal(err)
	}
	res, err := mapper.MapDAG(nw, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(nw, res.Netlist); err != nil {
			b.Fatal(err)
		}
	}
}

// mappedISCAS maps every circuit of the ISCAS-85 suite by DAG
// covering on 44-3 (intrinsic delay), the library whose mappings verify
// slowest.
func mappedISCAS(tb testing.TB) ([]*Network, []*Netlist) {
	tb.Helper()
	mapper, err := NewMapper(Lib443())
	if err != nil {
		tb.Fatal(err)
	}
	var nws []*Network
	var nls []*Netlist
	for _, c := range bench.FullSuite() {
		res, err := mapper.MapDAG(c.Network, nil)
		if err != nil {
			tb.Fatalf("%s: %v", c.Name, err)
		}
		nws, nls = append(nws, c.Network), append(nls, res.Netlist)
	}
	return nws, nls
}

// BenchmarkVerifyISCAS times the equivalence check over the mapped
// ISCAS suite: one iteration verifies all ten netlists.
func BenchmarkVerifyISCAS(b *testing.B) {
	nws, nls := mappedISCAS(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range nws {
			if err := Verify(nws[j], nls[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(nws)), "netlists/op")
}

// TestVerifyAllocs gates the compiled verifier's allocations: checking
// C6288 mapped on 44-3 must allocate as many objects with 1024 random
// rounds as with 64, so nothing is allocated per simulation batch.
func TestVerifyAllocs(t *testing.T) {
	nw := bench.C6288()
	mapper, err := NewMapper(Lib443())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.MapDAG(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := verify.Mapped(nw, res.Netlist, verify.Options{Rounds: rounds}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a64, a1024 := allocs(64), allocs(1024)
	if a64 != a1024 {
		t.Fatalf("verify allocates per round: %.0f objects at 64 rounds, %.0f at 1024", a64, a1024)
	}
	t.Logf("verify C6288/44-3: %.0f allocations at 64 and at 1024 rounds", a64)
}

// BenchmarkLUTTradeoff sweeps the depth slack in the priority-cut
// area mode (study E4: the area/depth trade-off of the conclusion's
// reference [3]).
func BenchmarkLUTTradeoff(b *testing.B) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	for slack := 0; slack <= 3; slack++ {
		b.Run(fmt.Sprintf("slack%d", slack), func(b *testing.B) {
			var depth, luts int
			for i := 0; i < b.N; i++ {
				res, err := cutmap.Map(g, cutmap.Options{K: 4, Mode: cutmap.ModeArea, Slack: slack})
				if err != nil {
					b.Fatal(err)
				}
				depth, luts = res.Depth, res.LUTs
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(luts), "LUTs")
		})
	}
}

// BenchmarkBuffering measures the fanout-buffering post-pass (study
// E3) on a DAG-covered netlist.
func BenchmarkBuffering(b *testing.B) {
	lib := libgen.Lib2()
	mapper, err := NewMapper(lib)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mapper.MapDAG(bench.C5315(), nil)
	if err != nil {
		b.Fatal(err)
	}
	buffer := lib.Buffer()
	b.ResetTimer()
	var loaded float64
	for i := 0; i < b.N; i++ {
		buffered, err := res.Netlist.InsertBuffers(buffer, 16)
		if err != nil {
			b.Fatal(err)
		}
		t, err := buffered.DelayLoaded(mapping.LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		loaded = t.Delay
	}
	b.ReportMetric(loaded, "loadedDelay")
}

// BenchmarkChoices measures choice-encoded mapping (study E8) against
// plain DAG covering on the multiplier, and the choices path with area
// recovery. patterns_tried is the matcher's deterministic work count
// for one mapping. choices+ar maps on lib2: with 44-1 (and 44-3) the
// multiplier hits the open choices + area-recovery failure "core: no
// standard match" (ROADMAP item 3); move it to 44-1 once that is fixed.
func BenchmarkChoices(b *testing.B) {
	nw := bench.ArrayMultiplier(8)
	lib441, err := NewMapper(Lib441())
	if err != nil {
		b.Fatal(err)
	}
	lib2, err := NewMapper(Lib2())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"plain", "choices", "choices+ar"} {
		b.Run(mode, func(b *testing.B) {
			mapper, opt := lib441, &MapOptions{Delay: UnitDelay}
			if mode == "choices+ar" {
				mapper, opt.AreaRecovery = lib2, true
			}
			var res *MapResult
			for i := 0; i < b.N; i++ {
				var err error
				if mode == "plain" {
					res, err = mapper.MapDAG(nw, opt)
				} else {
					res, err = mapper.MapDAGWithChoices(nw, opt)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Delay, "delay")
			b.ReportMetric(float64(res.PatternsTried), "patterns_tried")
		})
	}
}

// BenchmarkSeqMap times Pan-Liu joint sequential mapping (study E11)
// against the three-step flow.
func BenchmarkSeqMap(b *testing.B) {
	nw := bench.PipelinedALU(8, 2)
	b.Run("joint", func(b *testing.B) {
		var period int
		for i := 0; i < b.N; i++ {
			res, err := MapSequentialLUT(nw, 4)
			if err != nil {
				b.Fatal(err)
			}
			period = res.Period
		}
		b.ReportMetric(float64(period), "period")
	})
	mapper, err := NewMapper(Lib2())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("threestep", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			res, err := mapper.MapSequential(nw, nil)
			if err != nil {
				b.Fatal(err)
			}
			period = res.PeriodAfter
		}
		b.ReportMetric(period, "period")
	})
}
