package verify

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/core"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/subject"
	"dagcover/internal/treemap"
)

func net(t *testing.T, build func(nw *network.Network) error) *network.Network {
	t.Helper()
	nw := network.New("t")
	if err := build(nw); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNetworksEquivalent(t *testing.T) {
	mk := func(fn string) *network.Network {
		return net(t, func(nw *network.Network) error {
			for _, v := range []string{"a", "b", "c"} {
				if _, err := nw.AddInput(v); err != nil {
					return err
				}
			}
			if _, err := nw.AddNode("f", []string{"a", "b", "c"}, logic.MustParse(fn)); err != nil {
				return err
			}
			return nw.MarkOutput("f")
		})
	}
	if err := Networks(mk("a*b+c"), mk("c+b*a"), Options{}); err != nil {
		t.Errorf("equivalent networks rejected: %v", err)
	}
	err := Networks(mk("a*b+c"), mk("a*b"), Options{})
	if err == nil {
		t.Error("inequivalent networks accepted")
	} else if !strings.Contains(err.Error(), "f") {
		t.Errorf("error does not name the failing output: %v", err)
	}
}

func TestNetworksRandomFallback(t *testing.T) {
	// More than ExhaustiveLimit inputs forces random vectors.
	mk := func(twist bool) *network.Network {
		return net(t, func(nw *network.Network) error {
			var vars []string
			var kids []*logic.Expr
			for i := 0; i < ExhaustiveLimit+2; i++ {
				v := "x" + string(rune('A'+i))
				if _, err := nw.AddInput(v); err != nil {
					return err
				}
				vars = append(vars, v)
				kids = append(kids, logic.Variable(v))
			}
			fn := logic.Xor(kids...)
			if twist {
				fn = logic.Not(logic.Not(fn))
			}
			if _, err := nw.AddNode("f", vars, fn); err != nil {
				return err
			}
			return nw.MarkOutput("f")
		})
	}
	if err := Networks(mk(false), mk(true), Options{Rounds: 8}); err != nil {
		t.Errorf("equivalent wide networks rejected: %v", err)
	}
	// Flip one: parity vs inverted parity differs everywhere.
	bad := net(t, func(nw *network.Network) error {
		var vars []string
		var kids []*logic.Expr
		for i := 0; i < ExhaustiveLimit+2; i++ {
			v := "x" + string(rune('A'+i))
			if _, err := nw.AddInput(v); err != nil {
				return err
			}
			vars = append(vars, v)
			kids = append(kids, logic.Variable(v))
		}
		if _, err := nw.AddNode("f", vars, logic.Not(logic.Xor(kids...))); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
	if err := Networks(mk(false), bad, Options{Rounds: 4}); err == nil {
		t.Error("inequivalent wide networks accepted")
	}
}

func TestCandidateErrors(t *testing.T) {
	a := net(t, func(nw *network.Network) error {
		if _, err := nw.AddInput("a"); err != nil {
			return err
		}
		if _, err := nw.AddNode("f", []string{"a"}, logic.MustParse("!a")); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
	// Candidate with a foreign source name.
	b := net(t, func(nw *network.Network) error {
		if _, err := nw.AddInput("zz"); err != nil {
			return err
		}
		if _, err := nw.AddNode("f", []string{"zz"}, logic.MustParse("!zz")); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
	if err := Networks(a, b, Options{}); err == nil {
		t.Error("foreign source accepted")
	}
	// Candidate with a foreign output name.
	c := net(t, func(nw *network.Network) error {
		if _, err := nw.AddInput("a"); err != nil {
			return err
		}
		if _, err := nw.AddNode("g", []string{"a"}, logic.MustParse("!a")); err != nil {
			return err
		}
		return nw.MarkOutput("g")
	})
	if err := Networks(a, c, Options{}); err == nil {
		t.Error("foreign output accepted")
	}
}

func TestMappedChecksNetlist(t *testing.T) {
	lib := libgen.Lib2()
	orig := net(t, func(nw *network.Network) error {
		for _, v := range []string{"a", "b"} {
			if _, err := nw.AddInput(v); err != nil {
				return err
			}
		}
		if _, err := nw.AddNode("f", []string{"a", "b"}, logic.MustParse("a*b")); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
	b := mapping.NewBuilder("m")
	for _, v := range []string{"a", "b"} {
		if err := b.AddInput(v); err != nil {
			t.Fatal(err)
		}
	}
	n1 := b.FreshNet()
	b.AddCell(lib.Gate("nand2"), []string{"a", "b"}, n1)
	b.AddCell(lib.Gate("inv"), []string{n1}, "f")
	b.MarkOutput("f", "f")
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if err := Mapped(orig, nl, Options{}); err != nil {
		t.Errorf("correct mapping rejected: %v", err)
	}
	// A wrong mapping (nor2 instead of nand2) must be caught.
	b2 := mapping.NewBuilder("m2")
	for _, v := range []string{"a", "b"} {
		if err := b2.AddInput(v); err != nil {
			t.Fatal(err)
		}
	}
	n2 := b2.FreshNet()
	b2.AddCell(lib.Gate("nor2"), []string{"a", "b"}, n2)
	b2.AddCell(lib.Gate("inv"), []string{n2}, "f")
	b2.MarkOutput("f", "f")
	nl2, err := b2.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if err := Mapped(orig, nl2, Options{}); err == nil {
		t.Error("wrong mapping accepted")
	}
}

func TestLatchBoundaries(t *testing.T) {
	// The mapped netlist of a sequential circuit exposes latch inputs
	// as ports; Mapped must compare them against the original nodes.
	orig := net(t, func(nw *network.Network) error {
		if _, err := nw.AddInput("d"); err != nil {
			return err
		}
		if _, err := nw.AddNode("n", []string{"d"}, logic.MustParse("!d")); err != nil {
			return err
		}
		if _, err := nw.AddLatch("n", "q", false); err != nil {
			return err
		}
		if _, err := nw.AddNode("f", []string{"q"}, logic.MustParse("!q")); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
	lib := libgen.Lib2()
	b := mapping.NewBuilder("m")
	if err := b.AddInput("d"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInput("q"); err != nil {
		t.Fatal(err)
	}
	b.AddCell(lib.Gate("inv"), []string{"d"}, "n")
	b.AddCell(lib.Gate("inv"), []string{"q"}, "f")
	b.MarkOutput("f", "f")
	b.MarkOutput("n", "n")
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if err := Mapped(orig, nl, Options{}); err != nil {
		t.Errorf("sequential boundary mapping rejected: %v", err)
	}
}

// oracleRun is the map-based evaluator the compiled engine replaced:
// a name-keyed value map, a name-keyed assignment per node and a
// recursive Expr.EvalBatch. It is kept as the reference semantics the
// compiled engine is tested against.
func oracleRun(topo []*network.Node, inputs map[string]uint64) (map[string]uint64, error) {
	values := make(map[string]uint64, len(topo))
	assign := map[string]uint64{}
	for _, n := range topo {
		if n.Func == nil {
			v, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("network: simulation input %q not supplied", n.Name)
			}
			values[n.Name] = v
			continue
		}
		clear(assign)
		for _, fi := range n.Fanins {
			assign[fi.Name] = values[fi.Name]
		}
		values[n.Name] = n.Func.EvalBatch(assign)
	}
	return values, nil
}

// oracleNetworks is Networks on the map-based evaluator, message for
// message.
func oracleNetworks(a, b *network.Network, opt Options) error {
	opt.defaults()
	topoA, err := a.TopoSort()
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	topoB, err := b.TopoSort()
	if err != nil {
		return fmt.Errorf("verify: candidate: %v", err)
	}
	var sources, bSources []string
	for _, n := range topoA {
		if n.Func == nil {
			sources = append(sources, n.Name)
		}
	}
	for _, n := range topoB {
		if n.Func == nil {
			bSources = append(bSources, n.Name)
		}
	}
	for _, s := range bSources {
		if a.Node(s) == nil {
			return fmt.Errorf("verify: candidate source %q unknown to reference", s)
		}
	}
	for _, o := range b.Outputs() {
		if a.Node(o.Name) == nil {
			return fmt.Errorf("verify: candidate output %q unknown to reference", o.Name)
		}
	}
	check := func(in map[string]uint64) error {
		va, err := oracleRun(topoA, in)
		if err != nil {
			return fmt.Errorf("verify: reference: %v", err)
		}
		inB := map[string]uint64{}
		for _, s := range bSources {
			inB[s] = va[s]
		}
		vb, err := oracleRun(topoB, inB)
		if err != nil {
			return fmt.Errorf("verify: candidate: %v", err)
		}
		for _, o := range b.Outputs() {
			if va[o.Name] != vb[o.Name] {
				bit := firstDiff(va[o.Name], vb[o.Name])
				return fmt.Errorf("verify: output %q differs (vector bit %d): reference %x, candidate %x",
					o.Name, bit, va[o.Name], vb[o.Name])
			}
		}
		return nil
	}
	if len(sources) <= ExhaustiveLimit {
		for w := 0; w < (1<<len(sources)+63)/64; w++ {
			in := make(map[string]uint64, len(sources))
			for i, s := range sources {
				in[s] = inputPattern(i, w*64)
			}
			if err := check(in); err != nil {
				return fmt.Errorf("%v (exhaustive batch %d)", err, w)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for round := 0; round < opt.Rounds; round++ {
		in := make(map[string]uint64, len(sources))
		for _, s := range sources {
			in[s] = rng.Uint64()
		}
		if err := check(in); err != nil {
			return fmt.Errorf("%v (random round %d, seed %d)", err, round, opt.Seed)
		}
	}
	return nil
}

// oracleMapped is Mapped through ToNetwork and the map-based
// evaluator, without the missing-output check.
func oracleMapped(orig *network.Network, nl *mapping.Netlist, opt Options) error {
	if err := nl.Check(); err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	cand, err := nl.ToNetwork()
	if err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	return oracleNetworks(orig, cand, opt)
}

// mapISCAS maps nw on lib by DAG covering (dag) or tree covering.
func mapISCAS(t *testing.T, nw *network.Network, lib *genlib.Library, dag bool) *mapping.Netlist {
	t.Helper()
	g, err := subject.FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: dag})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(pats)
	if dag {
		res, err := core.Map(g, m, core.Options{Class: match.Standard})
		if err != nil {
			t.Fatal(err)
		}
		return res.Netlist
	}
	res, err := treemap.Map(g, m, treemap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

// truthTable is g's function over its pins in the given order.
func truthTable(t *testing.T, g *genlib.Gate, pins []string) *logic.TT {
	t.Helper()
	tt, err := logic.NewTT(g.Expr, pins)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

// mutants derives single-cell mutants of nl that change the cell's
// function: a gate swapped for a same-arity library gate with another
// truth table, and the inputs of an asymmetric gate swapped. Pin swaps
// of symmetric gates are no-ops and are never produced.
func mutants(t *testing.T, nl *mapping.Netlist, lib *genlib.Library, rng *rand.Rand, n int) map[string]*mapping.Netlist {
	t.Helper()
	out := map[string]*mapping.Netlist{}
	with := func(i int, c *mapping.Cell) *mapping.Netlist {
		m := *nl
		m.Cells = append([]*mapping.Cell(nil), nl.Cells...)
		m.Cells[i] = c
		return &m
	}
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		i := rng.Intn(len(nl.Cells))
		c := nl.Cells[i]
		pins := c.Gate.Formals()
		orig := truthTable(t, c.Gate, pins)
		if tries%2 == 0 {
			for _, g := range lib.Gates {
				if g.NumInputs() == c.Gate.NumInputs() && !truthTable(t, g, g.Formals()).Equal(orig) {
					mc := *c
					mc.Gate = g
					out[fmt.Sprintf("cell %s: %s->%s", c.Name, c.Gate.Name, g.Name)] = with(i, &mc)
					break
				}
			}
			continue
		}
		for p := 0; p+1 < len(pins); p++ {
			swapped := append([]string(nil), pins...)
			swapped[p], swapped[p+1] = swapped[p+1], swapped[p]
			if c.Inputs[p] == c.Inputs[p+1] || truthTable(t, c.Gate, swapped).Equal(orig) {
				continue
			}
			mc := *c
			mc.Inputs = append([]string(nil), c.Inputs...)
			mc.Inputs[p], mc.Inputs[p+1] = mc.Inputs[p+1], mc.Inputs[p]
			out[fmt.Sprintf("cell %s: %s pins %d,%d swapped", c.Name, c.Gate.Name, p, p+1)] = with(i, &mc)
			break
		}
	}
	return out
}

// TestCompiledMatchesOracle runs the compiled engine and the
// map-based oracle on the mapped ISCAS suite over three libraries and
// both covering modes, plus single-cell mutants of every mapping. Each
// case must get the same verdict and the same error text from both,
// and every circuit must have a mutant that is caught.
func TestCompiledMatchesOracle(t *testing.T) {
	libs := []*genlib.Library{libgen.Lib2(), libgen.Lib441(), libgen.Lib443()}
	rng := rand.New(rand.NewSource(1))
	for _, circ := range bench.FullSuite() {
		tried, caught := 0, 0
		for _, lib := range libs {
			for _, dag := range []bool{true, false} {
				nl := mapISCAS(t, circ.Network, lib, dag)
				name := fmt.Sprintf("%s/%s/dag=%v", circ.Name, lib.Name, dag)
				if err := agree(t, name, circ.Network, nl); err != nil {
					t.Errorf("%s: correct mapping rejected: %v", name, err)
				}
				for mname, m := range mutants(t, nl, lib, rng, 2) {
					tried++
					if agree(t, name+" "+mname, circ.Network, m) != nil {
						caught++
					}
				}
			}
		}
		if caught == 0 {
			t.Errorf("%s: none of %d mutants caught", circ.Name, tried)
		}
		t.Logf("%s: %d of %d mutants caught", circ.Name, caught, tried)
	}
}

// agree checks that the compiled engine and the oracle give nl the
// same verdict and message, and returns the compiled engine's error.
func agree(t *testing.T, name string, orig *network.Network, nl *mapping.Netlist) error {
	t.Helper()
	got, want := Mapped(orig, nl, Options{}), oracleMapped(orig, nl, Options{})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: compiled engine says %v, oracle says %v", name, got, want)
	}
	return got
}

// TestMappedRejectsMissingOutput removes one output port from each
// mapped ISCAS netlist: the check must fail and name the output, even
// though every remaining port is correct.
func TestMappedRejectsMissingOutput(t *testing.T) {
	for _, circ := range bench.FullSuite() {
		nl := mapISCAS(t, circ.Network, libgen.Lib2(), true)
		if err := Mapped(circ.Network, nl, Options{}); err != nil {
			t.Fatalf("%s: correct mapping rejected: %v", circ.Name, err)
		}
		drop := len(nl.Outputs) / 2
		cut := *nl
		cut.Outputs = append(append([]mapping.OutputPort(nil), nl.Outputs[:drop]...), nl.Outputs[drop+1:]...)
		want := fmt.Sprintf("reference output %q missing from candidate", nl.Outputs[drop].Name)
		if err := Mapped(circ.Network, &cut, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: netlist without port %q: got %v, want an error containing %q",
				circ.Name, nl.Outputs[drop].Name, err, want)
		}
	}
}
