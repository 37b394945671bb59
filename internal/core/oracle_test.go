package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// referenceAreaEstimates is the standalone min-area cover DP that area
// recovery used before its estimates moved into labeling: a second
// enumeration of every node computing
// est(n) = min over matches of (gate area + sum of est(leaves)).
func referenceAreaEstimates(g *subject.Graph, m *match.Matcher, opt Options) ([]float64, error) {
	est := make([]float64, g.NumNodes())
	for i := range est {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		best := math.Inf(1)
		found := false
		m.Enumerate(g, n, opt.Class, func(mt *match.Match) bool {
			cost := mt.Pattern.Gate.Area
			for _, leaf := range mt.Leaves {
				cost += est[leaf]
			}
			if cost < best {
				best = cost
				found = true
			}
			return true
		})
		if !found {
			return nil, fmt.Errorf("core: no %v match at node %v of %q", opt.Class, n, g.Name)
		}
		est[i] = best
	}
	return est, nil
}

// referenceMap is Map as it ran with the standalone estimate pass:
// serial labeling, then referenceAreaEstimates, then construction.
func referenceMap(g *subject.Graph, m *match.Matcher, opt Options) (*Result, error) {
	if opt.Delay == nil {
		opt.Delay = genlib.IntrinsicDelay{}
	}
	opt.Ctx = context.Background()
	nn := g.NumNodes()
	res := &Result{Labels: make([]Label, nn)}
	classMax := classMaxima(nn, opt.Choices)
	if err := labelSerial(g, m, opt, res, classMax, nil); err != nil {
		return nil, err
	}
	var est []float64
	if opt.AreaRecovery {
		var err error
		if est, err = referenceAreaEstimates(g, m, opt); err != nil {
			return nil, err
		}
	}
	if err := construct(g, m, opt, res, classMax, est); err != nil {
		return nil, err
	}
	tm, err := res.Netlist.Delay(opt.Delay, opt.Arrivals)
	if err != nil {
		return nil, err
	}
	res.Delay = tm.Delay
	return res, nil
}

// outcome renders a mapping's observable result: the netlist bytes and
// delay, or the error text.
func outcome(t *testing.T, res *Result, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	var buf bytes.Buffer
	if err := res.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("delay %v\n%s", res.Delay, buf.Bytes())
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

type oracleCircuit struct {
	name string
	nw   func() *network.Network
}

type oracleMode struct {
	name         string
	choices      bool
	areaRecovery bool
}

// TestChoicesAreaRecoveryOracle pins the choice-aware signature index
// and the labeling-pass area estimates to the mapping they replace: on
// the ISCAS circuits that render to BLIF, for every library and for
// DAG covering with area recovery, choices, and choices with area
// recovery, Map at Parallelism 1 and 4 must produce the netlist bytes,
// delay and error text of referenceMap over a full-scan matcher. It
// also checks that area recovery's estimate work is booked to labeling
// now that the separate area phase is gone.
func TestChoicesAreaRecoveryOracle(t *testing.T) {
	circuits := []oracleCircuit{
		{"C432", bench.C432}, {"C880", bench.C880}, {"C2670", bench.C2670},
		{"C3540", bench.C3540}, {"C5315", bench.C5315}, {"C6288", bench.C6288},
		{"C7552", bench.C7552},
	}
	modes := []oracleMode{{"dag+ar", false, true}, {"choices", true, false}, {"choices+ar", true, true}}
	for _, lib := range []*genlib.Library{libgen.Lib2(), libgen.Lib441(), libgen.Lib443()} {
		t.Run(lib.Name, func(t *testing.T) {
			t.Parallel()
			oracleLibrary(t, lib, circuits, modes)
		})
	}
}

// oracleLibrary runs TestChoicesAreaRecoveryOracle's cases for one
// library, with matchers of its own.
func oracleLibrary(t *testing.T, lib *genlib.Library, circuits []oracleCircuit, modes []oracleMode) {
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	indexed := match.NewMatcher(pats, match.WithMemo(match.NewMemo(0)))
	full := match.NewMatcher(pats, match.WithoutSignatureIndex())
	for _, c := range circuits {
		nw := c.nw()
		plain, err := subject.FromNetwork(nw)
		if err != nil {
			t.Fatal(err)
		}
		withChoices, ch, err := subject.FromNetworkWithChoices(nw)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			g, opt := plain, Options{Class: match.Standard, AreaRecovery: mode.areaRecovery}
			if mode.choices {
				g, opt.Choices = withChoices, ch
			}
			full.SetChoices(opt.Choices)
			ref, err := referenceMap(g, full, opt)
			want := outcome(t, ref, err)
			for _, par := range []int{1, 4} {
				indexed.SetChoices(opt.Choices)
				opt.Parallelism = par
				res, err := Map(g, indexed, opt)
				if got := outcome(t, res, err); got != want {
					t.Errorf("%s/%s parallelism %d: %s", c.name, mode.name, par, firstDiff(got, want))
				}
				if err == nil && mode.areaRecovery && res.Stats.Phases.Label <= 0 {
					t.Errorf("%s/%s parallelism %d: area recovery booked no label time", c.name, mode.name, par)
				}
			}
		}
	}
}
