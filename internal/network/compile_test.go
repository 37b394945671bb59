package network

import (
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/logic"
)

// fuzzWords are the fixed input words of FuzzCompiledEval: variable i
// reads fuzzWords[i%len] rotated left by i, so no two of the first
// sixteen variables see the same word.
var fuzzWords = [...]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00,
	0x0123456789ABCDEF, 0xDEADBEEFCAFEF00D, 0x9E3779B97F4A7C15, 0x0000FFFF0000FFFF,
}

func fuzzWord(i int) uint64 { return bits.RotateLeft64(fuzzWords[i%len(fuzzWords)], i) }

// FuzzCompiledEval parses an expression, builds a one-node network
// computing it, and checks that the compiled program agrees with
// Expr.EvalBatch on fixed input words, both when the node is compiled
// in place (Compile) and when the expression is lowered once and
// emitted with an argument binding (Lower + Emit), as the verifier does
// for library gates. It is seeded with every gate function of the
// libraries in testdata and doubles as the expression parser's fuzz
// target.
//
//	go test -run '^$' -fuzz FuzzCompiledEval -fuzztime 10s ./internal/network/
func FuzzCompiledEval(f *testing.F) {
	libs, err := filepath.Glob("testdata/*.genlib")
	if err != nil || len(libs) == 0 {
		f.Fatalf("no seed libraries in testdata: %v", err)
	}
	for _, path := range libs {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lib, err := genlib.ParseString(path, string(text))
		if err != nil {
			f.Fatal(err)
		}
		for _, g := range lib.Gates {
			f.Add(g.Expr.String())
		}
	}
	for _, s := range []string{"CONST0", "!CONST1", "a*!a", "(a+b)'*c^d^!e", "a b c + !(d ^ e')", "!(!(!(x)))"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 512 {
			return
		}
		e, err := logic.Parse(s)
		if err != nil {
			return
		}
		vars := e.Vars()
		nw := New("fuzz")
		assign := make(map[string]uint64, len(vars))
		for i, v := range vars {
			if _, err := nw.AddInput(v); err != nil {
				t.Fatal(err)
			}
			assign[v] = fuzzWord(i)
		}
		out := "out"
		for nw.Node(out) != nil {
			out += "_"
		}
		n, err := nw.AddNode(out, vars, e)
		if err != nil {
			t.Fatal(err)
		}
		want := e.EvalBatch(assign)

		c, err := Compile(nw)
		if err != nil {
			t.Fatalf("Compile(%q): %v", s, err)
		}
		fr := c.Prog.NewFrame()
		for _, src := range c.Sources {
			fr.Vals[src] = assign[c.Nodes[src].Name]
		}
		c.Prog.Eval(fr)
		if got := fr.Vals[c.Slot(n)]; got != want {
			t.Fatalf("compiled %q = %016x, EvalBatch = %016x", s, got, want)
		}

		l, err := Lower(e, func(name string) (int, bool) {
			for i, v := range vars {
				if v == name {
					return i, true
				}
			}
			return 0, false
		})
		if err != nil {
			t.Fatalf("Lower(%q): %v", s, err)
		}
		// Bind the arguments to slots in reverse so argument positions
		// and slots differ.
		p := &Program{}
		args := make([]int32, len(vars))
		for i := len(vars) - 1; i >= 0; i-- {
			args[i] = p.NewSlot()
		}
		dst := p.NewSlot()
		p.Emit(l, args, dst)
		fr = p.NewFrame()
		for i, v := range vars {
			fr.Vals[args[i]] = assign[v]
		}
		p.Eval(fr)
		if got := fr.Vals[dst]; got != want {
			t.Fatalf("lowered %q = %016x, EvalBatch = %016x", s, got, want)
		}
	})
}

// TestLowerRejectsUnboundVariable checks that lowering reports a
// variable the binding cannot place instead of reading a stray slot.
func TestLowerRejectsUnboundVariable(t *testing.T) {
	_, err := Lower(logic.MustParse("a*b"), func(name string) (int, bool) { return 0, name == "a" })
	if err == nil {
		t.Fatal("Lower accepted an expression with an unbound variable")
	}
}
