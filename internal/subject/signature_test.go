package subject

import (
	"fmt"
	"math/rand"
	"testing"
)

// Every non-PI node's signature must land in the documented range,
// with Inv roots below NumDescriptors and Nand2 roots above.
func TestSignatureRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGraph("sig", true)
	var pool []Node
	for i := 0; i < 5; i++ {
		pi, _ := g.AddPI(fmt.Sprintf("i%d", i))
		pool = append(pool, pi)
	}
	for g.NumNodes() < 150 {
		if rng.Intn(3) == 0 {
			pool = append(pool, g.Not(pool[rng.Intn(len(pool))]))
		} else {
			x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if x == y {
				continue
			}
			pool = append(pool, g.Nand(x, y))
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := Node(i)
		if g.KindOf(n) == PI {
			continue
		}
		s := Signature(g, n)
		if s < 0 || s >= NumSignatures {
			t.Fatalf("node %v: signature %d out of [0, %d)", n, s, NumSignatures)
		}
		if g.KindOf(n) == Inv && s >= NumDescriptors {
			t.Errorf("node %v: Inv signature %d in the Nand2 range", n, s)
		}
		if g.KindOf(n) == Nand2 && s < NumDescriptors {
			t.Errorf("node %v: Nand2 signature %d in the Inv range", n, s)
		}
	}
}

// Commutative canonicalization: swapping NAND fanin order — at the
// root or inside a child — must not change the signature.
func TestSignatureCommutative(t *testing.T) {
	build := func(swapRoot, swapChild bool) int {
		// Unshared graph so both operand orders are constructible.
		g := NewGraph("c", false)
		a, _ := g.AddPI("a")
		b, _ := g.AddPI("b")
		c, _ := g.AddPI("c")
		var inner Node
		if swapChild {
			inner = g.Nand(b, a)
		} else {
			inner = g.Nand(a, b)
		}
		var root Node
		if swapRoot {
			root = g.Nand(g.Not(c), inner)
		} else {
			root = g.Nand(inner, g.Not(c))
		}
		return Signature(g, root)
	}
	ref := build(false, false)
	for _, cfg := range []struct{ r, c bool }{{true, false}, {false, true}, {true, true}} {
		if s := build(cfg.r, cfg.c); s != ref {
			t.Errorf("swap root=%v child=%v: signature %d != %d", cfg.r, cfg.c, s, ref)
		}
	}
}

// pairIndex must be a bijection from unordered kind-code pairs onto
// 0..5.
func TestPairIndexCanonical(t *testing.T) {
	seen := map[int]bool{}
	for a := 0; a < 3; a++ {
		for b := a; b < 3; b++ {
			p := pairIndex(a, b)
			if p < 0 || p > 5 {
				t.Fatalf("pairIndex(%d,%d) = %d out of range", a, b, p)
			}
			if seen[p] {
				t.Fatalf("pairIndex(%d,%d) = %d collides", a, b, p)
			}
			seen[p] = true
			if q := pairIndex(b, a); q != p {
				t.Errorf("pairIndex not symmetric: (%d,%d)=%d, (%d,%d)=%d", a, b, p, b, a, q)
			}
		}
	}
}

// PatternSignatures must be sorted, in range, and a superset filter:
// any subject node a pattern actually matches carries a signature the
// pattern advertises. The leaf-wildcard expansion is checked on the
// universal patterns (a bare NAND2 / INV must match every node of the
// corresponding kind).
func TestPatternSignaturesWildcardExpansion(t *testing.T) {
	// Pattern graphs use PI leaves as wildcards.
	pg := NewGraph("pat", false)
	x, _ := pg.AddPI("x")
	y, _ := pg.AddPI("y")
	nandPat := pg.Nand(x, y)
	invPat := pg.Not(x)

	nandSigs := PatternSignatures(pg, nandPat)
	invSigs := PatternSignatures(pg, invPat)
	for name, sigs := range map[string][]int{"nand": nandSigs, "inv": invSigs} {
		for i, s := range sigs {
			if s < 0 || s >= NumSignatures {
				t.Fatalf("%s: signature %d out of range", name, s)
			}
			if i > 0 && sigs[i-1] >= s {
				t.Fatalf("%s: signatures not strictly ascending: %v", name, sigs)
			}
		}
	}
	// A bare NAND2 pattern reaches all 55 canonical Nand2 signatures
	// (unordered pairs of 10 descriptors); a bare INV all 10 Inv ones.
	if want := NumDescriptors * (NumDescriptors + 1) / 2; len(nandSigs) != want {
		t.Errorf("bare NAND2 pattern advertises %d signatures, want %d", len(nandSigs), want)
	}
	if len(invSigs) != NumDescriptors {
		t.Errorf("bare INV pattern advertises %d signatures, want %d", len(invSigs), NumDescriptors)
	}

	// Superset property on a random subject graph: every node's
	// signature appears in the matching bare pattern's advertisement.
	inSet := func(sigs []int, s int) bool {
		for _, v := range sigs {
			if v == s {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(17))
	g := NewGraph("subj", true)
	var pool []Node
	for i := 0; i < 4; i++ {
		pi, _ := g.AddPI(fmt.Sprintf("i%d", i))
		pool = append(pool, pi)
	}
	for g.NumNodes() < 80 {
		if rng.Intn(3) == 0 {
			pool = append(pool, g.Not(pool[rng.Intn(len(pool))]))
		} else {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if a == b {
				continue
			}
			pool = append(pool, g.Nand(a, b))
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := Node(i)
		switch g.KindOf(n) {
		case Nand2:
			if !inSet(nandSigs, Signature(g, n)) {
				t.Errorf("node %v: signature %d missing from bare NAND2 set", n, Signature(g, n))
			}
		case Inv:
			if !inSet(invSigs, Signature(g, n)) {
				t.Errorf("node %v: signature %d missing from bare INV set", n, Signature(g, n))
			}
		}
	}
}

// Deeper pattern structure must narrow the advertised set: a pattern
// with a concrete (non-leaf) child advertises strictly fewer
// signatures than the bare root.
func TestPatternSignaturesNarrowWithStructure(t *testing.T) {
	pg := NewGraph("pat", false)
	x, _ := pg.AddPI("x")
	y, _ := pg.AddPI("y")
	bare := pg.Nand(x, y)
	deep := pg.Nand(pg.Not(x), y) // one child pinned to Inv
	if b, d := len(PatternSignatures(pg, bare)), len(PatternSignatures(pg, deep)); d >= b {
		t.Errorf("structured pattern advertises %d signatures, bare %d — no narrowing", d, b)
	}
}

// ChoiceSignatures without choices is exactly the structural signature;
// with choices it always keeps that signature, stays in the root kind's
// range, and adds the signature a member of different shape presents.
func TestChoiceSignatures(t *testing.T) {
	g := NewGraph("choicesig", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	deep := g.Nand(g.Not(g.Nand(a, b)), c) // a Nand2 over (Inv, PI)
	flat := g.Nand(a, b)                   // a Nand2 over (PI, PI)
	root := g.Not(flat)
	var want SignatureSet
	want.add(Signature(g, root))
	if got := ChoiceSignatures(g, nil, root); got != want {
		t.Fatalf("nil choices: got %v, want %v", got, want)
	}
	ch := NewChoices()
	if err := ch.Declare(flat, deep); err != nil {
		t.Fatal(err)
	}
	want.add(descriptor(g, deep)) // an Inv root's signature is its child's descriptor
	if got := ChoiceSignatures(g, ch, root); got != want || got.Len() != 2 {
		t.Errorf("with choices: got %v, want %v", got, want)
	}
	// A Nand2 root over a class member stays in the Nand2 range and
	// keeps its structural signature.
	top := g.Nand(root, c)
	set := ChoiceSignatures(g, ch, top)
	for sig := 0; sig < NumDescriptors; sig++ {
		if hasSignature(set, sig) {
			t.Errorf("Nand2 root presents Inv-range signature %d", sig)
		}
	}
	if !hasSignature(set, Signature(g, top)) {
		t.Error("choice set lost the structural signature")
	}
}

func hasSignature(s SignatureSet, sig int) bool { return s[sig>>6]&(1<<(sig&63)) != 0 }
