package match

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// matchSet collects the canonical signatures of all matches at every
// node of a graph, per node, in yield order.
func matchSet(m *Matcher, g *subject.Graph, class Class) [][]string {
	out := make([][]string, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		for _, mt := range m.AllMatches(g, n, class) {
			out[i] = append(out[i], signature(mt))
		}
	}
	return out
}

func equalSets(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Property: the root-signature index is a pure pre-filter — with and
// without it, enumeration yields the same matches in the same order at
// every node, while trying strictly fewer pattern plans.
func TestSignatureIndexEquivalence(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	indexed := NewMatcher(pats)
	full := NewMatcher(pats, WithoutSignatureIndex())
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g, _ := randomSubject(rng, 4+rng.Intn(4), 30+rng.Intn(40))
		for _, class := range []Class{Exact, Standard, Extended} {
			i0, f0 := indexed.PatternsTried(), full.PatternsTried()
			a := matchSet(indexed, g, class)
			b := matchSet(full, g, class)
			if !equalSets(a, b) {
				t.Fatalf("trial %d class %v: indexed and full enumerations differ", trial, class)
			}
			iTried, fTried := indexed.PatternsTried()-i0, full.PatternsTried()-f0
			if iTried >= fTried {
				t.Errorf("trial %d class %v: index tried %d plans, full scan %d — no reduction",
					trial, class, iTried, fTried)
			}
		}
	}
}

// matchDigests fingerprints the exact yield sequence at every node of
// g: pattern identity, leaves in pin order and covered nodes in binding
// order, hashed in enumeration order so equal digests mean equal
// sequences without holding every match in memory.
func matchDigests(m *Matcher, g *subject.Graph, class Class) []uint64 {
	out := make([]uint64, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		h := fnv.New64a()
		m.Enumerate(g, n, class, func(mt *Match) bool {
			fmt.Fprintf(h, "%p|%v|%v;", mt.Pattern, mt.Leaves, mt.Covered)
			return true
		})
		out[i] = h.Sum64()
	}
	return out
}

// With choices set the index widens to every signature a root can
// present through its alternatives: enumeration must still match the
// full root-kind scan exactly (same matches, same order) at every node,
// while trying strictly fewer plans. Covers a hand-built class of two
// conjunction structures, random graphs with random classes (members
// of unrelated shape, sources included) and the chain/balanced classes
// of real circuits.
func TestSignatureIndexUnderChoices(t *testing.T) {
	type subjectCase struct {
		name string
		g    *subject.Graph
		ch   *subject.Choices
	}
	// Two structures for a 3-way conjunction head, one class.
	g := subject.NewGraph("conj3", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	n1 := g.Nand(g.Not(g.Nand(a, b)), c)
	n2 := g.Nand(a, g.Not(g.Nand(b, c)))
	g.Not(n1)
	ch := subject.NewChoices()
	if err := ch.Declare(n1, n2); err != nil {
		t.Fatal(err)
	}
	cases := []subjectCase{{"conj3", g, ch}}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		g, pool := randomSubject(rng, 4+rng.Intn(4), 40+rng.Intn(40))
		// Disjoint random pairs: members of unrelated shape (sources
		// included) without merged classes, whose descents multiply
		// the Extended match count.
		ch := subject.NewChoices()
		perm := rng.Perm(len(pool))
		for k := 0; k < 4+rng.Intn(8); k++ {
			if err := ch.Declare(pool[perm[2*k]], pool[perm[2*k+1]]); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, subjectCase{fmt.Sprintf("random%d", trial), g, ch})
	}
	for _, c := range []struct {
		name string
		nw   func() *network.Network
	}{{"C432", bench.C432}, {"C880", bench.C880}} {
		g, ch, err := subject.FromNetworkWithChoices(c.nw())
		if err != nil {
			t.Fatal(err)
		}
		if ch.NumClasses() == 0 {
			t.Fatalf("%s: no choice classes", c.name)
		}
		cases = append(cases, subjectCase{c.name, g, ch})
	}
	for _, lib := range []*genlib.Library{libgen.Lib2(), libgen.Lib441(), libgen.Lib443()} {
		pats := compile(t, lib, true)
		indexed := NewMatcher(pats)
		full := NewMatcher(pats, WithoutSignatureIndex())
		for _, sc := range cases {
			indexed.SetChoices(sc.ch)
			full.SetChoices(sc.ch)
			for _, class := range []Class{Exact, Standard, Extended} {
				i0, f0 := indexed.PatternsTried(), full.PatternsTried()
				a := matchDigests(indexed, sc.g, class)
				b := matchDigests(full, sc.g, class)
				for n := range a {
					if a[n] != b[n] {
						t.Fatalf("%s/%s/%v node %d: indexed and full-scan enumerations differ",
							lib.Name, sc.name, class, n)
					}
				}
				if iTried, fTried := indexed.PatternsTried()-i0, full.PatternsTried()-f0; iTried >= fTried {
					t.Errorf("%s/%s/%v: index tried %d plans, full scan %d — no reduction",
						lib.Name, sc.name, class, iTried, fTried)
				}
			}
		}
	}
}

// Clone aliasing contract: two clones enumerating concurrently on the
// same graph yield exactly the parent's match sets. Run with -race to
// catch any shared scratch state (binding, usedBy stamps, epochs).
func TestCloneConcurrentEnumeration(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	parent := NewMatcher(pats)
	rng := rand.New(rand.NewSource(11))
	g, _ := randomSubject(rng, 6, 120)
	want := matchSet(parent, g, Standard)

	const clones = 4
	got := make([][][]string, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = matchSet(parent.Clone(), g, Standard)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clones; i++ {
		if !equalSets(got[i], want) {
			t.Errorf("clone %d produced a different match set", i)
		}
	}
}

// Clones share the compiled plans and the signature index but not the
// tried counter.
func TestClonePatternsTriedIndependent(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib441(), true))
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	n := g.Nand(a, b)
	m.AllMatches(g, n, Standard)
	if m.PatternsTried() == 0 {
		t.Fatal("parent counted no pattern trials")
	}
	c := m.Clone()
	if c.PatternsTried() != 0 {
		t.Errorf("clone starts with %d trials, want 0", c.PatternsTried())
	}
	c.AllMatches(g, n, Standard)
	if c.PatternsTried() != m.PatternsTried() {
		t.Errorf("clone tried %d, parent %d — same work should count the same",
			c.PatternsTried(), m.PatternsTried())
	}
}

// The index buckets stay in ascending pattern order, which is what
// keeps tie-breaking identical to the full scan.
func TestSignatureIndexBucketOrder(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib443(), true))
	for sig, bucket := range m.sigIndex {
		if !sort.SliceIsSorted(bucket, func(i, j int) bool { return bucket[i] < bucket[j] }) {
			t.Errorf("signature %d: bucket not in ascending pattern order", sig)
		}
	}
}
