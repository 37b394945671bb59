package subject

import "math/bits"

// Local root signatures: a small integer summarizing the depth-<=2
// neighborhood of a node (its kind, its fanin kinds, and their fanin
// kinds), with NAND2 sibling order canonicalized so that commutative
// child swaps produce the same value. Matchers bucket pattern plans by
// the signatures their roots can embed into; enumeration then consults
// only the bucket of the subject node's signature instead of scanning
// the whole library. Pattern leaves are wildcards (a leaf binds any
// subject node), so a pattern maps to the set of concrete signatures
// obtained by expanding each leaf position over all kinds.
//
// The signature space is tiny: a depth-2 child descriptor takes one of
// NumDescriptors values, and a signature is either an Inv root over
// one descriptor or a Nand2 root over an ordered pair, NumSignatures
// in total. Buckets are therefore plain slices indexed directly.

// Descriptor values for one fanin subtree, depth <= 2:
//
//	0          the child is a source (PI)
//	1+k        the child is an Inv whose fanin has kind code k
//	4+pair     the child is a Nand2 whose fanin kind codes form the
//	           canonical pair with index pair (see pairIndex)
const (
	// NumDescriptors is the number of distinct child descriptors.
	NumDescriptors = 10
	// NumSignatures bounds Signature: Inv roots occupy
	// [0, NumDescriptors), Nand2 roots the rest.
	NumSignatures = NumDescriptors + NumDescriptors*NumDescriptors
)

// kindCode maps a Kind to a dense code 0..2.
func kindCode(k Kind) int {
	switch k {
	case Inv:
		return 1
	case Nand2:
		return 2
	}
	return 0
}

// pairIndex canonicalizes an unordered pair of kind codes into 0..5.
func pairIndex(a, b int) int {
	if a > b {
		a, b = b, a
	}
	// (0,0)=0 (0,1)=1 (0,2)=2 (1,1)=3 (1,2)=4 (2,2)=5
	return a*3 + b - a*(a+1)/2
}

// descriptor summarizes node c and its fanin kinds.
func descriptor(g *Graph, c Node) int {
	switch g.KindOf(c) {
	case Inv:
		return 1 + kindCode(g.KindOf(g.fanin0[c]))
	case Nand2:
		return 4 + pairIndex(kindCode(g.KindOf(g.fanin0[c])), kindCode(g.KindOf(g.fanin1[c])))
	}
	return 0
}

// Signature computes the local root signature of a non-PI subject
// node. PIs have no signature (no match is ever rooted at a source);
// callers must not pass one.
func Signature(g *Graph, n Node) int {
	if g.KindOf(n) == Inv {
		return descriptor(g, g.fanin0[n])
	}
	a, b := descriptor(g, g.fanin0[n]), descriptor(g, g.fanin1[n])
	if a > b {
		a, b = b, a
	}
	return NumDescriptors + a*NumDescriptors + b
}

// patternKindCodes enumerates the kind codes a pattern position can
// take on the subject side: a pattern leaf binds any subject node, a
// concrete pattern node only its own kind.
func patternKindCodes(g *Graph, n Node) []int {
	if g.KindOf(n) == PI {
		return []int{0, 1, 2}
	}
	return []int{kindCode(g.KindOf(n))}
}

// patternDescriptors returns every concrete descriptor a subject child
// can have while remaining locally compatible with pattern child c.
func patternDescriptors(g *Graph, c Node) []int {
	if g.KindOf(c) == PI {
		ds := make([]int, NumDescriptors)
		for i := range ds {
			ds[i] = i
		}
		return ds
	}
	var out []int
	seen := [NumDescriptors]bool{}
	add := func(d int) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	if g.KindOf(c) == Inv {
		for _, k := range patternKindCodes(g, g.fanin0[c]) {
			add(1 + k)
		}
		return out
	}
	for _, k1 := range patternKindCodes(g, g.fanin0[c]) {
		for _, k2 := range patternKindCodes(g, g.fanin1[c]) {
			add(4 + pairIndex(k1, k2))
		}
	}
	return out
}

// PatternSignatures returns, in ascending order, every concrete
// subject signature the pattern rooted at root (in pattern graph pg)
// could possibly match, obtained by expanding leaf positions as
// wildcards. The set is an over-approximation: deeper structure,
// injectivity, or fanout constraints may still reject a candidate,
// but a subject node whose signature is absent can never host a match
// of this pattern.
func PatternSignatures(pg *Graph, root Node) []int {
	var seen [NumSignatures]bool
	if pg.KindOf(root) == Inv {
		for _, d := range patternDescriptors(pg, pg.fanin0[root]) {
			seen[d] = true
		}
	} else {
		d1 := patternDescriptors(pg, pg.fanin0[root])
		d2 := patternDescriptors(pg, pg.fanin1[root])
		for _, a := range d1 {
			for _, b := range d2 {
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				seen[NumDescriptors+lo*NumDescriptors+hi] = true
			}
		}
	}
	var out []int
	for s, ok := range seen {
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// SignatureSet is a set of signatures, one bit per signature.
type SignatureSet [(NumSignatures + 63) / 64]uint64

func (s *SignatureSet) add(sig int) { s[sig>>6] |= 1 << (sig & 63) }

// Len returns the number of signatures in the set.
func (s *SignatureSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ChoiceSignatures returns every signature root can present when each
// structural descent ranges over choice alternatives, exactly as the
// matcher binds them: a fanin position binds any member of the fanin's
// class (or the fanin alone), and so does each fanin position of that
// member. The root itself binds no alternative. The set always holds
// Signature(g, root); with nil choices it holds nothing else.
func ChoiceSignatures(g *Graph, c *Choices, root Node) SignatureSet {
	var set SignatureSet
	if g.KindOf(root) == Inv {
		for ds := choiceDescriptors(g, c, g.fanin0[root]); ds != 0; ds &= ds - 1 {
			set.add(bits.TrailingZeros16(ds))
		}
		return set
	}
	d0 := choiceDescriptors(g, c, g.fanin0[root])
	d1 := choiceDescriptors(g, c, g.fanin1[root])
	for as := d0; as != 0; as &= as - 1 {
		a := bits.TrailingZeros16(as)
		for bs := d1; bs != 0; bs &= bs - 1 {
			lo, hi := a, bits.TrailingZeros16(bs)
			if lo > hi {
				lo, hi = hi, lo
			}
			set.add(NumDescriptors + lo*NumDescriptors + hi)
		}
	}
	return set
}

// choiceDescriptors returns, one bit per descriptor, every descriptor
// a child bound at fanin position f can have under choices.
func choiceDescriptors(g *Graph, c *Choices, f Node) uint16 {
	members := c.Members(f)
	if members == nil {
		return memberDescriptors(g, c, f)
	}
	var ds uint16
	for _, m := range members {
		ds |= memberDescriptors(g, c, m)
	}
	return ds
}

// memberDescriptors returns the descriptors of child n when each of
// its fanin positions binds any choice alternative.
func memberDescriptors(g *Graph, c *Choices, n Node) uint16 {
	switch g.KindOf(n) {
	case Inv:
		var ds uint16
		for ks := choiceKinds(g, c, g.fanin0[n]); ks != 0; ks &= ks - 1 {
			ds |= 1 << (1 + bits.TrailingZeros8(ks))
		}
		return ds
	case Nand2:
		var ds uint16
		k1 := choiceKinds(g, c, g.fanin1[n])
		for as := choiceKinds(g, c, g.fanin0[n]); as != 0; as &= as - 1 {
			for bs := k1; bs != 0; bs &= bs - 1 {
				ds |= 1 << (4 + pairIndex(bits.TrailingZeros8(as), bits.TrailingZeros8(bs)))
			}
		}
		return ds
	}
	return 1 // a source: descriptor 0
}

// choiceKinds returns, one bit per kind code, the kinds of the nodes a
// descent into f can bind.
func choiceKinds(g *Graph, c *Choices, f Node) uint8 {
	members := c.Members(f)
	if members == nil {
		return 1 << kindCode(g.KindOf(f))
	}
	var ks uint8
	for _, m := range members {
		ks |= 1 << kindCode(g.KindOf(m))
	}
	return ks
}
