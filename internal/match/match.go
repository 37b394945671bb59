// Package match implements Rudell's graph-match algorithm: structural
// matching of library pattern graphs against a NAND2/INV subject graph
// rooted at a node, in the three match classes of the paper:
//
//	Exact    (Def. 2) — one-to-one, and every internally covered
//	         subject node's fanout count equals the pattern node's;
//	         the class used by conventional tree covering.
//	Standard (Def. 1) — one-to-one, but internally covered nodes may
//	         have fanout outside the match.
//	Extended (Def. 3) — the one-to-one requirement is dropped, so the
//	         match may unfold the subject DAG (Figure 1).
//
// NAND2 inputs are commutative: both child orders are explored, except
// that when the two pattern children are isomorphic (identical shape
// hash, which includes pin delay classes) only one order is tried —
// the skipped order can only produce cost-equivalent matches.
package match

import (
	"fmt"
	"math"
	"math/bits"

	"dagcover/internal/subject"
)

// Class selects the match semantics.
type Class int

const (
	// Exact is Definition 2: the tree-covering match class.
	Exact Class = iota
	// Standard is Definition 1: the paper's default DAG-covering class
	// (footnote 3).
	Standard
	// Extended is Definition 3: allows subject-node duplication during
	// matching.
	Extended
)

func (c Class) String() string {
	switch c {
	case Exact:
		return "exact"
	case Standard:
		return "standard"
	case Extended:
		return "extended"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Match is one successful embedding of a pattern at a subject node.
type Match struct {
	Pattern *subject.Pattern
	Root    subject.Node
	// Leaves[i] is the subject node feeding gate pin i.
	Leaves []subject.Node
	// Covered lists the distinct subject nodes bound to internal
	// (non-leaf) pattern nodes; Root is always among them.
	Covered []subject.Node
}

// Matcher enumerates matches of a fixed pattern set. A Matcher is not
// safe for concurrent use; create one per goroutine (patterns may be
// shared).
type Matcher struct {
	Patterns []*subject.Pattern
	// shapes[k] is the shape table of pattern k, indexed by pattern
	// node handle.
	shapes [][]uint64
	// prune enables symmetric-sibling pruning (default true).
	prune bool
	// index enables the root-signature index (default true).
	index bool
	// choices lets structural descent cross into functionally
	// equivalent alternative cones (mapping-graph style, §4).
	choices *subject.Choices

	// plans holds each pattern's precompiled matching program.
	plans []plan
	// sigIndex buckets pattern indices by the subject root signatures
	// they can embed into (subject.Signature); each bucket preserves
	// library order, so enumeration through the index yields matches
	// in exactly the full-scan order. Shared by clones (immutable).
	sigIndex [][]int32
	// sigMask holds the same buckets as pattern bitmasks, maskWords
	// words per signature, so the buckets of every signature a root
	// can present through choice alternatives union in one OR pass
	// and iterate in ascending pattern order. Shared by clones
	// (immutable); union is the per-matcher scratch for that OR.
	sigMask   []uint64
	maskWords int
	union     []uint64
	// tried counts pattern plans attempted by Enumerate since
	// construction (or Clone). Read it through PatternsTried.
	tried int
	// bucketTried counts plans attempted per subject root signature
	// (index paths only; allocated when the index is on). Read it
	// through SigBucketsTried.
	bucketTried []uint32

	// memo, when non-nil and memoOn, caches complete enumerations by
	// canonical cone key (see memo.go); shared across clones and — via
	// a compiled library — across requests. memoDepth is the cone depth
	// keys are computed at: the maximum compiled pattern depth, floored
	// at the signature depth (2) so a key also determines the plans the
	// signature index would try.
	memo      *Memo
	memoOn    bool
	memoDepth int
	cone      *subject.ConeEncoder
	// memoHits/memoMisses count this matcher's table consultations
	// since construction, Clone, or Reset (the table keeps its own
	// cumulative totals). Read through MemoHits/MemoMisses.
	memoHits   int
	memoMisses int
	// recording state of an in-flight miss: the recipe stream under
	// construction and whether every binding resolved to a cone index.
	recStream []int32
	recOK     bool
	recording bool
	curPatIdx int

	// scratch (reused across calls; a Matcher is single-goroutine)
	binding []subject.Node
	stepSub []subject.Node
	stepOrd []uint8
	// registers of the in-flight enumeration
	g            *subject.Graph
	curPattern   *subject.Pattern
	curPlan      *plan
	curClass     Class
	curInjective bool
	curRoot      subject.Node
	curOut       *Match
	curYield     func(*Match) bool
	// usedBy implements the one-to-one check without a map: it is
	// indexed by subject node handle and an entry is valid only when
	// its stamp equals the current epoch, so no clearing is needed.
	usedBy    []subject.Node
	usedStamp []uint32
	epoch     uint32
}

// SetChoices enables choice-aware matching: whenever the matcher
// descends into a subject node that belongs to an equivalence class,
// every member of the class is tried. Pass nil to disable.
func (m *Matcher) SetChoices(c *subject.Choices) { m.choices = c }

// Choices returns the classes set by SetChoices (nil when disabled).
func (m *Matcher) Choices() *subject.Choices { return m.choices }

// alts returns the candidate subject nodes for a structural descent
// into sn: its choice-class members, or nil.
func (m *Matcher) alts(sn subject.Node) []subject.Node {
	if m.choices != nil {
		if members := m.choices.Members(sn); members != nil {
			return members
		}
	}
	return nil
}

// Option configures a Matcher.
type Option func(*Matcher)

// WithoutSymmetryPruning explores both child orders even for
// isomorphic pattern children; used to validate the pruning.
func WithoutSymmetryPruning() Option { return func(m *Matcher) { m.prune = false } }

// WithoutSignatureIndex disables the root-signature pre-filter and
// scans every pattern with a matching root kind, as the original
// implementation did; used to validate the index.
func WithoutSignatureIndex() Option { return func(m *Matcher) { m.index = false } }

// WithMemo attaches a structural match memo table (see NewMemo).
// Matchers constructed or cloned with the same table warm each other.
func WithMemo(memo *Memo) Option { return func(m *Matcher) { m.memo = memo } }

// NewMatcher builds a matcher over the compiled pattern set.
func NewMatcher(patterns []*subject.Pattern, opts ...Option) *Matcher {
	m := &Matcher{
		Patterns: patterns,
		prune:    true,
		index:    true,
	}
	for _, o := range opts {
		o(m)
	}
	m.shapes = make([][]uint64, len(patterns))
	m.plans = make([]plan, len(patterns))
	maxNodes, maxSteps := 0, 0
	m.memoDepth = 2 // floor: a key must determine the depth-2 signature
	for i, p := range patterns {
		m.shapes[i] = patternShapes(p)
		m.plans[i] = compilePlan(p, m.shapes[i], m.prune)
		if p.Graph.NumNodes() > maxNodes {
			maxNodes = p.Graph.NumNodes()
		}
		if len(m.plans[i].steps) > maxSteps {
			maxSteps = len(m.plans[i].steps)
		}
		if p.Depth > m.memoDepth {
			m.memoDepth = p.Depth
		}
	}
	if m.memo != nil {
		m.memoOn = true
		m.cone = subject.NewConeEncoder()
	}
	m.binding = make([]subject.Node, maxNodes)
	m.stepSub = make([]subject.Node, maxSteps)
	m.stepOrd = make([]uint8, maxSteps)
	if m.index {
		m.sigIndex = make([][]int32, subject.NumSignatures)
		for i, p := range patterns {
			for _, sig := range subject.PatternSignatures(p.Graph, p.Root) {
				m.sigIndex[sig] = append(m.sigIndex[sig], int32(i))
			}
		}
		m.maskWords = (len(patterns) + 63) / 64
		m.sigMask = make([]uint64, subject.NumSignatures*m.maskWords)
		for sig, bucket := range m.sigIndex {
			mask := m.sigMask[sig*m.maskWords:]
			for _, k := range bucket {
				mask[k>>6] |= 1 << (k & 63)
			}
		}
		m.union = make([]uint64, m.maskWords)
		m.bucketTried = make([]uint32, subject.NumSignatures)
	}
	return m
}

// Clone returns an independent matcher sharing the immutable pattern
// data (patterns, plans, signature index); use for concurrent
// enumeration. The clone's PatternsTried counter starts at zero.
func (m *Matcher) Clone() *Matcher {
	c := &Matcher{
		Patterns:  m.Patterns,
		shapes:    m.shapes,
		plans:     m.plans,
		prune:     m.prune,
		index:     m.index,
		sigIndex:  m.sigIndex,
		sigMask:   m.sigMask,
		maskWords: m.maskWords,
		choices:   m.choices,
		memo:      m.memo, // shared: clones warm one table
		memoOn:    m.memoOn,
		memoDepth: m.memoDepth,
		binding:   make([]subject.Node, len(m.binding)),
		stepSub:   make([]subject.Node, len(m.stepSub)),
		stepOrd:   make([]uint8, len(m.stepOrd)),
	}
	if m.index {
		c.union = make([]uint64, m.maskWords)
		c.bucketTried = make([]uint32, subject.NumSignatures)
	}
	if c.memo != nil {
		c.cone = subject.NewConeEncoder()
	}
	return c
}

// PatternsTried reports how many pattern plans this matcher has
// attempted across all Enumerate calls since construction (or Clone).
// The root-signature index lowers it by skipping plans whose local
// structure cannot embed at the queried root.
func (m *Matcher) PatternsTried() int { return m.tried }

// SigBucketsTried returns a copy of the per-root-signature counts of
// pattern plans attempted through the signature index since
// construction, Clone, or Reset — the probe attribution the tracer
// reports. With choices set, the plans tried from the union of every
// signature the root can present are all attributed to the root's own
// structural signature. Returns nil when the index is off.
func (m *Matcher) SigBucketsTried() []uint32 {
	if m.bucketTried == nil {
		return nil
	}
	return append([]uint32(nil), m.bucketTried...)
}

// Memo returns the attached memo table (nil when none).
func (m *Matcher) Memo() *Memo { return m.memo }

// SetMemo attaches (or, with nil, detaches) a memo table and enables
// memoization when one is attached.
func (m *Matcher) SetMemo(memo *Memo) {
	m.memo = memo
	m.memoOn = memo != nil
	if memo != nil && m.cone == nil {
		m.cone = subject.NewConeEncoder()
	}
}

// SetMemoEnabled toggles memoization without detaching the table, so
// a single run can opt out while the shared table keeps its entries.
// No effect when no table is attached.
func (m *Matcher) SetMemoEnabled(on bool) { m.memoOn = on && m.memo != nil }

// MemoEnabled reports whether enumerations will consult a memo table.
func (m *Matcher) MemoEnabled() bool { return m.memoActive() }

// MemoHits reports this matcher's memo-table hits since construction,
// Clone, or Reset.
func (m *Matcher) MemoHits() int { return m.memoHits }

// MemoMisses reports this matcher's memo-table misses since
// construction, Clone, or Reset.
func (m *Matcher) MemoMisses() int { return m.memoMisses }

// memoActive reports whether the next Enumerate takes the memo path.
// Choice-aware matching bypasses the memo: descent may leave the
// structural cone, so the cone key no longer determines the match set
// (the signature index copes by widening to the root's choice
// signature set, see enumerateWalk; a cone key has no such widening).
func (m *Matcher) memoActive() bool {
	return m.memo != nil && m.memoOn && m.choices == nil && m.memoDepth <= maxMemoDepth
}

// Reset clears the matcher's mutable scratch and counters without
// recompiling pattern plans, making it behave exactly like a fresh
// NewMatcher/Clone: PatternsTried restarts at zero and no subject-graph
// references from earlier enumerations are retained (so pooled matchers
// don't pin finished requests' graphs in memory). The compiled plans,
// shapes and signature index are untouched. Choices set with
// SetChoices are cleared; re-set them after Reset if needed.
func (m *Matcher) Reset() {
	m.tried = 0
	for i := range m.bucketTried {
		m.bucketTried[i] = 0
	}
	m.choices = nil
	for i := range m.binding {
		m.binding[i] = subject.None
	}
	for i := range m.stepSub {
		m.stepSub[i] = subject.None
	}
	for i := range m.stepOrd {
		m.stepOrd[i] = 0
	}
	// Drop the one-to-one table entirely: truncate so a zero epoch can
	// never alias a stale stamp.
	for i := range m.usedStamp {
		m.usedBy[i] = subject.None
		m.usedStamp[i] = 0
	}
	m.usedBy = m.usedBy[:0]
	m.usedStamp = m.usedStamp[:0]
	m.epoch = 0
	m.g = nil
	m.curPattern = nil
	m.curPlan = nil
	m.curClass = 0
	m.curInjective = false
	m.curRoot = subject.None
	m.curOut = nil
	m.curYield = nil
	// The memo table itself survives Reset by design — it holds cone
	// indices, never node references, so it pins no graphs and stays
	// warm for the next request. The per-run counters and the encoder's
	// graph-bearing scratch do not.
	m.memoHits = 0
	m.memoMisses = 0
	m.recStream = m.recStream[:0]
	m.recOK = false
	m.recording = false
	m.curPatIdx = 0
	if m.cone != nil {
		m.cone.Reset()
	}
	if m.memo != nil {
		m.memoOn = true
	}
}

// used reports the pattern node currently bound to sn, if any.
func (m *Matcher) used(sn subject.Node) (subject.Node, bool) {
	if int(sn) >= len(m.usedBy) || m.usedStamp[sn] != m.epoch {
		return subject.None, false
	}
	return m.usedBy[sn], true
}

func (m *Matcher) setUsed(sn, pn subject.Node) {
	if int(sn) >= len(m.usedBy) {
		grow := int(sn) + 1 - len(m.usedBy)
		m.usedBy = append(m.usedBy, make([]subject.Node, grow)...)
		m.usedStamp = append(m.usedStamp, make([]uint32, grow)...)
	}
	m.usedBy[sn] = pn
	m.usedStamp[sn] = m.epoch
}

func (m *Matcher) clearUsed(sn subject.Node) {
	if int(sn) < len(m.usedStamp) {
		m.usedStamp[sn] = 0
	}
}

// patternShapes computes a structural hash per pattern node. Leaf
// shapes incorporate the pin's intrinsic delay so that two leaves are
// shape-equal only when their pin delays are interchangeable. Nodes
// with pattern fanout >= 2 (shared leaves or shared internal nodes of
// DAG patterns) are salted with their identity: a swap of two sibling
// subtrees is a pattern automorphism — and pruning the swapped order
// is sound — only when every shared node maps to itself, which equal
// shapes then guarantee.
func patternShapes(p *subject.Pattern) []uint64 {
	pg := p.Graph
	sh := make([]uint64, pg.NumNodes())
	for i := 0; i < pg.NumNodes(); i++ { // topological order
		n := subject.Node(i)
		switch pg.KindOf(n) {
		case subject.PI:
			pin := p.LeafPin(n)
			d := p.Gate.Pins[pin].Intrinsic()
			sh[n] = mix(0x9e3779b97f4a7c15, math.Float64bits(d))
		case subject.Inv:
			sh[n] = mix(0x85ebca6b3c6ef372, sh[pg.Fanin0(n)])
		case subject.Nand2:
			a, b := sh[pg.Fanin0(n)], sh[pg.Fanin1(n)]
			if a > b {
				a, b = b, a
			}
			sh[n] = mix(mix(0xc2b2ae3d27d4eb4f, a), b)
		}
		if pg.FanoutCount(n) >= 2 {
			sh[n] = mix(sh[n], uint64(n)+0xdeadbeef)
		}
	}
	return sh
}

func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Enumerate calls yield for every match of every pattern rooted at
// root (a node of subject graph g) under the given class. The *Match
// passed to yield is reused; copy it (and its slices) if retained.
// Enumeration stops early when yield returns false.
func (m *Matcher) Enumerate(g *subject.Graph, root subject.Node, class Class, yield func(*Match) bool) {
	if g.KindOf(root) == subject.PI {
		return
	}
	m.g = g
	out := &Match{Root: root}
	if m.memoActive() {
		m.enumerateMemo(root, class, out, yield)
		return
	}
	m.enumerateWalk(root, class, out, yield)
}

// enumerateWalk is the uncached enumeration. It reports whether the
// enumeration ran to completion (false when yield stopped it early) —
// the recording path must not insert a truncated recipe list.
func (m *Matcher) enumerateWalk(root subject.Node, class Class, out *Match, yield func(*Match) bool) bool {
	if m.index {
		// With choices, a descent may bind a class member whose local
		// shape differs from the structural child's, so the root can
		// present several signatures; a pattern can match only if one
		// of them is in its bucket. Trying the union in ascending
		// pattern order keeps the full scan's yield order.
		sig := subject.Signature(m.g, root)
		if m.choices != nil {
			if set := subject.ChoiceSignatures(m.g, m.choices, root); set.Len() > 1 {
				return m.enumerateUnion(&set, sig, root, class, out, yield)
			}
		}
		for _, k := range m.sigIndex[sig] {
			m.tried++
			m.bucketTried[sig]++
			if !m.tryPattern(int(k), root, class, out, yield) {
				return false
			}
		}
		return true
	}
	rootKind := m.g.KindOf(root)
	for k, p := range m.Patterns {
		if p.Graph.KindOf(p.Root) != rootKind {
			continue
		}
		m.tried++
		if !m.tryPattern(k, root, class, out, yield) {
			return false
		}
	}
	return true
}

// enumerateUnion tries, in ascending pattern order, every pattern in
// the bucket of some signature in set, attributing the plans to the
// root's structural signature sig.
func (m *Matcher) enumerateUnion(set *subject.SignatureSet, sig int, root subject.Node, class Class, out *Match, yield func(*Match) bool) bool {
	u := m.union
	clear(u)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			s := w*64 + bits.TrailingZeros64(word)
			for i, v := range m.sigMask[s*m.maskWords : (s+1)*m.maskWords] {
				u[i] |= v
			}
		}
	}
	for w, word := range u {
		for ; word != 0; word &= word - 1 {
			m.tried++
			m.bucketTried[sig]++
			if !m.tryPattern(w*64+bits.TrailingZeros64(word), root, class, out, yield) {
				return false
			}
		}
	}
	return true
}

// memoKeyTag separates key spaces that enumerate differently over the
// same cone: the match class (Extended drops injectivity, Exact adds
// fanout checks) and whether the signature index chose the plan list
// (the recorded tried count depends on it).
func memoKeyTag(class Class, index bool) byte {
	tag := byte(class) << 1
	if index {
		tag |= 1
	}
	return tag
}

// enumerateMemo is the memoized enumeration: compute the root's cone
// key, replay the recorded recipes on a hit, or run and record the
// ordinary walk on a miss.
func (m *Matcher) enumerateMemo(root subject.Node, class Class, out *Match, yield func(*Match) bool) {
	key, nodes := m.cone.Encode(m.g, root, m.memoDepth, class == Exact, memoKeyTag(class, m.index))
	if stream, tried, ok := m.memo.lookup(key); ok {
		m.memoHits++
		m.tried += tried
		if m.index && m.bucketTried != nil {
			// Attribute the skipped plans to the root's signature bucket
			// exactly as the walk would have.
			m.bucketTried[subject.Signature(m.g, root)] += uint32(tried)
		}
		m.replay(stream, nodes, out, yield)
		return
	}
	m.memoMisses++
	m.recStream = m.recStream[:0]
	m.recOK = true
	m.recording = true
	tried0 := m.tried
	completed := m.enumerateWalk(root, class, out, yield)
	m.recording = false
	if completed && m.recOK {
		m.memo.insert(key, m.recStream, m.tried-tried0)
	}
}

// replay resolves a recorded recipe stream against the current cone's
// nodes and yields the matches in recorded (= fresh enumeration)
// order.
func (m *Matcher) replay(stream []int32, nodes []subject.Node, out *Match, yield func(*Match) bool) {
	for i := 0; i < len(stream); {
		p := m.Patterns[stream[i]]
		nCov := int(stream[i+1])
		i += 2
		out.Pattern = p
		out.Leaves = out.Leaves[:0]
		for k := 0; k < p.Gate.NumInputs(); k++ {
			out.Leaves = append(out.Leaves, nodes[stream[i+k]])
		}
		i += p.Gate.NumInputs()
		out.Covered = out.Covered[:0]
		for k := 0; k < nCov; k++ {
			out.Covered = append(out.Covered, nodes[stream[i+k]])
		}
		i += nCov
		if !yield(out) {
			return
		}
	}
}

// record appends the just-completed match to the in-flight recipe
// stream as cone indices. A binding outside the encoded cone (which
// the soundness argument in subject/cone.go rules out, but a defensive
// check is cheap) poisons the recording instead of a wrong entry.
func (m *Matcher) record(out *Match) {
	if !m.recOK {
		return
	}
	m.recStream = append(m.recStream, int32(m.curPatIdx), int32(len(out.Covered)))
	for _, n := range out.Leaves {
		idx := m.cone.ConeIndex(n)
		if idx < 0 {
			m.recOK = false
			return
		}
		m.recStream = append(m.recStream, idx)
	}
	for _, n := range out.Covered {
		idx := m.cone.ConeIndex(n)
		if idx < 0 {
			m.recOK = false
			return
		}
		m.recStream = append(m.recStream, idx)
	}
}

// AllMatches collects copies of every match at root.
func (m *Matcher) AllMatches(g *subject.Graph, root subject.Node, class Class) []*Match {
	var out []*Match
	m.Enumerate(g, root, class, func(mt *Match) bool {
		cp := &Match{
			Pattern: mt.Pattern,
			Root:    mt.Root,
			Leaves:  append([]subject.Node(nil), mt.Leaves...),
			Covered: append([]subject.Node(nil), mt.Covered...),
		}
		out = append(out, cp)
		return true
	})
	return out
}

// tryPattern enumerates embeddings of pattern k at subject node s by
// running the pattern's precompiled plan with allocation-free
// recursive backtracking. Returns false if yield requested a stop.
func (m *Matcher) tryPattern(k int, s subject.Node, class Class, out *Match, yield func(*Match) bool) bool {
	p := m.Patterns[k]
	m.curPattern = p
	m.curPatIdx = k
	m.curPlan = &m.plans[k]
	m.curClass = class
	m.curInjective = class != Extended
	m.curRoot = s
	m.curOut = out
	m.curYield = yield
	m.epoch++
	if m.epoch == 0 {
		// Stamp wrap: everything stamped in the previous 2^32-1 epochs
		// must stop looking current.
		clear(m.usedStamp)
		m.epoch = 1
	}
	return m.matchStep(0)
}

// matchStep executes plan step pi; returns false to stop all
// enumeration (yield asked to), true to continue exploring.
func (m *Matcher) matchStep(pi int) bool {
	steps := m.curPlan.steps
	if pi == len(steps) {
		return m.complete()
	}
	st := &steps[pi]
	g := m.g
	pg := m.curPattern.Graph
	var base subject.Node
	rootStep := st.parent < 0
	if rootStep {
		base = m.curRoot
	} else {
		ps := m.stepSub[st.parent]
		slot := st.slot
		if m.stepOrd[st.parent] == 1 {
			slot ^= 1
		}
		base = g.Fanin(ps, slot)
	}
	// Choice alternatives apply to descents only: the root binds the
	// node it was asked about (alternatives are realized through the
	// mapper's per-class label merging).
	var cands []subject.Node
	if !rootStep {
		cands = m.alts(base)
	}
	single := [1]subject.Node{base}
	if cands == nil {
		cands = single[:]
	}
	pn := st.pn
	pnKind := pg.KindOf(pn)
	for _, cand := range cands {
		if !st.first {
			// Shared DAG pattern node: must agree with the earlier
			// binding; no descent (its subtree was matched then).
			if m.binding[pn] != cand {
				continue
			}
			if !m.matchStep(pi + 1) {
				return false
			}
			continue
		}
		if pnKind != subject.PI {
			if pnKind != g.KindOf(cand) {
				continue
			}
			// Definition 2: internally covered nodes keep their
			// fanout count (the root, parent < 0, is exempt).
			if m.curClass == Exact && st.parent >= 0 && g.FanoutCount(cand) != st.patFanouts {
				continue
			}
		}
		if m.curInjective {
			if prev, used := m.used(cand); used && prev != pn {
				continue
			}
			m.setUsed(cand, pn)
		}
		m.binding[pn] = cand
		m.stepSub[pi] = cand
		orders := 1
		if pnKind == subject.Nand2 && st.swap && g.Fanin0(cand) != g.Fanin1(cand) {
			orders = 2
		}
		ok := true
		for o := 0; o < orders && ok; o++ {
			m.stepOrd[pi] = uint8(o)
			ok = m.matchStep(pi + 1)
		}
		m.binding[pn] = subject.None
		if m.curInjective {
			m.clearUsed(cand)
		}
		if !ok {
			return false
		}
	}
	return true
}

// complete assembles the current binding into a Match and yields it.
func (m *Matcher) complete() bool {
	p := m.curPattern
	pg := p.Graph
	out := m.curOut
	out.Pattern = p
	out.Leaves = out.Leaves[:0]
	out.Covered = out.Covered[:0]
	for _, leaf := range p.PinLeaf { // pin order
		out.Leaves = append(out.Leaves, m.binding[leaf])
	}
	for i := 0; i < pg.NumNodes(); i++ {
		n := subject.Node(i)
		if pg.KindOf(n) == subject.PI {
			continue
		}
		b := m.binding[n]
		dup := false
		for _, c := range out.Covered {
			if c == b {
				dup = true
				break
			}
		}
		if !dup {
			out.Covered = append(out.Covered, b)
		}
	}
	if m.recording {
		m.record(out)
	}
	return m.curYield(out)
}

// Verify checks that mt is a sound embedding: pattern edges map to
// subject edges, kinds agree, and the class constraints hold. It is
// used by tests and debugging tools.
func Verify(mt *Match, class Class) error {
	p := mt.Pattern
	// Rebuild the binding by re-walking deterministically is not
	// possible (matches are positional), so verify structurally from
	// the leaves: evaluate consistency bottom-up is equivalent to
	// checking leaves count and covered-set plausibility.
	if len(mt.Leaves) != p.Gate.NumInputs() {
		return fmt.Errorf("match: %d leaves for %d pins", len(mt.Leaves), p.Gate.NumInputs())
	}
	for i, l := range mt.Leaves {
		if l == subject.None {
			return fmt.Errorf("match: pin %d unbound", i)
		}
	}
	if len(mt.Covered) == 0 || mt.Covered[0] == subject.None {
		return fmt.Errorf("match: no covered nodes")
	}
	found := false
	for _, c := range mt.Covered {
		if c == mt.Root {
			found = true
		}
		if class == Exact && c != mt.Root {
			// Internal nodes of exact matches keep their fanout count
			// equal to the pattern's, which is at least 1; a covered
			// node with no fanouts other than root uses is suspicious
			// but not checkable here without the binding.
			_ = c
		}
	}
	if !found {
		return fmt.Errorf("match: root not covered")
	}
	return nil
}
