// Package verify checks functional equivalence between circuits by
// 64-way bit-parallel simulation: exhaustively for small input counts
// and with random vectors otherwise. Every mapped netlist produced in
// this repository's tests and tools is validated against its source
// network with these routines.
//
// Both sides of a check are compiled once into flat network.Programs
// over a value array (see DESIGN.md, "Compiled verifier"); the check
// loop reuses one frame per side and allocates nothing per batch.
package verify

import (
	"fmt"
	"math/rand"
	"slices"

	"dagcover/internal/genlib"
	"dagcover/internal/mapping"
	"dagcover/internal/network"
)

// ExhaustiveLimit is the largest input count verified exhaustively
// (2^14 rows = 256 simulation batches).
const ExhaustiveLimit = 14

// Options tunes the equivalence check.
type Options struct {
	// Rounds is the number of random 64-vector batches when the check
	// is not exhaustive (default 64).
	Rounds int
	// Seed makes random vectors reproducible.
	Seed int64
}

func (o *Options) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 64
	}
}

// Networks verifies that every primary output of b computes the same
// function as the like-named node of a, over the sources of a. The
// source sets must agree.
func Networks(a, b *network.Network, opt Options) error {
	ca, err := network.Compile(a)
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	cb, err := network.Compile(b)
	if err != nil {
		return fmt.Errorf("verify: candidate: %v", err)
	}
	c := &checker{refNet: a, ref: ca, cand: cb.Prog}
	for _, s := range cb.Sources {
		if err := c.feed(cb.Nodes[s].Name, s); err != nil {
			return err
		}
	}
	for _, o := range b.Outputs() {
		if err := c.output(o.Name, cb.Slot(o)); err != nil {
			return err
		}
	}
	return c.run(opt)
}

// Mapped verifies a mapped netlist against the original network. Each
// netlist output port (primary output or latch input) must match the
// like-named node of the original, and every primary output of the
// original must have a port.
func Mapped(orig *network.Network, nl *mapping.Netlist, opt Options) error {
	if err := nl.Check(); err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	cand, err := compileNetlist(nl)
	if err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	ca, err := network.Compile(orig)
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	c := &checker{refNet: orig, ref: ca, cand: cand.prog}
	for i, in := range nl.Inputs {
		if err := c.feed(in, int32(i)); err != nil {
			return err
		}
	}
	for _, p := range cand.ports {
		if err := c.output(p.name, p.slot); err != nil {
			return err
		}
	}
	for _, o := range orig.Outputs() {
		if !cand.named[o.Name] {
			return fmt.Errorf("verify: reference output %q missing from candidate", o.Name)
		}
	}
	return c.run(opt)
}

// port is a named candidate output and the slot that computes it.
type port struct {
	name string
	slot int32
}

// compiledNetlist is a mapped netlist lowered to a program. Input i
// lives in slot i; ports lists the distinct output ports in
// declaration order and named holds their names.
type compiledNetlist struct {
	prog  *network.Program
	ports []port
	named map[string]bool
}

// compileNetlist lowers nl without building a network: each gate's
// function is lowered once and emitted per cell with the cell's input
// nets bound to its pins. nl must have passed Check, so cells come in
// driver order and every net has one driver. The errors are those the
// netlist would raise converted by mapping.Netlist.ToNetwork.
func compileNetlist(nl *mapping.Netlist) (*compiledNetlist, error) {
	prog := &network.Program{}
	slot := make(map[string]int32, len(nl.Inputs)+len(nl.Cells))
	for _, in := range nl.Inputs {
		slot[in] = prog.NewSlot()
	}
	lowered := map[*genlib.Gate]*network.Lowered{}
	var args []int32
	for _, c := range nl.Cells {
		l, ok := lowered[c.Gate]
		if !ok {
			var err error
			if l, err = lowerGate(c); err != nil {
				return nil, err
			}
			lowered[c.Gate] = l
		}
		args = args[:0]
		for _, in := range c.Inputs {
			args = append(args, slot[in])
		}
		dst := prog.NewSlot()
		slot[c.Output] = dst
		prog.Emit(l, args, dst)
	}
	cn := &compiledNetlist{prog: prog, named: make(map[string]bool, len(nl.Outputs))}
	for _, p := range nl.Outputs {
		if p.Name != p.Net {
			// A port renaming a net reads the net's slot; its name must
			// not shadow a net or an earlier renamed port.
			if _, taken := slot[p.Name]; taken {
				return nil, fmt.Errorf("mapping: output port %q collides with a net name", p.Name)
			}
			slot[p.Name] = slot[p.Net]
		}
		if !cn.named[p.Name] {
			cn.named[p.Name] = true
			cn.ports = append(cn.ports, port{p.Name, slot[p.Net]})
		}
	}
	return cn, nil
}

// lowerGate lowers the function of c's gate over its pin positions,
// reporting a gate the network builder would reject under the node
// name c drives.
func lowerGate(c *mapping.Cell) (*network.Lowered, error) {
	g := c.Gate
	if g.Expr == nil {
		return nil, fmt.Errorf("network: node %q has no function", c.Output)
	}
	pin := func(name string) (int, bool) {
		i := slices.IndexFunc(g.Pins, func(p genlib.Pin) bool { return p.Name == name })
		return i, i >= 0
	}
	for _, v := range g.Expr.Vars() {
		if _, ok := pin(v); !ok {
			return nil, fmt.Errorf("network: node %q function uses %q which is not a fanin", c.Output, v)
		}
	}
	return network.Lower(g.Expr, pin)
}

// checker simulates a compiled reference and a compiled candidate on
// the same vectors and compares the candidate's outputs against the
// like-named reference nodes. Each side owns one reused frame.
type checker struct {
	refNet              *network.Network
	ref                 *network.Compiled
	cand                *network.Program
	refFrame, candFrame *network.Frame
	// feeds binds each candidate source to the reference slot that
	// drives it.
	feeds []binding
	outs  []output
}

type binding struct{ ref, cand int32 }

type output struct {
	name      string
	ref, cand int32
}

// feed binds candidate source slot s to the reference node named name.
func (c *checker) feed(name string, s int32) error {
	n := c.refNet.Node(name)
	if n == nil {
		return fmt.Errorf("verify: candidate source %q unknown to reference", name)
	}
	c.feeds = append(c.feeds, binding{c.ref.Slot(n), s})
	return nil
}

// output compares candidate slot s against the reference node named
// name.
func (c *checker) output(name string, s int32) error {
	n := c.refNet.Node(name)
	if n == nil {
		return fmt.Errorf("verify: candidate output %q unknown to reference", name)
	}
	c.outs = append(c.outs, output{name, c.ref.Slot(n), s})
	return nil
}

// run drives the check: exhaustively over the reference sources when
// there are at most ExhaustiveLimit of them, with opt.Rounds batches
// of seeded random vectors otherwise.
func (c *checker) run(opt Options) error {
	opt.defaults()
	c.refFrame, c.candFrame = c.ref.Prog.NewFrame(), c.cand.NewFrame()
	sources, in := c.ref.Sources, c.refFrame.Vals
	if len(sources) <= ExhaustiveLimit {
		words := (1<<len(sources) + 63) / 64
		for w := 0; w < words; w++ {
			for i, s := range sources {
				in[s] = inputPattern(i, w*64)
			}
			if err := c.check(); err != nil {
				return fmt.Errorf("%v (exhaustive batch %d)", err, w)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for round := 0; round < opt.Rounds; round++ {
		for _, s := range sources {
			in[s] = rng.Uint64()
		}
		if err := c.check(); err != nil {
			return fmt.Errorf("%v (random round %d, seed %d)", err, round, opt.Seed)
		}
	}
	return nil
}

// check evaluates both sides on the batch in the reference's source
// slots and compares the outputs in candidate declaration order.
func (c *checker) check() error {
	c.ref.Prog.Eval(c.refFrame)
	va, vb := c.refFrame.Vals, c.candFrame.Vals
	for _, f := range c.feeds {
		vb[f.cand] = va[f.ref]
	}
	c.cand.Eval(c.candFrame)
	for _, o := range c.outs {
		if a, b := va[o.ref], vb[o.cand]; a != b {
			return fmt.Errorf("verify: output %q differs (vector bit %d): reference %x, candidate %x",
				o.name, firstDiff(a, b), a, b)
		}
	}
	return nil
}

// inputPattern gives the canonical truth-table column of variable i
// restricted to the 64 rows starting at base.
func inputPattern(i, base int) uint64 {
	if i >= 6 {
		if base&(1<<i) != 0 {
			return ^uint64(0)
		}
		return 0
	}
	masks := [6]uint64{
		0xAAAAAAAAAAAAAAAA,
		0xCCCCCCCCCCCCCCCC,
		0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00,
		0xFFFF0000FFFF0000,
		0xFFFFFFFF00000000,
	}
	return masks[i]
}

func firstDiff(a, b uint64) int {
	d := a ^ b
	for i := 0; i < 64; i++ {
		if d>>uint(i)&1 == 1 {
			return i
		}
	}
	return -1
}
