package verify

import (
	"fmt"
	"slices"

	"dagcover/internal/network"
)

// SeqOptions tunes sequential equivalence checking.
type SeqOptions struct {
	// Cycles is the number of clock cycles to simulate (default 64).
	Cycles int
	// MaxShift bounds the input/output latency difference tolerated
	// between the two circuits (Leiserson-Saxe retiming may shift
	// interface latency through host-edge registers). Default 0:
	// strict cycle alignment.
	MaxShift int
	// Seed makes the random input streams reproducible.
	Seed int64
}

func (o *SeqOptions) defaults() {
	if o.Cycles == 0 {
		o.Cycles = 64
	}
}

// Sequential clocks both circuits from their initial states with the
// same random input streams and compares output streams cycle by
// cycle. With MaxShift > 0, a single global shift within the bound
// may align the streams (retimed circuits); the initial max-latch
// transient is excluded from comparison.
func Sequential(a, b *network.Network, opt SeqOptions) error {
	opt.defaults()
	if len(a.Inputs()) != len(b.Inputs()) {
		return fmt.Errorf("verify: input counts differ: %d vs %d", len(a.Inputs()), len(b.Inputs()))
	}
	for _, in := range b.Inputs() {
		if n := a.Node(in.Name); n == nil || !n.IsInput {
			return fmt.Errorf("verify: candidate input %q unknown to reference", in.Name)
		}
	}
	if len(a.Outputs()) != len(b.Outputs()) {
		return fmt.Errorf("verify: output counts differ: %d vs %d", len(a.Outputs()), len(b.Outputs()))
	}
	outNames := make([]string, len(a.Outputs()))
	for i, o := range a.Outputs() {
		outNames[i] = o.Name
		if b.Node(o.Name) == nil {
			return fmt.Errorf("verify: reference output %q missing from candidate", o.Name)
		}
	}

	cycles := opt.Cycles
	streamA, err := clock(a, outNames, cycles, opt.Seed)
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	streamB, err := clock(b, outNames, cycles, opt.Seed)
	if err != nil {
		return fmt.Errorf("verify: candidate: %v", err)
	}
	transient := len(a.Latches())
	if l := len(b.Latches()); l > transient {
		transient = l
	}
	transient += opt.MaxShift
	for shift := -opt.MaxShift; shift <= opt.MaxShift; shift++ {
		if streamsAgree(streamA, streamB, len(outNames), transient, shift) {
			return nil
		}
	}
	return fmt.Errorf("verify: sequential behaviours differ within shift ±%d (after %d-cycle transient, %d cycles compared)",
		opt.MaxShift, transient, cycles)
}

// clock simulates the circuit for the given cycles with a random
// input stream derived deterministically from seed (the same stream
// for both circuits since inputs are keyed by name and seed). It
// returns the value of each named output per cycle, flattened
// cycle-major; a name that is not a primary output of nw reads false.
func clock(nw *network.Network, outs []string, cycles int, seed int64) ([]bool, error) {
	c, err := network.Compile(nw)
	if err != nil {
		return nil, err
	}
	for _, s := range c.Sources {
		if n := c.Nodes[s]; !n.IsInput && nw.LatchFor(n) == nil && cycles > 0 {
			return nil, fmt.Errorf("network: simulation input %q not supplied", n.Name)
		}
	}
	outSlots := make([]int32, len(outs))
	for i, name := range outs {
		outSlots[i] = -1
		if n := nw.Node(name); n != nil && nw.IsOutput(n) {
			outSlots[i] = c.Slot(n)
		}
	}
	type latch struct{ in, out int32 }
	latches := make([]latch, len(nw.Latches()))
	f := c.Prog.NewFrame()
	for i, l := range nw.Latches() {
		latches[i] = latch{c.Slot(l.Input), c.Slot(l.Output)}
		if l.Init {
			f.Vals[latches[i].out] = 1
		}
	}
	next := make([]uint64, len(latches))
	stream := make([]bool, 0, cycles*len(outs))
	for cyc := 0; cyc < cycles; cyc++ {
		for _, pi := range nw.Inputs() {
			f.Vals[c.Slot(pi)] = uint64(inputBit(seed, pi.Name, cyc))
		}
		c.Prog.Eval(f)
		for _, s := range outSlots {
			stream = append(stream, s >= 0 && f.Vals[s]&1 == 1)
		}
		// Latches load simultaneously: read every input before writing
		// any output, since one latch may feed another directly.
		for i, l := range latches {
			next[i] = f.Vals[l.in] & 1
		}
		for i, l := range latches {
			f.Vals[l.out] = next[i]
		}
	}
	return stream, nil
}

// inputBit derives a deterministic pseudo-random bit per (seed, input
// name, cycle) so both circuits see identical streams regardless of
// internal naming or iteration order.
func inputBit(seed int64, name string, cycle int) int {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001B3
	}
	h ^= uint64(cycle) * 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return int(h & 1)
}

// streamsAgree compares the two output streams (k outputs per cycle)
// under the given shift, ignoring the transient prefix.
func streamsAgree(a, b []bool, k, transient, shift int) bool {
	cycles := len(a) / max(k, 1)
	for c := transient; c < cycles; c++ {
		d := c + shift
		if d < 0 || d >= cycles {
			continue
		}
		if !slices.Equal(a[c*k:(c+1)*k], b[d*k:(d+1)*k]) {
			return false
		}
	}
	return true
}
