package network

import "fmt"

// Compiled is a network lowered to a Program for 64-way bit-parallel
// simulation. Slot i holds the value of Nodes[i]; the nodes are in
// topological order, so a program built from one TopoSort evaluates
// every function after its fanins. Latch outputs are treated as free
// inputs, like primary inputs.
type Compiled struct {
	Prog *Program
	// Nodes lists every node in topological order, indexed by slot.
	Nodes []*Node
	// Sources are the slots of the free inputs (primary inputs and
	// latch outputs), in topological order. The caller fills them
	// before each Eval.
	Sources []int32
	slot    map[*Node]int32
}

// Compile lowers every node function of nw into one program. It fails
// on cyclic networks.
func Compile(nw *Network) (*Compiled, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	c := &Compiled{Prog: &Program{}, Nodes: topo, slot: make(map[*Node]int32, len(topo))}
	for _, n := range topo {
		c.slot[n] = c.Prog.NewSlot()
	}
	var cur *Node
	lw := &lowerer{resolve: func(name string) (int32, bool) {
		for _, fi := range cur.Fanins {
			if fi.Name == name {
				return c.slot[fi], true
			}
		}
		return 0, false
	}}
	for i, n := range topo {
		if n.Func == nil {
			c.Sources = append(c.Sources, int32(i))
			continue
		}
		cur = n
		if err := c.Prog.emitExpr(lw, n.Func, int32(i)); err != nil {
			return nil, fmt.Errorf("network: node %q: %w", n.Name, err)
		}
	}
	return c, nil
}

// Slot returns the slot holding n's value, or -1 if n is not a node
// of the compiled network.
func (c *Compiled) Slot(n *Node) int32 {
	if s, ok := c.slot[n]; ok {
		return s
	}
	return -1
}

// Simulator evaluates a combinational network 64 input vectors at a
// time through name-keyed maps. It is a convenience wrapper over
// Compiled for tools and tests; hot loops use Compiled and a reused
// Frame directly.
type Simulator struct {
	nw *Network
	c  *Compiled
}

// NewSimulator prepares a simulator; it fails on cyclic networks.
func NewSimulator(nw *Network) (*Simulator, error) {
	c, err := Compile(nw)
	if err != nil {
		return nil, err
	}
	return &Simulator{nw: nw, c: c}, nil
}

// eval runs the network on inputs, which must name every source.
func (s *Simulator) eval(inputs map[string]uint64) (*Frame, error) {
	f := s.c.Prog.NewFrame()
	for _, slot := range s.c.Sources {
		name := s.c.Nodes[slot].Name
		v, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("network: simulation input %q not supplied", name)
		}
		f.Vals[slot] = v
	}
	s.c.Prog.Eval(f)
	return f, nil
}

// Run evaluates the network on 64 parallel vectors. inputs maps each
// source node name (primary input or latch output) to a 64-bit packed
// value. It returns the packed value of every node.
func (s *Simulator) Run(inputs map[string]uint64) (map[string]uint64, error) {
	f, err := s.eval(inputs)
	if err != nil {
		return nil, err
	}
	values := make(map[string]uint64, len(s.c.Nodes))
	for i, n := range s.c.Nodes {
		values[n.Name] = f.Vals[i]
	}
	return values, nil
}

// RunOutputs evaluates the network and returns only the primary-output
// values (packed 64-way).
func (s *Simulator) RunOutputs(inputs map[string]uint64) (map[string]uint64, error) {
	f, err := s.eval(inputs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(s.nw.Outputs()))
	for _, o := range s.nw.Outputs() {
		out[o.Name] = f.Vals[s.c.slot[o]]
	}
	return out, nil
}
