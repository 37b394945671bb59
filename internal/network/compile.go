package network

import (
	"fmt"

	"dagcover/internal/logic"
)

// Program is straight-line code that evaluates logic 64 vectors at a
// time over a flat value array: one packed uint64 word per slot.
// Names are resolved to slots when the program is built, so running
// it does no hashing and no allocation.
//
// The code is a flat []int32 tape of stack-machine instructions.
// Operands that read a slot are literal words (slot<<1 | negate), so
// a variable and its complement cost the same. Each instruction pushes
// exactly one word except opStore, which pops one into a slot:
//
//	opLoad lit              push lit
//	opConst0, opConst1      push all-zeros or all-ones
//	opAnd k n lit*n         pop k words, AND them with n literals, push
//	opNand/opOr/opNor/opXor/opXnor
//	                        likewise; the N forms complement the result
//	opStore slot            pop into slot
type Program struct {
	code  []int32
	slots int32
	depth int // eval-stack words the code needs
}

// Opcodes of the tape. Keep them dense: Eval switches on them.
const (
	opLoad int32 = iota
	opConst0
	opConst1
	opAnd
	opNand
	opOr
	opNor
	opXor
	opXnor
	opStore
)

// combineOp maps an expression operator to its opcode pair (plain,
// complemented).
func combineOp(op logic.Op) (plain, comp int32) {
	switch op {
	case logic.OpAnd:
		return opAnd, opNand
	case logic.OpOr:
		return opOr, opNor
	}
	return opXor, opXnor
}

// NewSlot reserves one value slot and returns its index.
func (p *Program) NewSlot() int32 {
	p.slots++
	return p.slots - 1
}

// Frame is the storage one evaluation needs: the value array and the
// eval stack. Reusing a frame across runs allocates nothing.
type Frame struct {
	// Vals holds one packed 64-vector word per slot. Callers write the
	// source slots before Eval and read any slot after it.
	Vals  []uint64
	stack []uint64
}

// NewFrame returns a zeroed frame sized for p.
func (p *Program) NewFrame() *Frame {
	return &Frame{Vals: make([]uint64, p.slots), stack: make([]uint64, p.depth)}
}

// Lowered is an expression compiled once into tape code whose literal
// operands name argument positions instead of slots; Program.Emit
// instantiates it with an argument→slot binding. A library gate is
// lowered once and emitted for every cell that instantiates it.
type Lowered struct {
	code  []int32
	depth int
}

// Lower compiles e. arg resolves each variable to its argument
// position, reporting false for a variable with no position.
func Lower(e *logic.Expr, arg func(name string) (int, bool)) (*Lowered, error) {
	lw := lowerer{resolve: func(name string) (int32, bool) {
		i, ok := arg(name)
		return int32(i), ok
	}}
	if err := lw.expr(e, false); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	return &Lowered{code: lw.code, depth: lw.maxDepth}, nil
}

// Emit appends the code of l with argument i read from slot args[i],
// storing the result into slot dst.
func (p *Program) Emit(l *Lowered, args []int32, dst int32) {
	code := l.code
	for pc := 0; pc < len(code); {
		switch op := code[pc]; op {
		case opLoad:
			p.code = append(p.code, op, bindLit(code[pc+1], args))
			pc += 2
		case opConst0, opConst1:
			p.code = append(p.code, op)
			pc++
		default: // combine
			n := int(code[pc+2])
			p.code = append(p.code, op, code[pc+1], code[pc+2])
			for _, lit := range code[pc+3 : pc+3+n] {
				p.code = append(p.code, bindLit(lit, args))
			}
			pc += 3 + n
		}
	}
	p.code = append(p.code, opStore, dst)
	p.depth = max(p.depth, l.depth)
}

// bindLit rewrites an argument literal into a slot literal.
func bindLit(lit int32, args []int32) int32 { return args[lit>>1]<<1 | lit&1 }

// emitExpr lowers e straight into p with variables resolved to slots
// and stores the result into dst.
func (p *Program) emitExpr(lw *lowerer, e *logic.Expr, dst int32) error {
	lw.code, lw.depth, lw.maxDepth = p.code, 0, 0
	if err := lw.expr(e, false); err != nil {
		return err
	}
	p.code = append(lw.code, opStore, dst)
	p.depth = max(p.depth, lw.maxDepth)
	return nil
}

// lowerer turns an expression tree into tape code, tracking stack
// depth. resolve maps a variable to the operand index its literal
// carries (a slot, or an argument position for Lower).
type lowerer struct {
	code            []int32
	depth, maxDepth int
	resolve         func(name string) (int32, bool)
}

func (lw *lowerer) push() {
	lw.depth++
	lw.maxDepth = max(lw.maxDepth, lw.depth)
}

// literal reports whether e is a variable or a negated variable, and
// if so the literal word that reads it (complemented when neg).
func (lw *lowerer) literal(e *logic.Expr, neg bool) (int32, bool, error) {
	if e.Op == logic.OpNot && e.Kids[0].Op == logic.OpVar {
		e, neg = e.Kids[0], !neg
	}
	if e.Op != logic.OpVar {
		return 0, false, nil
	}
	i, ok := lw.resolve(e.Var)
	if !ok {
		return 0, false, fmt.Errorf("variable %q is unbound", e.Var)
	}
	lit := i << 1
	if neg {
		lit |= 1
	}
	return lit, true, nil
}

// expr emits code that pushes e (complemented when neg). Complex
// operands of an n-ary node are pushed first; its variable operands
// are read in place as literals of the one combine instruction.
func (lw *lowerer) expr(e *logic.Expr, neg bool) error {
	if lit, ok, err := lw.literal(e, neg); err != nil || ok {
		if ok {
			lw.code = append(lw.code, opLoad, lit)
			lw.push()
		}
		return err
	}
	switch e.Op {
	case logic.OpConst:
		if e.Const != neg {
			lw.code = append(lw.code, opConst1)
		} else {
			lw.code = append(lw.code, opConst0)
		}
		lw.push()
		return nil
	case logic.OpNot:
		return lw.expr(e.Kids[0], !neg)
	case logic.OpAnd, logic.OpOr, logic.OpXor:
	default:
		return fmt.Errorf("invalid expression op %v", e.Op)
	}
	base, n := lw.depth, 0
	for _, k := range e.Kids {
		_, ok, err := lw.literal(k, false)
		if err != nil {
			return err
		}
		if ok {
			n++
		} else if err := lw.expr(k, false); err != nil {
			return err
		}
	}
	plain, comp := combineOp(e.Op)
	op := plain
	if neg {
		op = comp
	}
	lw.code = append(lw.code, op, int32(lw.depth-base), int32(n))
	for _, k := range e.Kids {
		if lit, ok, _ := lw.literal(k, false); ok {
			lw.code = append(lw.code, lit)
		}
	}
	lw.depth = base
	lw.push()
	return nil
}

// Eval runs the program over f. The source slots of f.Vals must hold
// their input words; every slot the program computes is overwritten.
func (p *Program) Eval(f *Frame) {
	code, vals, stack := p.code, f.Vals, f.stack
	sp := 0
	for pc := 0; pc < len(code); {
		op := code[pc]
		switch op {
		case opLoad:
			stack[sp] = load(vals, code[pc+1])
			sp++
			pc += 2
		case opStore:
			sp--
			vals[code[pc+1]] = stack[sp]
			pc += 2
		case opConst0:
			stack[sp] = 0
			sp++
			pc++
		case opConst1:
			stack[sp] = ^uint64(0)
			sp++
			pc++
		case opAnd, opNand:
			k, n := int(code[pc+1]), int(code[pc+2])
			v := ^uint64(0)
			for _, lit := range code[pc+3 : pc+3+n] {
				v &= load(vals, lit)
			}
			for _, w := range stack[sp-k : sp] {
				v &= w
			}
			if op == opNand {
				v = ^v
			}
			sp -= k
			stack[sp] = v
			sp++
			pc += 3 + n
		case opOr, opNor:
			k, n := int(code[pc+1]), int(code[pc+2])
			v := uint64(0)
			for _, lit := range code[pc+3 : pc+3+n] {
				v |= load(vals, lit)
			}
			for _, w := range stack[sp-k : sp] {
				v |= w
			}
			if op == opNor {
				v = ^v
			}
			sp -= k
			stack[sp] = v
			sp++
			pc += 3 + n
		default: // opXor, opXnor
			k, n := int(code[pc+1]), int(code[pc+2])
			v := uint64(0)
			for _, lit := range code[pc+3 : pc+3+n] {
				v ^= load(vals, lit)
			}
			for _, w := range stack[sp-k : sp] {
				v ^= w
			}
			if op == opXnor {
				v = ^v
			}
			sp -= k
			stack[sp] = v
			sp++
			pc += 3 + n
		}
	}
}

// load reads a literal: the slot's word, complemented when the low
// bit is set.
func load(vals []uint64, lit int32) uint64 {
	return vals[lit>>1] ^ -uint64(lit&1)
}
