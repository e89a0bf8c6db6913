package jit

import (
	"fmt"

	"jrpm/internal/isa"
)

// resetStack discards symbolic state and seeds depth d with canonical
// temporaries T0..T(d-1) (the invariant at every basic-block boundary).
func (lw *lowerer) resetStack(d int) {
	lw.stack = lw.stack[:0]
	for i := range lw.tempBusy {
		lw.tempBusy[i] = false
	}
	for i := 0; i < d; i++ {
		lw.tempBusy[i] = true
		lw.stack = append(lw.stack, val{kind: vTemp, reg: isa.T0 + isa.Reg(i)})
	}
}

// flushCanonical materializes every stack entry into its canonical register
// T_i so that control-flow merges observe a consistent machine state.
// Displaced temporaries move register-to-register (a parallel move, cycles
// broken through $at); constants, locals and spills rematerialize directly
// into their targets — no memory round trips.
func (lw *lowerer) flushCanonical() {
	// Fast path: already canonical.
	canonical := true
	for i, v := range lw.stack {
		if v.kind != vTemp || v.reg != isa.T0+isa.Reg(i) {
			canonical = false
			break
		}
	}
	if canonical {
		return
	}

	// Phase 1: the register-to-register parallel move for displaced temps,
	// resolved in ascending target order so the emitted code is a pure
	// function of the stack (the image fingerprint a checkpoint carries
	// depends on it).
	type move struct{ tgt, src isa.Reg }
	var moves []move
	for i, v := range lw.stack {
		want := isa.T0 + isa.Reg(i)
		if v.kind == vTemp && v.reg != want {
			moves = append(moves, move{want, v.reg})
		}
	}
	// Stack slot i targets T0+i, so moves is already sorted by target.
	isSource := func(r isa.Reg) bool {
		for _, mv := range moves {
			if mv.src == r {
				return true
			}
		}
		return false
	}
	for len(moves) > 0 {
		progress := false
		for i := 0; i < len(moves); {
			if mv := moves[i]; !isSource(mv.tgt) {
				lw.b.Move(mv.tgt, mv.src)
				moves = append(moves[:i], moves[i+1:]...)
				progress = true
				continue
			}
			i++
		}
		if !progress {
			// Pure cycle: route the lowest target's source through $at.
			lw.b.Move(isa.AT, moves[0].src)
			moves[0].src = isa.AT
		}
	}

	// Phase 2: rematerialize everything else straight into its target.
	for i, v := range lw.stack {
		want := isa.T0 + isa.Reg(i)
		switch v.kind {
		case vTemp: // moved above (or already in place)
		case vConst:
			lw.b.Li(want, v.c)
		case vLocal:
			if r := lw.place.reg[v.slot]; r != noReg {
				lw.b.Move(want, r)
			} else {
				lw.b.Lw(want, isa.FP, int64(v.slot))
			}
		case vSpill:
			lw.b.Lw(want, isa.FP, v.spill)
			lw.freeSpillSlot(v.spill)
		}
		lw.stack[i] = val{kind: vTemp, reg: want}
	}
	for i := range lw.tempBusy {
		lw.tempBusy[i] = i < len(lw.stack)
	}
}

// localRead returns a register holding local slot's current value. For
// memory-resident locals the value loads into scratch (which must be free
// for the caller's use).
func (lw *lowerer) localRead(slot int, scratch isa.Reg) isa.Reg {
	if r := lw.place.reg[slot]; r != noReg {
		return r
	}
	lw.b.Lw(scratch, isa.FP, int64(slot))
	return scratch
}

// allocSpill grabs a spill slot from the free list or extends the area.
func (lw *lowerer) allocSpill() int64 {
	if n := len(lw.freeSpill); n > 0 {
		s := lw.freeSpill[n-1]
		lw.freeSpill = lw.freeSpill[:n-1]
		return s
	}
	s := lw.spillBase + lw.spillMax
	lw.spillMax++
	return s
}

func (lw *lowerer) freeSpillSlot(s int64) { lw.freeSpill = append(lw.freeSpill, s) }

// freshTemp returns a free temporary register, spilling the oldest stack
// temporary if all six are busy.
func (lw *lowerer) freshTemp() isa.Reg {
	for i, busy := range lw.tempBusy {
		if !busy {
			lw.tempBusy[i] = true
			return isa.T0 + isa.Reg(i)
		}
	}
	for i := range lw.stack {
		if lw.stack[i].kind == vTemp {
			slot := lw.allocSpill()
			lw.b.Sw(lw.stack[i].reg, isa.FP, slot)
			r := lw.stack[i].reg
			lw.stack[i] = val{kind: vSpill, spill: slot}
			return r // stays busy, new owner
		}
	}
	panic("jit: out of temporaries with nothing to spill")
}

func (lw *lowerer) freeTemp(r isa.Reg) {
	if r >= isa.T0 && r <= isa.T5 {
		lw.tempBusy[r-isa.T0] = false
	}
}

// push/pop manage the symbolic stack.
func (lw *lowerer) push(v val) { lw.stack = append(lw.stack, v) }

func (lw *lowerer) pushTemp(r isa.Reg) { lw.push(val{kind: vTemp, reg: r}) }

func (lw *lowerer) pushConst(c int64) { lw.push(val{kind: vConst, c: c}) }

func (lw *lowerer) pop() val {
	if len(lw.stack) == 0 {
		panic("jit: symbolic stack underflow (verifier should have caught this)")
	}
	v := lw.stack[len(lw.stack)-1]
	lw.stack = lw.stack[:len(lw.stack)-1]
	return v
}

// use materializes a popped value into a register. owned reports whether the
// register belongs to the expression (may be reused/freed); S-registers of
// locals are not owned.
func (lw *lowerer) use(v val) (isa.Reg, bool) {
	switch v.kind {
	case vTemp:
		return v.reg, true
	case vConst:
		r := lw.freshTemp()
		lw.b.Li(r, v.c)
		return r, true
	case vLocal:
		if r := lw.place.reg[v.slot]; r != noReg {
			return r, false
		}
		r := lw.freshTemp()
		lw.b.Lw(r, isa.FP, int64(v.slot))
		return r, true
	case vSpill:
		r := lw.freshTemp()
		lw.b.Lw(r, isa.FP, v.spill)
		lw.freeSpillSlot(v.spill)
		return r, true
	}
	panic(fmt.Sprintf("jit: bad value kind %d", v.kind))
}

// useInto materializes a popped value directly into a specific register
// (used for argument and result moves; reg must not be a busy temporary).
func (lw *lowerer) useInto(v val, reg isa.Reg) {
	switch v.kind {
	case vTemp:
		if v.reg != reg {
			lw.b.Move(reg, v.reg)
		}
		lw.freeTemp(v.reg)
	case vConst:
		lw.b.Li(reg, v.c)
	case vLocal:
		if r := lw.place.reg[v.slot]; r != noReg {
			lw.b.Move(reg, r)
		} else {
			lw.b.Lw(reg, isa.FP, int64(v.slot))
		}
	case vSpill:
		lw.b.Lw(reg, isa.FP, v.spill)
		lw.freeSpillSlot(v.spill)
	}
}

// binop lowers a two-operand computation, reusing an owned operand register
// for the result when possible.
func (lw *lowerer) binop(op isa.Op) {
	rhs := lw.pop()
	lhs := lw.pop()
	// Constant folding.
	if lhs.kind == vConst && rhs.kind == vConst {
		if c, ok := foldConst(op, lhs.c, rhs.c); ok {
			lw.pushConst(c)
			return
		}
	}
	// Immediate forms for integer ops with a constant right operand.
	if rhs.kind == vConst {
		if iop, ok := immediateForm(op); ok {
			ra, oa := lw.use(lhs)
			rd := ra
			if !oa {
				rd = lw.freshTemp()
			}
			imm := rhs.c
			if op == isa.SUB {
				imm = -imm
			}
			lw.b.OpImm(iop, rd, ra, imm)
			lw.pushTemp(rd)
			return
		}
	}
	ra, oa := lw.use(lhs)
	rb, ob := lw.use(rhs)
	var rd isa.Reg
	switch {
	case oa:
		rd = ra
		if ob {
			lw.freeTemp(rb)
		}
	case ob:
		rd = rb
	default:
		rd = lw.freshTemp()
	}
	lw.b.Op3(op, rd, ra, rb)
	lw.pushTemp(rd)
}

// unop lowers a one-operand computation.
func (lw *lowerer) unop(op isa.Op) {
	v := lw.pop()
	ra, oa := lw.use(v)
	rd := ra
	if !oa {
		rd = lw.freshTemp()
	}
	lw.b.Op2(op, rd, ra)
	lw.pushTemp(rd)
}

func immediateForm(op isa.Op) (isa.Op, bool) {
	switch op {
	case isa.ADD, isa.SUB:
		return isa.ADDI, true
	case isa.AND:
		return isa.ANDI, true
	case isa.OR:
		return isa.ORI, true
	case isa.XOR:
		return isa.XORI, true
	case isa.SLL:
		return isa.SLLI, true
	case isa.SRL:
		return isa.SRLI, true
	case isa.SRA:
		return isa.SRAI, true
	}
	return 0, false
}

func foldConst(op isa.Op, a, b int64) (int64, bool) {
	switch op {
	case isa.ADD:
		return a + b, true
	case isa.SUB:
		return a - b, true
	case isa.MUL:
		return a * b, true
	case isa.AND:
		return a & b, true
	case isa.OR:
		return a | b, true
	case isa.XOR:
		return a ^ b, true
	case isa.SLL:
		return a << uint64(b&63), true
	case isa.SRL:
		return int64(uint64(a) >> uint64(b&63)), true
	case isa.SRA:
		return a >> uint64(b&63), true
	case isa.DIV:
		if b != 0 {
			return a / b, true
		}
	case isa.REM:
		if b != 0 {
			return a % b, true
		}
	case isa.MIN:
		if a < b {
			return a, true
		}
		return b, true
	case isa.MAX:
		if a > b {
			return a, true
		}
		return b, true
	}
	return 0, false
}
