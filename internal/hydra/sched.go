package hydra

import (
	"math"
	mbits "math/bits"

	"jrpm/internal/isa"
	"jrpm/internal/tls"
)

// Event-driven speculative scheduling.
//
// While speculation is active the scheduler in Run steps a CPU only when it
// has something to do that another CPU could observe: a memory, TLS or
// runtime instruction, or a head-wait that has become the head. Two kinds of
// work are left pending in between, each applied eagerly where it is private
// to the CPU and accounted lazily where it is not:
//
//   - Register runs. After a running CPU's step, the register-only
//     instructions that follow (tier-2 ops with no memory traffic, trap or
//     boundary) execute at once through the tier-2 handlers. Their register
//     and pc effects are applied eagerly; their instruction count and run
//     charges are pending, one entry per instruction with its start cycle,
//     and the CPU's readyAt is the start of the op that ended the run.
//   - Parked waits. A non-head CPU in a wait state stops polling. Its
//     one-cycle wait charges from parkAt onward are pending, and its readyAt
//     is MaxInt64 until the commit that makes it the head wakes it.
//
// settle(c, X, actor) charges exactly what the cycle-by-cycle scheduler
// would have charged by the moment CPU actor acts in cycle X: every pending
// instruction or poll in a cycle before X, and those in cycle X of CPUs
// that scheduler steps before actor (index tie rule: CPUs step in index
// order within a cycle, so CPU i's cycle-X work precedes actor's iff
// i <= actor). The tls unit calls settleAll through its flush hook before
// any operation that flushes, violates, kills or reassigns an attempt, and
// Run settles every CPU when it returns.
//
// A CPU that another CPU's action violates, kills or redeploys first has
// its pending state materialized: a register run is truncated at the settle
// point, with the per-CPU undo log rolling registers and pc back to the
// interpreter's values at that moment (the collector scans them as roots);
// a parked CPU gets the readyAt its last poll would have left.
//
// Edges: a run never holds an instruction that starts past the cycle budget
// or at or past the next cancellation poll, and while any CPU is parked the
// budget edge (maxCycles+1) and the poll cycle stay scheduler wake points,
// so both fire at the same cycles as under per-cycle polling.
//
// Register runs are tier-2 work: they are off whenever the block engine is
// (Options.Tier2Off, a recorder or a fault plan attached). Parking is always
// on; it changes no observable, only the host cost of waiting.

// runMax bounds the instructions of one register run (the undo log size).
const runMax = 32

// regRun is one CPU's pending register run: entries [done, n) are executed
// but not yet counted or charged.
type regRun struct {
	n, done int
	e       [runMax]runEntry
}

// runEntry is one instruction of a register run, with its undo record.
type runEntry struct {
	start int64 // start cycle
	old   int64 // value of reg before the instruction's op
	pc    int32
	reg   uint8 // the register the op may overwrite
}

// schedStats counts the scheduler's rare events, for the equivalence
// tests: register runs cut short and parked CPUs woken, split by whether
// the acting CPU's index is below ([0]) or above ([1]) the affected one's,
// parked CPUs violated, and pending work still open when Run returned.
type schedStats struct {
	cuts, wakes         [2]int64
	parkedViolated      int64
	stopCuts, stopParks int64
}

// side indexes schedStats pairs by the acting CPU's index relative to c's.
func (m *Machine) side(c *CPU) int {
	if m.actor < c.ID {
		return 0
	}
	return 1
}

// charge records cycles of kind against c's attempt, mirrored into the
// ledger when one is attached.
func (m *Machine) charge(c *CPU, kind tls.ChargeKind, cycles int64) {
	if m.led == nil {
		m.TLS.ChargeAttempt(c.ID, kind, cycles)
	} else {
		m.TLS.ChargeAttemptDiag(c.ID, kind, cycles)
	}
}

// park makes a non-head CPU wait for the head without polling. The poll of
// the current cycle is the first pending one.
func (m *Machine) park(c *CPU) {
	c.parked = true
	c.parkAt = m.Clock
	c.readyAt = math.MaxInt64
	m.nparked++
	m.Parks[c.state-stateWaitEOI]++
}

// settle charges c's pending work up to the moment CPU actor acts in cycle
// x (actor -1: before any CPU's step in cycle x).
func (m *Machine) settle(c *CPU, x int64, actor int) {
	if c.parked {
		to := x
		if c.ID <= actor {
			to = x + 1
		}
		if n := to - c.parkAt; n > 0 {
			kind := tls.ChargeWait
			if c.state == stateWaitOverflow {
				kind = tls.ChargeWaitOverflow
			}
			m.charge(c, kind, n)
			c.parkAt = to
		}
		return
	}
	r := &c.run
	k := r.done
	for k < r.n && (r.e[k].start < x || r.e[k].start == x && c.ID <= actor) {
		k++
	}
	if k == r.done {
		return
	}
	end := c.readyAt
	if k < r.n {
		end = r.e[k].start
	}
	m.Instructions += int64(k - r.done)
	m.charge(c, tls.ChargeRun, end-r.e[r.done].start)
	r.done = k
}

// settleOwn counts c's whole run when c steps again: every instruction
// of it started before the current cycle.
func (m *Machine) settleOwn(c *CPU) {
	r := &c.run
	if k := r.n - r.done; k > 0 {
		m.Instructions += int64(k)
		m.charge(c, tls.ChargeRun, c.readyAt-r.e[r.done].start)
	}
	r.n, r.done = 0, 0
}

// settleAll is the tls flush hook: it settles every CPU at the current
// cycle and stepping CPU.
func (m *Machine) settleAll() {
	for _, c := range m.CPUs {
		m.settle(c, m.Clock, m.actor)
	}
}

// materialize ends c's pending state after settle, before another CPU's
// action changes c: an uncounted run tail is undone, and a parked CPU is
// unparked with the readyAt its last settled poll leaves.
func (m *Machine) materialize(c *CPU) {
	m.epoch++
	if c.parked {
		c.parked = false
		m.nparked--
		c.readyAt = c.parkAt
		return
	}
	r := &c.run
	if r.done < r.n {
		m.sched.cuts[m.side(c)]++
		for i := r.n - 1; i >= r.done; i-- {
			c.Regs[r.e[i].reg] = r.e[i].old
		}
		c.PC = int(r.e[r.done].pc)
		c.readyAt = r.e[r.done].start
	}
	r.n, r.done = 0, 0
	c.blk = nil
}

// wakeHead unparks the CPU a commit just made the head. Its next poll is
// this cycle if it steps after the committer, else the next one.
func (m *Machine) wakeHead() {
	for _, w := range m.CPUs {
		if w.parked && m.TLS.IsHead(w.ID) {
			m.sched.wakes[m.side(w)]++
			m.settle(w, m.Clock, m.actor)
			m.materialize(w)
			return
		}
	}
}

// settleStop settles and materializes every CPU when Run returns, so the
// counters, charges and register files are those of the stopping cycle.
func (m *Machine) settleStop() {
	for _, c := range m.CPUs {
		if c.parked {
			m.sched.stopParks++
		} else if c.run.done < c.run.n {
			m.sched.stopCuts++
		}
		m.settle(c, m.Clock, m.actor)
		m.materialize(c)
	}
}

// specStep is the step of a running CPU while speculation is active and
// the block engine is on: it executes the op due at the current cycle —
// a memory op through its tier-2 handler, a boundary op in the interpreter,
// or the first op of a register run — and then the register run after it.
func (m *Machine) specStep(c *CPU) {
	b, i := c.blk, c.bi
	c.blk = nil
	if b == nil {
		b, _ = m.t2.find(true, m, c)
		i = 0
	}
	switch {
	case b == nil || b.ops == nil:
		m.exec(c)
		b = nil
	case b.reg>>i&1 == 0:
		if !m.specMem(c, &b.ops[i]) {
			b = nil
			break
		}
		if i++; i < len(b.ops) && b.reg>>i&1 == 0 {
			// Another memory op follows: it is the next step's.
			if c.state == stateRunning {
				c.blk, c.bi = b, i
			}
			return
		}
	default:
		// A register op is due now: the run starts this cycle. Unless the
		// op traps, which the interpreter must take now.
		if m.runRegs(c, b, i); c.run.n > 0 {
			return
		}
		c.blk = nil
		m.exec(c)
		b = nil
	}
	if c.state == stateRunning && !m.halted && m.TLS.Active() {
		m.runRegs(c, b, i)
	}
}

// specMem executes the memory op o at the current cycle exactly as exec
// would. A trap or out-of-range address hands the instruction to the
// interpreter (or, for a failed bounds check whose length load already
// happened, takes the trap in place); it then returns false.
func (m *Machine) specMem(c *CPU, o *t2op) bool {
	c.extra = 0
	c.faulted = false
	n := o.fn(m, c, o)
	if n < 0 {
		if n == t2DivertBounds {
			m.Instructions++
			m.trap(c, isa.ExArrayBounds, 0)
		} else {
			m.exec(c)
		}
		return false
	}
	m.Instructions++
	c.PC = int(o.pc) + 1
	c.readyAt = m.Clock + n
	m.charge(c, tls.ChargeRun, n)
	if c.overflowPending {
		m.overflowAfter(c)
	}
	return true
}

// runRegs executes c's register run from op i of block b (b nil: the block
// at c.PC), starting at cycle c.readyAt, and leaves c.readyAt at the start
// of the op that ended it. c has no pending run on entry.
func (m *Machine) runRegs(c *CPU, b *t2block, i int) {
	// An op may hold two instructions, so the loop stops while one more
	// would still fit under the edge and in the log.
	lim := m.maxCycles
	if m.ctxDone != nil && m.nextCtxCheck-1 < lim {
		lim = m.nextCtxCheck - 1
	}
	r := &c.run
	s := c.readyAt
	n := 0
	for {
		if b == nil {
			if b, _ = m.t2.find(true, m, c); b == nil {
				break
			}
			i = 0
		}
		// Ops i..end-1 are register-only.
		end := i + mbits.TrailingZeros64(^(b.reg >> uint(i)))
		if end > len(b.ops) {
			end = len(b.ops)
		}
		for ; i < end; i++ {
			if s >= lim || n >= runMax-1 {
				break
			}
			o := &b.ops[i]
			e := &r.e[n]
			e.start, e.old, e.pc, e.reg = s, c.Regs[o.rd], o.pc, o.rd
			cost := o.fn(m, c, o)
			if cost < 0 {
				break // a trap: the interpreter takes it at its own cycle
			}
			n++
			if o.n == 2 {
				// Fused li+branch: the li wrote o.rd; the branch writes none.
				r.e[n] = runEntry{start: s + isa.Cost(o.op), pc: o.pc + 1}
				n++
			}
			s += cost
		}
		if i < len(b.ops) || b.ops == nil {
			// Stopped at a memory or boundary op (or an edge): the next
			// step resumes here.
			if b.ops != nil {
				c.PC = int(b.ops[i].pc)
			}
			c.blk, c.bi = b, i
			break
		}
		if b.endPC >= 0 {
			c.PC = int(b.endPC)
		}
		b, i = m.specSucc(c, b), 0
	}
	r.n = n
	c.readyAt = s
}

// specSucc returns the speculative block at c.PC after block b completed,
// through b's trace links when they cover it.
func (m *Machine) specSucc(c *CPU, b *t2block) *t2block {
	pc := int32(c.PC)
	if pc == b.succPC[0] {
		return b.succ[0]
	}
	if pc == b.succPC[1] {
		return b.succ[1]
	}
	nb, _ := m.t2.find(true, m, c)
	if nb != nil {
		if b.succPC[0] < 0 {
			b.succPC[0], b.succ[0] = pc, nb
		} else if b.succPC[1] < 0 {
			b.succPC[1], b.succ[1] = pc, nb
		}
	}
	return nb
}
