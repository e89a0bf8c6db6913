package hydra

import (
	"jrpm/internal/isa"
)

// Speculative loop images for the scheduler tests. Each drives one kind of
// cross-CPU event into the middle of register runs or parked waits.

// specLoop assembles main() around one STL over i in [0, n): the body is
// emitted by body with S0 = i and S1 = n, ending at label "eoi". Memory:
// fp+0 = i home, fp+1 = n.
func specLoop(n int64, setup, body func(b *isa.Builder)) *Image {
	b := isa.NewBuilder()
	b.Li(isa.T0, 0)
	b.Sw(isa.T0, isa.FP, 0)
	b.Li(isa.T0, n)
	b.Sw(isa.T0, isa.FP, 1)
	if setup != nil {
		setup(b)
	}
	b.Emit(isa.Instr{Op: isa.STLSTART, Imm: 1})
	b.Label("init")
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T1, Imm: isa.CP2Iteration})
	b.Lw(isa.S0, isa.FP, 0)
	b.Op3(isa.ADD, isa.S0, isa.S0, isa.T1)
	b.Lw(isa.S1, isa.FP, 1)
	b.Label("top")
	body(b)
	b.Label("eoi")
	b.Emit(isa.Instr{Op: isa.STLEOI})
	b.OpImm(isa.ADDI, isa.S0, isa.S0, 4)
	b.Jmp("top")
	b.Label("shutdown")
	b.Emit(isa.Instr{Op: isa.STLSHUTDOWN})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
	img.STLs[1] = &STLDesc{ID: 1, LoopID: 1, Method: 0, InitPC: b.LabelPC("init"),
		BodyStart: b.LabelPC("init"), BodyEnd: b.LabelPC("shutdown") + 1}
	return img
}

// busy emits n register-only instructions, every third a multi-cycle
// multiply so runs end at cycles their last start does not reach.
func busy(b *isa.Builder, n int) {
	for i := 0; i < n; i++ {
		op := isa.ADD
		if i%3 == 2 {
			op = isa.MUL
		}
		b.Op3(op, isa.T3, isa.T3, isa.S0)
	}
}

const sharedCell = 200000

// serialized: every iteration reads a shared counter early and writes it
// late around a register run, so older threads' writes violate younger
// threads in the middle of their runs; odd iterations are short and reach
// STL_EOI early, so some victims are parked waiters.
func serializedSpec(n int64) *Image {
	return specLoop(n, func(b *isa.Builder) {
		b.Li(isa.T0, 0)
		b.Li(isa.S2, sharedCell)
		b.Sw(isa.T0, isa.S2, 0)
	}, func(b *isa.Builder) {
		b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
		b.Lw(isa.T2, isa.S2, 0)
		b.OpImm(isa.ANDI, isa.T4, isa.S0, 1)
		b.Br(isa.BNE, isa.T4, isa.Zero, "short")
		busy(b, 24)
		b.Label("short")
		busy(b, 6)
		b.OpImm(isa.ADDI, isa.T2, isa.T2, 1)
		b.Sw(isa.T2, isa.S2, 0)
	})
}

// unevenSpec: an independent loop whose every fourth iteration is long, so
// the three after it wait at STL_EOI and are woken one by one, by
// committers both below (CPU 0 after CPU 3) and above their index.
func unevenSpec(n int64) *Image {
	return specLoop(n, nil, func(b *isa.Builder) {
		b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
		b.OpImm(isa.ANDI, isa.T4, isa.S0, 3)
		b.Li(isa.T5, 3)
		b.Br(isa.BNE, isa.T4, isa.T5, "short")
		busy(b, 40)
		b.Label("short")
		busy(b, 3)
		b.OpImm(isa.ADDI, isa.T3, isa.S0, 100000)
		b.Sw(isa.S0, isa.T3, 0)
	})
}

// ioSpec prints every iteration's index after a variable register run, so
// younger threads reach the IOPUT first and park until they are the head.
func ioSpec(n int64) *Image {
	return specLoop(n, nil, func(b *isa.Builder) {
		b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
		b.OpImm(isa.ANDI, isa.T2, isa.S0, 3)
		b.Label("spin")
		b.Br(isa.BLE, isa.T2, isa.Zero, "emit")
		b.OpImm(isa.ADDI, isa.T2, isa.T2, -1)
		b.Op3(isa.MUL, isa.T3, isa.T2, isa.T2)
		b.Jmp("spin")
		b.Label("emit")
		b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.S0})
	})
}

// lateExit: the loop test sits after a long register run, so the thread
// that exits the loop shuts the STL down while younger threads are in the
// middle of theirs.
func lateExitSpec(n int64) *Image {
	return specLoop(n, nil, func(b *isa.Builder) {
		busy(b, 20)
		b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
		b.OpImm(isa.ADDI, isa.T3, isa.S0, 100000)
		b.Sw(isa.S0, isa.T3, 0)
	})
}

// allocSpec allocates in every iteration behind a register run; the
// runtime forces collections, which quiesce younger threads mid-run.
func allocSpec(n int64) *Image {
	return specLoop(n, nil, func(b *isa.Builder) {
		b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
		busy(b, 12)
		b.Emit(isa.Instr{Op: isa.ALLOC, Rd: isa.T2, Imm: 3})
		busy(b, 12)
		b.OpImm(isa.ADDI, isa.T3, isa.S0, 100000)
		b.Sw(isa.T2, isa.T3, 0)
	})
}

// gcEveryRuntime fails every k-th allocation that a speculative non-head
// thread makes, so the thread parks until it is the head and collects.
type gcEveryRuntime struct {
	*stubRuntime
	k, n int
}

func (g *gcEveryRuntime) Alloc(m *Machine, cpu int, classID int64) (int64, bool) {
	if m.SpecActive() && !m.TLS.IsHead(cpu) {
		if g.n++; g.n%g.k == 0 {
			return 0, true
		}
	}
	return g.stubRuntime.Alloc(m, cpu, classID)
}

// multilevelSpec: outer STL 1 over i in [0, n); iteration 2 switches into
// inner STL 2 over j in [0, inner) and back out. Younger outer threads are
// in register runs at the switch-in, younger inner threads at the
// switch-out.
func multilevelSpec(n, inner int64) *Image {
	b := isa.NewBuilder()
	b.Li(isa.T0, 0)
	b.Sw(isa.T0, isa.FP, 0)
	b.Li(isa.T0, n)
	b.Sw(isa.T0, isa.FP, 1)
	b.Emit(isa.Instr{Op: isa.STLSTART, Imm: 1})
	b.Label("init")
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T1, Imm: isa.CP2Iteration})
	b.Lw(isa.S0, isa.FP, 0)
	b.Op3(isa.ADD, isa.S0, isa.S0, isa.T1)
	b.Lw(isa.S1, isa.FP, 1)
	b.Label("top")
	b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
	busy(b, 16)
	b.Li(isa.T4, 2)
	b.Br(isa.BNE, isa.S0, isa.T4, "rest")
	b.Emit(isa.Instr{Op: isa.STLSWSTART, Imm: 2})
	b.Label("iinit")
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.S3, Imm: isa.CP2Iteration})
	b.Li(isa.S4, inner)
	b.Label("itop")
	busy(b, 10)
	b.Br(isa.BGE, isa.S3, isa.S4, "iexit")
	b.OpImm(isa.ADDI, isa.T3, isa.S3, 150000)
	b.Sw(isa.S3, isa.T3, 0)
	b.Emit(isa.Instr{Op: isa.STLEOI})
	b.OpImm(isa.ADDI, isa.S3, isa.S3, 4)
	b.Jmp("itop")
	b.Label("iexit")
	b.Emit(isa.Instr{Op: isa.STLSWEND})
	b.Label("rest")
	b.OpImm(isa.ADDI, isa.T3, isa.S0, 100000)
	b.Sw(isa.S0, isa.T3, 0)
	b.Emit(isa.Instr{Op: isa.STLEOI})
	b.OpImm(isa.ADDI, isa.S0, isa.S0, 4)
	b.Jmp("top")
	b.Label("shutdown")
	b.Emit(isa.Instr{Op: isa.STLSHUTDOWN})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
	img.STLs[1] = &STLDesc{ID: 1, LoopID: 1, Method: 0, InitPC: b.LabelPC("init"),
		BodyStart: b.LabelPC("init"), BodyEnd: b.LabelPC("shutdown") + 1}
	img.STLs[2] = &STLDesc{ID: 2, LoopID: 2, Method: 0, InitPC: b.LabelPC("iinit"),
		BodyStart: b.LabelPC("iinit"), BodyEnd: b.LabelPC("iexit") + 1, Inner: true}
	return img
}
