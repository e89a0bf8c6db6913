package hydra

import (
	"errors"
	"testing"

	"jrpm/internal/isa"
	"jrpm/internal/mem"
	"jrpm/internal/obs"
)

// Wild data accesses made inside an operation that reaches memory more than
// once (CHKIDX, and runtime services through RuntimeLoad/RuntimeStore).

const (
	wildRef  = 1 << 30 // far beyond MemWords
	validRef = 150000  // an array with a large length word and a free lock word
	ptrCell  = 200000  // the shared cell holding the ref each iteration uses
)

// wildOps are the operations under test, each taking its ref in T2.
var wildOps = []struct {
	name string
	emit func(b *isa.Builder)
}{
	{"chkidx", func(b *isa.Builder) { b.Emit(isa.Instr{Op: isa.CHKIDX, Rs: isa.T2, Rt: isa.Zero}) }},
	{"monenter", func(b *isa.Builder) { b.Emit(isa.Instr{Op: isa.MONENTER, Rs: isa.T2}) }},
}

// wildMode selects how buildWildRefSTL's shared ref cell evolves.
type wildMode int

const (
	// wrongPath: the cell starts wild and iteration 0 fixes it after a
	// delay, so the younger threads that already read the wild ref are on a
	// wrong path: they fault, park, and are squashed by iteration 0's store.
	wrongPath wildMode = iota
	// allWild: the cell stays wild, so the head's fault is architectural.
	allWild
	// lateWild: the cell starts valid and iteration 0 makes it wild after
	// its own use. The younger threads are squashed, re-read the wild ref,
	// fault and park; the first of them surfaces its parked fault when it
	// becomes the head.
	lateWild
)

// buildWildRefSTL assembles an STL whose every iteration reads a ref from
// ptrCell and applies op to it.
func buildWildRefSTL(n int64, op func(b *isa.Builder), mode wildMode) *Image {
	initial, stored := int64(wildRef), int64(validRef)
	if mode == lateWild {
		initial, stored = validRef, wildRef
	}
	b := isa.NewBuilder()
	b.Li(isa.T0, 0)
	b.Sw(isa.T0, isa.FP, 0) // i home
	b.Li(isa.T0, n)
	b.Sw(isa.T0, isa.FP, 1) // limit home
	b.Li(isa.T0, 1000)
	b.Li(isa.T1, validRef)
	b.Sw(isa.T0, isa.T1, 2) // validRef's array length
	b.Li(isa.T0, initial)
	b.Li(isa.T1, ptrCell)
	b.Sw(isa.T0, isa.T1, 0)
	b.Emit(isa.Instr{Op: isa.STLSTART, Imm: 1})
	b.Label("init")
	b.Emit(isa.Instr{Op: isa.MFC2, Rd: isa.T1, Imm: isa.CP2Iteration})
	b.Lw(isa.S0, isa.FP, 0)
	b.Op3(isa.ADD, isa.S0, isa.S0, isa.T1)
	b.Lw(isa.S1, isa.FP, 1)
	b.Li(isa.S2, ptrCell)
	b.Label("top")
	b.Br(isa.BGE, isa.S0, isa.S1, "shutdown")
	iter0Store := func(skip string) {
		b.Br(isa.BNE, isa.S0, isa.Zero, skip)
		for i := 0; i < 40; i++ {
			b.Op3(isa.ADD, isa.T3, isa.T3, isa.T3)
		}
		b.Li(isa.T2, stored)
		b.Sw(isa.T2, isa.S2, 0)
	}
	if mode == wrongPath {
		iter0Store("use")
	}
	b.Label("use")
	b.Lw(isa.T2, isa.S2, 0)
	op(b)
	if mode == lateWild {
		iter0Store("eoi")
	}
	b.Label("eoi")
	b.Emit(isa.Instr{Op: isa.STLEOI})
	b.OpImm(isa.ADDI, isa.S0, isa.S0, 4)
	b.Jmp("top")
	b.Label("shutdown")
	b.Emit(isa.Instr{Op: isa.STLSHUTDOWN})
	b.Emit(isa.Instr{Op: isa.HALT})
	img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 8})
	img.STLs[1] = &STLDesc{ID: 1, Method: 0, InitPC: b.LabelPC("init"),
		BodyStart: b.LabelPC("init"), BodyEnd: b.LabelPC("shutdown") + 1}
	return img
}

// TestSpeculativeWildAccessParksThenSquashes: a non-head thread's wild
// access inside CHKIDX or a runtime service parks the thread, and the older
// thread's store squashes it; the loop then completes normally.
func TestSpeculativeWildAccessParksThenSquashes(t *testing.T) {
	for _, op := range wildOps {
		t.Run(op.name, func(t *testing.T) {
			ring := obs.NewRing(1 << 14)
			opts := DefaultOptions()
			opts.Recorder = ring
			m := NewMachine(buildWildRefSTL(16, op.emit, wrongPath), newStubRuntime(), opts)
			if err := m.Run(5_000_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			parked := 0
			for _, ev := range ring.Events() {
				if ev.Kind == obs.EvThreadWait && ev.Arg == obs.WaitException {
					parked++
				}
			}
			if parked == 0 {
				t.Fatal("no thread parked on the wrong-path wild access")
			}
			if m.TLS.Violations == 0 {
				t.Fatal("the parked threads were never squashed")
			}
		})
	}
}

// TestSpeculativeWildAccessSurfacesAsMemFault: a wild ref that sequential
// execution would use too reaches architectural execution and halts the
// machine with a typed MemFault — raised by the head directly (allWild) or
// surfaced from a parked non-head thread once it becomes the head
// (lateWild). The fields are pinned to what the panic-based fault delivery
// produced.
func TestSpeculativeWildAccessSurfacesAsMemFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode wildMode
		op   int // index into wildOps
		want MemFault
	}{
		{"chkidx/allWild", allWild, 0, MemFault{CPU: 0, Cycle: 47, Addr: wildRef + 2, Method: "main", PC: 18}},
		{"monenter/allWild", allWild, 1, MemFault{CPU: 0, Cycle: 47, Addr: wildRef + 1, Method: "main", PC: 18}},
		{"chkidx/lateWild", lateWild, 0, MemFault{CPU: 1, Cycle: 107, Addr: wildRef + 2, Method: "main", PC: 18}},
		{"monenter/lateWild", lateWild, 1, MemFault{CPU: 1, Cycle: 109, Addr: wildRef + 1, Method: "main", PC: 18}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(buildWildRefSTL(16, wildOps[tc.op].emit, tc.mode), newStubRuntime(), DefaultOptions())
			err := m.Run(5_000_000)
			var f *MemFault
			if !errors.As(err, &f) {
				t.Fatalf("err = %v, want *MemFault", err)
			}
			if *f != tc.want {
				t.Fatalf("fault = %+v, want %+v", *f, tc.want)
			}
		})
	}
}

// TestArchitecturalWildAccessIsMemFault: the same accesses outside
// speculation, plus a runtime allocation whose header store is wild, give a
// typed MemFault, never ErrInternal.
func TestArchitecturalWildAccessIsMemFault(t *testing.T) {
	cases := []struct {
		name  string
		emit  func(b *isa.Builder)
		next  int64 // the stub allocator's next ref
		addr  int64
		write bool
	}{
		{"chkidx", wildOps[0].emit, int64(HeapBase), wildRef + 2, false},
		{"monenter", wildOps[1].emit, int64(HeapBase), wildRef + 1, false},
		{"alloc", func(b *isa.Builder) { b.Emit(isa.Instr{Op: isa.ALLOC, Rd: isa.T3, Imm: 3}) }, wildRef, wildRef, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := isa.NewBuilder()
			b.Li(isa.T2, wildRef)
			b.Li(isa.T3, 5)
			tc.emit(b)
			b.Emit(isa.Instr{Op: isa.IOPUT, Rs: isa.T3})
			b.Emit(isa.Instr{Op: isa.HALT})
			img := image(&Method{Name: "main", Code: b.Finish(), FrameWords: 4})
			m := NewMachine(img, &stubRuntime{next: tc.next}, DefaultOptions())
			err := m.Run(1_000_000)
			if errors.Is(err, ErrInternal) {
				t.Fatalf("err = %v, want a MemFault, not ErrInternal", err)
			}
			var f *MemFault
			if !errors.As(err, &f) {
				t.Fatalf("err = %v, want *MemFault", err)
			}
			if f.Addr != mem.Addr(tc.addr) || f.Write != tc.write || f.PC != 2 || f.CPU != 0 {
				t.Fatalf("fault = %+v, want addr %d write %v at pc 2 on cpu0", *f, tc.addr, tc.write)
			}
			if len(m.Output) != 0 {
				t.Fatalf("output %v: the faulting instruction must not retire", m.Output)
			}
		})
	}
}

// TestFaultLatchDropsLaterAccesses: after a wild access latches, the rest of
// the instruction's accesses do nothing — no buffered store, no latency.
func TestFaultLatchDropsLaterAccesses(t *testing.T) {
	m := specMachine(nil)
	c := m.CPUs[1] // a speculative non-head thread
	c.state = stateRunning
	a := HeapBase + 64
	m.RuntimeLoad(1, wildRef, ClassLock)
	if !c.faulted || c.pendingFault == nil || c.pendingFault.Addr != wildRef || c.state != stateWaitException {
		t.Fatalf("wild load did not park and latch: faulted=%v pending=%v state=%v", c.faulted, c.pendingFault, c.state)
	}
	m.RuntimeStore(1, a, 7, ClassLock)
	if v := m.RuntimeLoad(1, a, ClassLock); v != 0 || c.extra != 0 {
		t.Fatalf("latched load returned %d and charged %d cycles, want 0 and 0", v, c.extra)
	}
	if c.pendingFault.Addr != wildRef {
		t.Fatalf("a later access replaced the parked fault: %+v", c.pendingFault)
	}
	c.faulted = false // the next instruction
	if v := m.RuntimeLoad(1, a, ClassLock); v != 0 {
		t.Fatalf("the latched store was buffered: load sees %d", v)
	}
}
