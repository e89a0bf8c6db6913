// Package jit implements microJIT — Jrpm's dynamic compiler (paper §4).
//
// The compiler lowers bytecode to the native ISA through a symbolic operand
// stack with on-demand temporaries, assigns the hottest local variables to
// callee-saved registers (every local also has a frame "home" slot), and
// emits one of three code shapes:
//
//   - ModePlain: ordinary sequential code (the baseline measurement).
//   - ModeAnnotated: sequential code instrumented with the TEST annotation
//     instructions of Table 2 (sloop/eoi/eloop around every natural loop,
//     lwl/swl on interesting local variable accesses) — Figure 1 step 1.
//   - ModeTLS: code recompiled with selected loops as speculative thread
//     loops — Figure 1 step 4 — applying the §4.2 optimizations recorded in
//     the per-loop Plan: loop-invariant register allocation with
//     reload-on-restart, non-communicating (and resetable) loop inductors
//     computed from the hardware iteration register, thread synchronizing
//     locks (lwnv spin), per-CPU reduction accumulation with a merge at loop
//     exit, multilevel decomposition switches, and hoisted startup/shutdown.
package jit

import (
	"fmt"
	"sort"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/faultinject"
	"jrpm/internal/hydra"
	"jrpm/internal/isa"
)

// Mode selects the compilation shape.
type Mode int

// Compilation modes.
const (
	ModePlain Mode = iota
	ModeAnnotated
	ModeTLS
)

// Plan records the decomposition analyzer's decisions for one selected loop.
type Plan struct {
	LoopID   int64 // cfg global loop id
	MethodID int
	Loop     int // per-method loop index

	// Local variable treatment inside the STL.
	Comm       []int         // carried locals communicated via the stack
	Inductors  map[int]int64 // slot → step (non-communicating inductors)
	Resetable  map[int]int64 // slot → step (resetable inductors, §4.2.3)
	Reductions map[int]bytecode.Op
	SyncSlots  []int // locals protected by a thread synchronizing lock

	// InnerSwitch lists global loop ids compiled as multilevel inner STLs
	// inside this loop (§4.2.6); each must have its own Plan with Inner set.
	InnerSwitch []int64
	Inner       bool // this plan is a multilevel inner STL
	Hoisted     bool // hoisted startup/shutdown (§4.2.7)
}

// Selection is the analyzer's full output: plans keyed by global loop id.
type Selection struct {
	Plans map[int64]*Plan
	// NCPU is the processor count the STL code is specialized for (the
	// non-communicating inductor stride and the number of reduction partial
	// slots depend on it). Zero selects the 4-CPU Hydra.
	NCPU int
}

// Report summarizes a compilation for the Figure 9 overhead accounting.
type Report struct {
	Cycles   int64 // modelled compile time in machine cycles
	Methods  int
	STLs     int
	CodeSize int
}

// Compile lowers a whole program. sel may be nil except in ModeTLS.
func Compile(p *bytecode.Program, info *cfg.ProgramInfo, mode Mode, sel *Selection) (*hydra.Image, *Report, error) {
	return CompileWithFaults(p, info, mode, sel, nil)
}

// CompileWithFaults is Compile with a fault injector attached: the injector
// may declare a deterministic lowering failure for a method (channel "jit"),
// which surfaces as an ErrLowering-wrapped error exactly like a genuine
// compiler defect. A nil injector (or a zero jit rate) never fires.
func CompileWithFaults(p *bytecode.Program, info *cfg.ProgramInfo, mode Mode, sel *Selection, inj *faultinject.Injector) (*hydra.Image, *Report, error) {
	if info == nil {
		info = cfg.AnalyzeProgram(p)
	}
	img := &hydra.Image{
		Name:    p.Name,
		STLs:    map[int64]*hydra.STLDesc{},
		Main:    p.Main,
		Statics: p.Statics,
	}
	rep := &Report{}
	nextSTL := int64(1)
	for mi, m := range p.Methods {
		if inj.JITFailure() {
			return nil, nil, fmt.Errorf("jit: method %q: %w: injected lowering failure", m.Name, ErrLowering)
		}
		lw := newLowerer(p, info.Graphs[mi], m, mode, sel, img, &nextSTL)
		hm, err := safeCompile(lw)
		if err != nil {
			return nil, nil, fmt.Errorf("jit: method %q: %w", m.Name, err)
		}
		hm.ID = mi
		img.Methods = append(img.Methods, hm)
		// microJIT cost model: a fast dataflow compiler, a few hundred
		// cycles of fixed work plus per-bytecode lowering cost; STL
		// recompilation adds per-loop work.
		rep.Cycles += 600 + 130*int64(len(m.Code))
		rep.CodeSize += len(hm.Code)
	}
	rep.Methods = len(p.Methods)
	rep.STLs = len(img.STLs)
	rep.Cycles += int64(rep.STLs) * 900
	return img, rep, nil
}

// safeCompile runs one method lowering with a recover wrapper: the lowerer's
// internal invariant panics (symbolic stack underflow, temporary exhaustion,
// malformed selected loops) become ErrLowering-wrapped errors so a compiler
// defect degrades to a compilation failure instead of crashing the process.
func safeCompile(lw *lowerer) (hm *hydra.Method, err error) {
	defer func() {
		if r := recover(); r != nil {
			hm, err = nil, fmt.Errorf("%w: %v", ErrLowering, r)
		}
	}()
	return lw.compile()
}

// placement maps each local slot to a register, or NoReg for memory-resident
// locals (which live only in their frame home slot).
const noReg = isa.Reg(0)

type placement struct {
	reg   []isa.Reg // per slot; noReg = memory resident
	saved []isa.Reg // registers used, in save order
}

// assignRegisters picks up to NumSaved locals for callee-saved registers.
// Locals needed by STL optimizations (inductors, resetable inductors,
// reductions) are forced into registers; sync-lock-protected locals are
// forced into memory (their accesses must be the real communication);
// everything else competes by loop-depth-weighted use count.
func assignRegisters(g *cfg.Graph, m *bytecode.Method, mode Mode, plans []*Plan) (placement, error) {
	pl := placement{reg: make([]isa.Reg, m.NLocals)}
	forcedReg := map[int]bool{}
	forcedMem := map[int]bool{}
	for _, p := range plans {
		// order-insensitive: set insertion
		for s := range p.Inductors {
			forcedReg[s] = true
		}
		// order-insensitive: set insertion
		for s := range p.Resetable {
			forcedReg[s] = true
		}
		// order-insensitive: set insertion
		for s := range p.Reductions {
			forcedReg[s] = true
		}
		for _, s := range p.SyncSlots {
			forcedMem[s] = true
		}
	}
	for _, s := range sortedKeys(forcedReg) {
		if forcedMem[s] {
			return pl, fmt.Errorf("slot %d both register-forced and lock-protected", s)
		}
	}

	// Loop-depth-weighted static use counts.
	weight := make([]int64, m.NLocals)
	for _, b := range g.Blocks {
		w := int64(1)
		if l := g.InnermostLoopOf(b.ID); l != nil {
			for d := 0; d < l.Depth && d < 4; d++ {
				w *= 10
			}
		}
		for pc := b.Start; pc < b.End; pc++ {
			in := m.Code[pc]
			switch in.Op {
			case bytecode.LOAD, bytecode.STORE, bytecode.IINC:
				weight[in.A] += w
			}
		}
	}
	type cand struct {
		slot int
		w    int64
	}
	var cands []cand
	for s := 0; s < m.NLocals; s++ {
		if forcedMem[s] {
			continue
		}
		if forcedReg[s] {
			cands = append(cands, cand{s, 1 << 60})
		} else if weight[s] > 0 {
			cands = append(cands, cand{s, weight[s]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].slot < cands[j].slot
	})
	if len(cands) > isa.NumSaved {
		for _, c := range cands[isa.NumSaved:] {
			if forcedReg[c.slot] {
				return pl, fmt.Errorf("too many register-forced locals (%d candidates)", len(cands))
			}
		}
		cands = cands[:isa.NumSaved]
	}
	// Deterministic register order by slot.
	sort.Slice(cands, func(i, j int) bool { return cands[i].slot < cands[j].slot })
	for i, c := range cands {
		r := isa.S0 + isa.Reg(i)
		pl.reg[c.slot] = r
		pl.saved = append(pl.saved, r)
	}
	return pl, nil
}

// stackDepths computes the operand stack depth at each bytecode pc (the
// program has already passed bytecode.Verify, so depths are consistent).
func stackDepths(p *bytecode.Program, m *bytecode.Method) []int {
	n := len(m.Code)
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	type item struct{ pc, d int }
	work := []item{{0, 0}}
	for _, h := range m.Handlers {
		work = append(work, item{h.Target, 1})
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d := it.pc, it.d
		for pc < n && depth[pc] == -1 {
			depth[pc] = d
			in := m.Code[pc]
			pops, pushes := bytecode.StackEffect(p, in)
			d = d - pops + pushes
			if in.IsBranch() {
				work = append(work, item{int(in.A), d})
			}
			if in.Terminates() {
				break
			}
			pc++
		}
	}
	return depth
}
