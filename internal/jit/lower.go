package jit

import (
	"fmt"
	"sort"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/hydra"
	"jrpm/internal/isa"
	"jrpm/internal/obs"
)

// vKind classifies symbolic operand-stack entries.
type vKind int

const (
	vConst vKind = iota // compile-time constant
	vLocal              // a local variable (register- or memory-resident)
	vTemp               // value held in a temporary register
	vSpill              // value spilled to a frame slot
)

type val struct {
	kind  vKind
	c     int64
	slot  int
	reg   isa.Reg
	spill int64
}

// stlCtx carries the per-selected-loop codegen state.
type stlCtx struct {
	plan       *Plan
	loop       *cfg.Loop
	stlID      int64
	lockOf     map[int]int64 // sync slot → frame offset of its lock word
	redBase    map[int]int64 // reduction slot → frame offset of NCPU partials
	resetAt    map[int]int64 // resetable slot → frame offset of base-iter word
	commSet    map[int]bool
	indStep    map[int]int64 // inductors ∪ resetable → step
	waitPC     map[int]int   // bytecode pc → sync slot to wait on before it
	sigPC      map[int]int   // bytecode pc → sync slot to signal after it
	resetStore map[int]int   // bytecode pc → resetable slot (forced comm)
	exitTgt    int           // unique bytecode exit target
	lastPC     int           // last bytecode pc lexically inside the loop
	desc       *hydra.STLDesc
}

type lowerer struct {
	prog    *bytecode.Program
	g       *cfg.Graph
	m       *bytecode.Method
	mode    Mode
	sel     *Selection
	img     *hydra.Image
	nextSTL *int64
	ncpu    int

	b      *isa.Builder
	place  placement
	depths []int
	leader map[int]bool
	hEntry map[int]bool // handler target pcs

	stack    []val
	tempBusy [isa.NumTemps]bool

	nHomes    int64
	saveBase  int64
	extraNext int64
	spillBase int64
	spillMax  int64
	freeSpill []int64

	stls     map[int]*stlCtx // loop index → ctx (selected loops only)
	npcOf    []int
	stubs    []func() // deferred stub emission at method end
	stubSeq  int
	seenStub map[string]bool
}

func newLowerer(p *bytecode.Program, g *cfg.Graph, m *bytecode.Method, mode Mode,
	sel *Selection, img *hydra.Image, nextSTL *int64) *lowerer {
	ncpu := 4
	if sel != nil && sel.NCPU > 0 {
		ncpu = sel.NCPU
	}
	return &lowerer{
		prog: p, g: g, m: m, mode: mode, sel: sel, img: img, nextSTL: nextSTL,
		ncpu: ncpu, b: isa.NewBuilder(),
		leader: map[int]bool{}, hEntry: map[int]bool{}, stls: map[int]*stlCtx{},
	}
}

func (lw *lowerer) compile() (*hydra.Method, error) {
	if lw.m.NArgs > isa.NumArgRegs {
		return nil, fmt.Errorf("more than %d arguments", isa.NumArgRegs)
	}
	var plans []*Plan
	if lw.mode == ModeTLS && lw.sel != nil {
		for _, p := range lw.sel.Plans {
			if p.MethodID == lw.m.ID {
				plans = append(plans, p)
			}
		}
		// Plan order fixes STL ids and frame-slot layout; sort so the
		// emitted image does not depend on map iteration order.
		sort.Slice(plans, func(i, j int) bool { return plans[i].Loop < plans[j].Loop })
	}
	var err error
	lw.place, err = assignRegisters(lw.g, lw.m, lw.mode, plans)
	if err != nil {
		return nil, err
	}
	lw.nHomes = int64(lw.m.NLocals)
	lw.saveBase = lw.nHomes
	lw.extraNext = lw.saveBase + int64(len(lw.place.saved))
	for _, p := range plans {
		if err := lw.prepareSTL(p); err != nil {
			return nil, err
		}
	}
	lw.spillBase = lw.extraNext

	lw.depths = stackDepths(lw.prog, lw.m)
	for _, b := range lw.g.Blocks {
		lw.leader[b.Start] = true
	}
	for _, h := range lw.m.Handlers {
		lw.hEntry[h.Target] = true
	}
	lw.npcOf = make([]int, len(lw.m.Code)+1)

	lw.prologue()
	for pc := 0; pc < len(lw.m.Code); pc++ {
		lw.atBoundary(pc)
		lw.npcOf[pc] = lw.b.PC()
		if lw.depths[pc] == -1 {
			continue // unreachable
		}
		if err := lw.lower(pc); err != nil {
			return nil, fmt.Errorf("pc %d (%s): %w", pc, lw.m.Code[pc].Op.Name(), err)
		}
	}
	lw.npcOf[len(lw.m.Code)] = lw.b.PC()
	for _, stub := range lw.stubs {
		stub()
	}
	code := lw.b.Finish()

	hm := &hydra.Method{
		Name:       lw.m.Name,
		Code:       code,
		FrameWords: lw.spillBase + lw.spillMax + 2,
		SavedRegs:  lw.place.saved,
		SaveBase:   lw.saveBase,
		Frame:      lw.frameTable(),
	}
	for _, h := range lw.m.Handlers {
		hm.Handlers = append(hm.Handlers, hydra.Handler{
			Start:  lw.npcOf[h.Start],
			End:    lw.npcOf[h.End],
			Target: lw.b.LabelPC(fmt.Sprintf("bc_%d", h.Target)),
			Kind:   h.Kind,
		})
	}
	// Finalize STL descriptors.
	// order-insensitive: each STL finalizes only its own descriptor
	for _, ctx := range lw.stls {
		ctx.desc.InitPC = lw.b.LabelPC(lw.lbl("init", ctx.loop.Index))
		ctx.desc.BodyStart = lw.b.LabelPC(lw.lbl("pre", ctx.loop.Index))
		ctx.desc.BodyEnd = lw.npcOf[ctx.lastPC+1]
	}
	return hm, nil
}

func (lw *lowerer) lbl(kind string, loop int) string { return fmt.Sprintf("%s_%d", kind, loop) }

// frameTable builds the per-word debug classification of the frame layout
// just allocated — local homes, callee-save area, per-STL bookkeeping words,
// spill area — so the speculation doctor can symbolize stack-region
// violation addresses back to bytecode slots. Each offset is written exactly
// once, so the stls map iteration order does not matter.
func (lw *lowerer) frameTable() []obs.FrameSlot {
	frame := make([]obs.FrameSlot, lw.spillBase+lw.spillMax+2)
	for i := int64(0); i < lw.nHomes; i++ {
		frame[i] = obs.FrameSlot{Kind: obs.SlotLocal, Index: int32(i)}
	}
	for i := range lw.place.saved {
		frame[lw.saveBase+int64(i)] = obs.FrameSlot{Kind: obs.SlotSaved, Index: int32(i)}
	}
	// order-insensitive: each frame offset is written exactly once
	for _, ctx := range lw.stls {
		// order-insensitive: each frame offset is written exactly once
		for s, off := range ctx.resetAt {
			frame[off] = obs.FrameSlot{Kind: obs.SlotResetBase, Index: int32(s)}
		}
		// order-insensitive: each frame offset is written exactly once
		for s, off := range ctx.lockOf {
			frame[off] = obs.FrameSlot{Kind: obs.SlotLock, Index: int32(s)}
		}
		// order-insensitive: each frame offset is written exactly once
		for s, base := range ctx.redBase {
			for i := 0; i < lw.ncpu; i++ {
				frame[base+int64(i)] = obs.FrameSlot{Kind: obs.SlotRed, Index: int32(s)}
			}
		}
	}
	for i := int64(0); i < lw.spillMax; i++ {
		frame[lw.spillBase+i] = obs.FrameSlot{Kind: obs.SlotSpill}
	}
	return frame
}

// prepareSTL allocates frame slots and builds the codegen context for one
// selected loop.
func (lw *lowerer) prepareSTL(p *Plan) error {
	l := lw.g.Loops[p.Loop]
	if len(l.Exits) != 1 {
		return fmt.Errorf("loop %d has %d exit targets; STL selection requires one", p.Loop, len(l.Exits))
	}
	ctx := &stlCtx{
		plan: p, loop: l,
		lockOf: map[int]int64{}, redBase: map[int]int64{}, resetAt: map[int]int64{},
		commSet: map[int]bool{}, indStep: map[int]int64{},
		waitPC: map[int]int{}, sigPC: map[int]int{},
		exitTgt: lw.g.Blocks[l.Exits[0]].Start,
	}
	ctx.stlID = *lw.nextSTL
	*lw.nextSTL++
	for _, s := range p.Comm {
		ctx.commSet[s] = true
	}
	// order-insensitive: copies each entry under its own key
	for s, st := range p.Inductors {
		ctx.indStep[s] = st
	}
	// Frame-slot allocation below must not depend on map iteration order:
	// these offsets are baked into the emitted code.
	for _, s := range sortedKeys(p.Resetable) {
		ctx.indStep[s] = p.Resetable[s]
		ctx.resetAt[s] = lw.extraNext
		lw.extraNext++
	}
	for _, s := range p.SyncSlots {
		ctx.lockOf[s] = lw.extraNext
		lw.extraNext++
	}
	for _, s := range sortedKeys(p.Reductions) {
		ctx.redBase[s] = lw.extraNext
		lw.extraNext += int64(lw.ncpu)
	}
	// Sync lock wait/signal placement: first and last access to each
	// protected slot, in bytecode order within the loop.
	for _, s := range p.SyncSlots {
		first, last := -1, -1
		for _, b := range l.BlockIDs {
			blk := lw.g.Blocks[b]
			for pc := blk.Start; pc < blk.End; pc++ {
				in := lw.m.Code[pc]
				if (in.Op == bytecode.LOAD || in.Op == bytecode.STORE || in.Op == bytecode.IINC) && int(in.A) == s {
					if first == -1 || pc < first {
						first = pc
					}
					if pc > last {
						last = pc
					}
				}
			}
		}
		if first == -1 {
			return fmt.Errorf("sync slot %d never accessed in loop", s)
		}
		ctx.waitPC[first] = s
		ctx.sigPC[last] = s
	}
	// Lexical end of the loop for the STL body range.
	for _, b := range l.BlockIDs {
		if e := lw.g.Blocks[b].End - 1; e > ctx.lastPC {
			ctx.lastPC = e
		}
	}
	ctx.desc = &hydra.STLDesc{
		ID: ctx.stlID, LoopID: p.LoopID, Method: lw.m.ID,
		Inner: p.Inner, Hoisted: p.Hoisted,
	}
	lw.img.STLs[ctx.stlID] = ctx.desc
	lw.stls[p.Loop] = ctx
	lw.locateInductorSites(ctx)
	return nil
}

// prologue emits callee-saved stores and argument placement.
func (lw *lowerer) prologue() {
	for i, reg := range lw.place.saved {
		lw.b.Sw(reg, isa.FP, lw.saveBase+int64(i))
	}
	for a := 0; a < lw.m.NArgs; a++ {
		src := isa.A0 + isa.Reg(a)
		if r := lw.place.reg[a]; r != noReg {
			lw.b.Move(r, src)
		} else {
			lw.b.Sw(src, isa.FP, int64(a))
		}
	}
}

// epilogue restores callee-saved registers before a return.
func (lw *lowerer) epilogue() {
	for i, reg := range lw.place.saved {
		lw.b.Lw(reg, isa.FP, lw.saveBase+int64(i))
	}
}

// atBoundary handles everything that happens between bytecode instructions:
// canonicalizing the symbolic stack at leaders, loop entry/exit bookkeeping
// (annotations or STL prologues) and label emission.
func (lw *lowerer) atBoundary(pc int) {
	if !lw.leader[pc] {
		return
	}
	lw.flushCanonical()
	// Fallthrough loop exits (annotated mode): previous instruction falls
	// into this block from inside loops that do not contain it.
	if lw.mode == ModeAnnotated && pc > 0 && lw.depths[pc-1] != -1 && !lw.m.Code[pc-1].Terminates() {
		for _, l := range lw.exitedLoops(pc-1, pc) {
			lw.b.Emit(isa.Instr{Op: isa.ELOOP, Imm: lw.loopID(l)})
		}
	}
	// Loop header prologues.
	blk := lw.g.BlockAt(pc)
	for _, l := range lw.g.Loops {
		if l.Header == blk && lw.g.Blocks[blk].Start == pc {
			lw.emitLoopEntry(l)
		}
	}
	lw.b.Label(fmt.Sprintf("bc_%d", pc))
	// Re-seed the symbolic stack for this leader's depth.
	d := lw.depths[pc]
	if d < 0 {
		d = 0
	}
	lw.resetStack(d)
	if lw.hEntry[pc] {
		// Handler entry: the exception object arrives in $v0.
		lw.resetStack(1)
		lw.b.Move(isa.T0, isa.V0)
	}
}

// loopID returns the global loop id for annotations.
func (lw *lowerer) loopID(l *cfg.Loop) int64 { return cfg.GlobalLoopID(lw.m.ID, l.Index) }

// enclosingLoops returns loops containing block b, innermost first.
func (lw *lowerer) enclosingLoops(b int) []*cfg.Loop {
	var out []*cfg.Loop
	for _, l := range lw.g.Loops {
		if l.Blocks[b] {
			out = append(out, l)
		}
	}
	// Innermost (smallest) first.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if len(out[j].Blocks) < len(out[i].Blocks) {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// exitedLoops returns loops containing srcPC's block but not tgtPC's block,
// innermost first.
func (lw *lowerer) exitedLoops(srcPC, tgtPC int) []*cfg.Loop {
	src, tgt := lw.g.BlockAt(srcPC), lw.g.BlockAt(tgtPC)
	var out []*cfg.Loop
	for _, l := range lw.enclosingLoops(src) {
		if !l.Blocks[tgt] {
			out = append(out, l)
		}
	}
	return out
}

// jumpLabel routes a lowered branch through the right loop machinery:
// back edges go through end-of-iteration stubs, loop entries through the
// sloop/STL prologue, and exits through eloop/shutdown stubs.
func (lw *lowerer) jumpLabel(srcPC, tgt int) string {
	srcBlk, tgtBlk := lw.g.BlockAt(srcPC), lw.g.BlockAt(tgt)
	final := fmt.Sprintf("bc_%d", tgt)
	var hdr *cfg.Loop
	for _, l := range lw.g.Loops {
		if l.Header == tgtBlk && lw.g.Blocks[tgtBlk].Start == tgt {
			hdr = l
			break
		}
	}
	if hdr != nil {
		if hdr.Blocks[srcBlk] { // back edge
			if ctx := lw.stls[hdr.Index]; ctx != nil {
				final = lw.lbl("eoi", hdr.Index)
			} else if lw.mode == ModeAnnotated {
				final = lw.lbl("aeoi", hdr.Index)
				lw.ensureAnnBackStub(hdr)
			}
		} else { // loop entry
			if lw.stls[hdr.Index] != nil || lw.mode == ModeAnnotated {
				final = lw.lbl("pre", hdr.Index)
			}
		}
	}
	exited := lw.exitedLoops(srcPC, tgt)
	if lw.mode == ModeTLS {
		for _, l := range exited {
			if ctx := lw.stls[l.Index]; ctx != nil {
				if tgt != ctx.exitTgt {
					panic(fmt.Sprintf("jit: selected loop %d exits to %d, expected %d", l.Index, tgt, ctx.exitTgt))
				}
				return lw.lbl("exit", l.Index)
			}
		}
		return final
	}
	if lw.mode == ModeAnnotated && len(exited) > 0 {
		lw.stubSeq++
		name := fmt.Sprintf("x_%d_%d", srcPC, lw.stubSeq)
		loops := exited
		fin := final
		lw.stubs = append(lw.stubs, func() {
			lw.b.Label(name)
			for _, l := range loops {
				lw.b.Emit(isa.Instr{Op: isa.ELOOP, Imm: lw.loopID(l)})
			}
			lw.b.Jmp(fin)
		})
		return name
	}
	return final
}

// ensureAnnBackStub registers the annotated back-edge stub (eoi; jump to
// header) once per loop.
func (lw *lowerer) ensureAnnBackStub(l *cfg.Loop) {
	name := lw.lbl("aeoi", l.Index)
	key := fmt.Sprintf("annback_%d", l.Index)
	if lw.seenStub == nil {
		lw.seenStub = map[string]bool{}
	}
	if lw.seenStub[key] {
		return
	}
	lw.seenStub[key] = true
	hdr := lw.g.Blocks[l.Header].Start
	id := lw.loopID(l)
	lw.stubs = append(lw.stubs, func() {
		lw.b.Label(name)
		lw.b.Emit(isa.Instr{Op: isa.EOI, Imm: id})
		lw.b.Jmp(fmt.Sprintf("bc_%d", hdr))
	})
}
