// Package analyzer implements Figure 1 step 3: post-processing the TEST
// profile statistics and choosing the thread decompositions that provide
// the best speedups (paper §3.1).
//
// A loop becomes a speculative thread loop when:
//
//   - it has no disqualifying structure (system calls, non-local exits,
//     multiple exit targets);
//   - average iterations per entry >> 1;
//   - speculative buffer overflow frequency << 1;
//   - the predicted speedup — after discounting dependencies removed by
//     compiler optimizations and VM modifications — exceeds 1.2.
//
// Because only one STL may be active at a time, the analyzer chooses one
// level per loop nest (the level with the largest estimated cycle savings),
// resolves cross-method conflicts through the call graph, and optionally
// pairs an outer STL with a conditionally executed inner loop as a
// multilevel decomposition (§4.2.6).
package analyzer

import (
	"sort"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/jit"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
)

// Config tunes selection.
type Config struct {
	NCPU             int
	Handlers         tls.HandlerCosts
	MinItersPerEntry float64 // ">> 1"; default 3
	MaxOverflowFreq  float64 // "<< 1"; default 0.25
	MinSpeedup       float64 // default 1.2 (paper)
	SyncDepFreq      float64 // default 0.8 (paper: "e.g. > 80%")
	SyncMaxSpanFrac  float64 // arc span must be below this fraction of thread size
	MultilevelRatio  float64 // inner entries per outer iteration threshold
	ParallelAlloc    bool    // VM provides per-CPU speculative free lists
	ElideLocks       bool    // VM elides object locks during speculation
	HoistMaxIters    float64 // iterations/entry below which hoisting applies
	HoistMinEntries  int64

	// Ablation switches: disable individual §4.2 optimizations (the
	// affected locals fall back to stack communication). Used by the
	// design-choice benchmarks; all false in the real system.
	NoInductors  bool
	NoResetable  bool
	NoReductions bool
	NoSyncLocks  bool
	NoMultilevel bool
	NoHoisting   bool

	// ExcludeLoops rejects specific loops (by cfg global loop id): the
	// adaptive-reprofiling feedback path of §6.2 feeds loops whose selected
	// STLs consistently overflowed the speculative buffers at run time.
	ExcludeLoops map[int64]bool
}

// DefaultConfig matches the paper's thresholds on the 4-CPU Hydra.
func DefaultConfig() Config {
	return Config{
		NCPU:             4,
		Handlers:         tls.NewHandlers,
		MinItersPerEntry: 3,
		MaxOverflowFreq:  0.25,
		MinSpeedup:       1.2,
		SyncDepFreq:      0.8,
		SyncMaxSpanFrac:  0.6,
		MultilevelRatio:  0.25,
		ParallelAlloc:    true,
		ElideLocks:       true,
		HoistMaxIters:    20,
		HoistMinEntries:  4,
	}
}

// LoopDecision records why a loop was or was not selected (Table 3 and the
// §6.1 discussion are built from these).
type LoopDecision struct {
	LoopID    int64
	MethodID  int
	LoopIndex int
	Depth     int

	Selected   bool
	Reason     string // rejection reason, or "selected"
	Inner      bool   // selected as a multilevel inner STL
	Prediction tracer.Prediction
	Coverage   float64 // loop cycles / profiled program cycles
	Stats      *tracer.LoopStats

	// Optimization decisions.
	Inductors  int
	Resetable  int
	Reductions int
	SyncLocks  int
	Comm       int
	Hoisted    bool
	Multilevel bool
}

// Result is the analyzer output.
type Result struct {
	Selection *jit.Selection
	Decisions []*LoopDecision
	// PredictedCycles estimates whole-program TLS time: the profiled
	// serial time minus the predicted savings of every selected STL.
	PredictedCycles int64
	ProfiledCycles  int64
}

// Select chooses decompositions from the program analysis and profile.
func Select(info *cfg.ProgramInfo, loops map[int64]*tracer.LoopStats,
	programCycles int64, cfgc Config) *Result {
	s := &selector{info: info, loops: loops, total: programCycles, cfg: cfgc}
	return s.run()
}

type selector struct {
	info  *cfg.ProgramInfo
	loops map[int64]*tracer.LoopStats
	total int64
	cfg   Config

	decisions map[int64]*LoopDecision
	plans     map[int64]*jit.Plan
}

func (s *selector) run() *Result {
	s.decisions = map[int64]*LoopDecision{}
	s.plans = map[int64]*jit.Plan{}

	// Phase 1: per-loop candidacy and prediction.
	for mi, g := range s.info.Graphs {
		for _, l := range g.Loops {
			s.evaluate(mi, g, l)
		}
	}
	// Phase 2: per-nest level choice (maximum savings over the forest).
	for mi, g := range s.info.Graphs {
		s.chooseNestLevels(mi, g)
	}
	// Phase 3: cross-method conflicts via the call graph.
	s.resolveCallConflicts()
	// Phase 4: multilevel pairing and final plan assembly.
	sel := &jit.Selection{Plans: map[int64]*jit.Plan{}, NCPU: s.cfg.NCPU}
	// order-insensitive: each selected decision is copied under its own id
	for id, d := range s.decisions {
		if d.Selected {
			sel.Plans[id] = s.plans[id]
		}
	}
	s.pairMultilevel(sel)
	s.reconcilePlans(sel)

	res := &Result{Selection: sel, ProfiledCycles: s.total}
	var ids []int64
	for id := range s.decisions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	predicted := s.total
	for _, id := range ids {
		d := s.decisions[id]
		res.Decisions = append(res.Decisions, d)
		if d.Selected && !d.Inner {
			saving := d.Prediction.SeqCycles - d.Prediction.ParCycles
			if saving > 0 {
				predicted -= saving
			}
		}
	}
	if predicted < 1 {
		predicted = 1
	}
	res.PredictedCycles = predicted
	return res
}

// evaluate builds the decision and tentative plan for one loop.
func (s *selector) evaluate(mi int, g *cfg.Graph, l *cfg.Loop) {
	id := cfg.GlobalLoopID(mi, l.Index)
	d := &LoopDecision{LoopID: id, MethodID: mi, LoopIndex: l.Index, Depth: l.Depth}
	s.decisions[id] = d
	ls := s.loops[id]
	d.Stats = ls

	reject := func(r string) { d.Reason = r }
	switch {
	case s.cfg.ExcludeLoops[id]:
		reject("runtime overflow feedback (adaptive reprofiling)")
		return
	case ls == nil || ls.Iterations == 0:
		reject("never profiled")
		return
	case l.HasIO:
		reject("system calls in loop body")
		return
	case l.HasEscape:
		reject("non-local exit (return/throw) in loop body")
		return
	case len(l.Exits) != 1:
		reject("multiple exit targets")
		return
	case ls.AbandonedOverflow:
		reject("persistent speculative buffer overflow")
		return
	case ls.ItersPerEntry() < s.cfg.MinItersPerEntry:
		reject("too few iterations per entry")
		return
	case ls.OverflowFreq() > s.cfg.MaxOverflowFreq:
		reject("speculative buffer overflow")
		return
	}
	d.Coverage = float64(ls.TotalCycles) / float64(s.total)

	// Optimization decisions remove dependency sources before prediction.
	// The classification maps are copied: plans may be adjusted later
	// (multilevel pairing, conflict reconciliation) without mutating the
	// shared CFG analysis.
	plan := &jit.Plan{
		LoopID:     id,
		MethodID:   mi,
		Loop:       l.Index,
		Inductors:  copyMap(l.Inductors),
		Resetable:  copyMap(l.Resetable),
		Reductions: copyMap(l.Reductions),
	}
	if s.cfg.NoInductors {
		plan.Inductors = map[int]int64{}
	}
	if s.cfg.NoResetable {
		plan.Resetable = map[int]int64{}
	}
	if s.cfg.NoReductions {
		plan.Reductions = map[int]bytecode.Op{}
	}
	removed := map[uint32]bool{}
	slotKey := func(slot int) uint32 { return uint32(mi)*256 + uint32(slot) }
	// order-insensitive: set insertion
	for slot := range plan.Inductors {
		removed[slotKey(slot)] = true
	}
	// order-insensitive: set insertion
	for slot := range plan.Resetable {
		removed[slotKey(slot)] = true
	}
	// order-insensitive: set insertion
	for slot := range plan.Reductions {
		removed[slotKey(slot)] = true
	}
	if s.cfg.ParallelAlloc {
		removed[tracer.AllocDepKey] = true
	}
	if s.cfg.ElideLocks {
		removed[tracer.LockDepKey] = true
	}

	// Thread synchronizing locks (§4.2.4): frequent, short local arcs.
	optimized := map[int]bool{}
	// order-insensitive: set insertion
	for slot := range plan.Inductors {
		optimized[slot] = true
	}
	// order-insensitive: set insertion
	for slot := range plan.Resetable {
		optimized[slot] = true
	}
	// order-insensitive: set insertion
	for slot := range plan.Reductions {
		optimized[slot] = true
	}
	avgT := ls.AvgThreadSize()
	for _, slot := range l.Carried {
		if optimized[slot] || s.cfg.NoSyncLocks {
			continue
		}
		ds := ls.Deps[slotKey(slot)]
		if ds == nil || ls.Iterations == 0 {
			continue
		}
		freq := float64(ds.Iters) / float64(ls.Iterations)
		span := ds.AvgStoreOff() - ds.AvgLoadOff()
		if freq > s.cfg.SyncDepFreq && span < s.cfg.SyncMaxSpanFrac*avgT &&
			s.syncEligible(g, l, slot) {
			plan.SyncSlots = append(plan.SyncSlots, slot)
			optimized[slot] = true
			removed[slotKey(slot)] = true
			// A lock converts the violation into a bounded stall; the
			// remaining serialization is the arc span itself, which the
			// predictor keeps by NOT removing... it is removed here and
			// folded back through CommPerIter below.
		}
	}
	for _, slot := range l.Carried {
		if !optimized[slot] {
			plan.Comm = append(plan.Comm, slot)
		}
	}
	sort.Ints(plan.SyncSlots)
	sort.Ints(plan.Comm)

	// Hoisted startup/shutdown (§4.2.7).
	if !s.cfg.NoHoisting &&
		ls.ItersPerEntry() < s.cfg.HoistMaxIters && ls.Entries >= s.cfg.HoistMinEntries {
		plan.Hoisted = true
	}

	params := tracer.DefaultPredictParams(s.cfg.NCPU, s.cfg.Handlers.Startup,
		s.cfg.Handlers.Shutdown, s.cfg.Handlers.EOI,
		int64(2*len(plan.Comm)+6*len(plan.SyncSlots)))
	// Communicated locals are loaded at the top of every iteration in the
	// generated STL code (Figure 5 base shape), so their serialization
	// bound must use a zero load offset, whatever the profiled offset was.
	// A frequent comm dependency also violates: the consumer restarts after
	// the producer's store and re-executes its prefix, so the effective gap
	// grows by roughly the frequency-weighted store offset plus the restart
	// handler. A sync lock keeps the profiled span but stalls instead.
	for _, slot := range plan.Comm {
		ds := ls.Deps[slotKey(slot)]
		if ds == nil {
			continue
		}
		f := float64(ds.Iters) / float64(ls.Iterations)
		dist := ds.AvgDist()
		if dist < 1 {
			dist = 1
		}
		gap := ds.AvgStoreOff()*(1+f) + float64(params.ForwardLat) + float64(s.cfg.Handlers.Restart)
		if b := f * gap / dist; b > params.ExtraBound {
			params.ExtraBound = b
		}
	}
	for _, slot := range plan.SyncSlots {
		if b := ls.SourceBound(slotKey(slot), params.ForwardLat, false); b > params.ExtraBound {
			params.ExtraBound = b
		}
	}
	pred := ls.PredictExcluding(params, func(k uint32) bool { return removed[k] })
	d.Prediction = pred
	d.Inductors = len(plan.Inductors)
	d.Resetable = len(plan.Resetable)
	d.Reductions = len(plan.Reductions)
	d.SyncLocks = len(plan.SyncSlots)
	d.Comm = len(plan.Comm)
	d.Hoisted = plan.Hoisted
	if pred.Speedup < s.cfg.MinSpeedup {
		reject("predicted speedup below threshold")
		return
	}
	d.Selected = true
	d.Reason = "selected"
	s.plans[id] = plan
}

// syncEligible requires the protected slot's first and last accesses to
// execute on every iteration (otherwise a skipped signal deadlocks).
func (s *selector) syncEligible(g *cfg.Graph, l *cfg.Loop, slot int) bool {
	first, last := -1, -1
	var firstBlk, lastBlk int
	for _, b := range l.BlockIDs {
		blk := g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			in := g.Method.Code[pc]
			if (in.Op == bytecode.LOAD || in.Op == bytecode.STORE || in.Op == bytecode.IINC) && int(in.A) == slot {
				if first == -1 || pc < first {
					first, firstBlk = pc, b
				}
				if pc > last {
					last, lastBlk = pc, b
				}
			}
		}
	}
	if first == -1 {
		return false
	}
	return g.ExecutesEveryIteration(l, firstBlk) && g.ExecutesEveryIteration(l, lastBlk)
}

// chooseNestLevels keeps at most one selected loop per nest, maximizing
// estimated savings (selecting a loop deselects its ancestors and
// descendants).
func (s *selector) chooseNestLevels(mi int, g *cfg.Graph) {
	saving := func(l *cfg.Loop) int64 {
		d := s.decisions[cfg.GlobalLoopID(mi, l.Index)]
		if !d.Selected {
			return 0
		}
		sv := d.Prediction.SeqCycles - d.Prediction.ParCycles
		if sv < 0 {
			return 0
		}
		return sv
	}
	// best(l): either select l (its own saving) or the sum of the best of
	// its children.
	var best func(l *cfg.Loop) (int64, bool) // (value, selectSelf)
	memo := map[int]int64{}
	var childSum func(l *cfg.Loop) int64
	childSum = func(l *cfg.Loop) int64 {
		sum := int64(0)
		for _, ci := range l.Children {
			v, _ := best(g.Loops[ci])
			sum += v
		}
		return sum
	}
	best = func(l *cfg.Loop) (int64, bool) {
		if v, ok := memo[l.Index]; ok {
			return v, v == saving(l) && v > 0
		}
		own := saving(l)
		sub := childSum(l)
		v := own
		selectSelf := true
		if sub > own {
			v = sub
			selectSelf = false
		}
		memo[l.Index] = v
		return v, selectSelf && own > 0
	}
	// Walk top-level loops; deselect according to the DP choice.
	var apply func(l *cfg.Loop, ancestorSelected bool)
	apply = func(l *cfg.Loop, ancestorSelected bool) {
		d := s.decisions[cfg.GlobalLoopID(mi, l.Index)]
		_, selfBest := best(l)
		if ancestorSelected {
			if d.Selected {
				d.Selected = false
				d.Reason = "outer loop selected instead"
			}
			for _, ci := range l.Children {
				apply(g.Loops[ci], true)
			}
			return
		}
		if d.Selected && !selfBest {
			d.Selected = false
			d.Reason = "inner decomposition estimated better"
		}
		for _, ci := range l.Children {
			apply(g.Loops[ci], ancestorSelected || d.Selected)
		}
	}
	for _, l := range g.Loops {
		if l.Parent == -1 {
			apply(l, false)
		}
	}
}

// resolveCallConflicts drops the lesser selection when one selected loop's
// body can transitively invoke a method containing another selected loop
// (only one STL may be active at a time).
func (s *selector) resolveCallConflicts() {
	// methodsCalledFrom[m] = transitive callee set.
	n := len(s.info.Program.Methods)
	callees := make([]map[int]bool, n)
	for i, m := range s.info.Program.Methods {
		callees[i] = map[int]bool{}
		for _, in := range m.Code {
			if in.Op == bytecode.INVOKE {
				callees[i][int(in.A)] = true
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for i := range callees {
			// order-insensitive: transitive closure iterated to a fixpoint
			for c := range callees[i] {
				// order-insensitive: transitive closure iterated to a fixpoint
				for cc := range callees[c] {
					if !callees[i][cc] {
						callees[i][cc] = true
						changed = true
					}
				}
			}
		}
	}
	// Methods a loop body can reach.
	loopReaches := func(d *LoopDecision) map[int]bool {
		g := s.info.Graphs[d.MethodID]
		l := g.Loops[d.LoopIndex]
		out := map[int]bool{}
		for _, b := range l.BlockIDs {
			blk := g.Blocks[b]
			for pc := blk.Start; pc < blk.End; pc++ {
				in := g.Method.Code[pc]
				if in.Op == bytecode.INVOKE {
					out[int(in.A)] = true
					// order-insensitive: set insertion
					for cc := range callees[int(in.A)] {
						out[cc] = true
					}
				}
			}
		}
		return out
	}
	// Ties in the saving keep loop-id order, not map order.
	var selected []*LoopDecision
	for _, d := range s.decisions {
		if d.Selected {
			selected = append(selected, d)
		}
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].LoopID < selected[j].LoopID })
	sort.SliceStable(selected, func(i, j int) bool {
		si := selected[i].Prediction.SeqCycles - selected[i].Prediction.ParCycles
		sj := selected[j].Prediction.SeqCycles - selected[j].Prediction.ParCycles
		return si > sj
	})
	kept := []*LoopDecision{}
	for _, d := range selected {
		reach := loopReaches(d)
		conflict := false
		for _, k := range kept {
			if reach[k.MethodID] || loopReaches(k)[d.MethodID] {
				conflict = true
				break
			}
		}
		if conflict {
			d.Selected = false
			d.Reason = "dynamic nesting with a better selected STL"
			continue
		}
		kept = append(kept, d)
	}
}

func copyMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	// order-insensitive: map copy
	for k, v := range m {
		out[k] = v
	}
	return out
}

// reconcilePlans resolves cross-loop conflicts within a method: register
// allocation is method-wide, so a slot cannot be register-forced by one
// loop's optimization (inductor/reduction) and memory-forced by another
// loop's synchronizing lock. The lock is the weaker optimization and is
// dropped back to plain communication. Additionally, the outer inductors of
// a multilevel loop become base-iteration-relative ("resetable" codegen):
// the inner STL prologue re-bases them, which the plain INIT-time formula
// cannot express.
func (s *selector) reconcilePlans(sel *jit.Selection) {
	forcedReg := map[int]map[int]bool{} // methodID → slot set
	mark := func(mi, slot int) {
		if forcedReg[mi] == nil {
			forcedReg[mi] = map[int]bool{}
		}
		forcedReg[mi][slot] = true
	}
	// order-insensitive: set insertion
	for _, p := range sel.Plans {
		// order-insensitive: set insertion
		for slot := range p.Inductors {
			mark(p.MethodID, slot)
		}
		// order-insensitive: set insertion
		for slot := range p.Resetable {
			mark(p.MethodID, slot)
		}
		// order-insensitive: set insertion
		for slot := range p.Reductions {
			mark(p.MethodID, slot)
		}
	}
	// order-insensitive: each plan updates only its own fields and its own decision
	for _, p := range sel.Plans {
		var keep []int
		for _, slot := range p.SyncSlots {
			if forcedReg[p.MethodID][slot] {
				p.Comm = append(p.Comm, slot)
				if d := s.decisions[p.LoopID]; d != nil {
					d.SyncLocks--
					d.Comm++
				}
				continue
			}
			keep = append(keep, slot)
		}
		p.SyncSlots = keep
		sort.Ints(p.Comm)
		if len(p.InnerSwitch) > 0 {
			// order-insensitive: moves each entry between two maps keyed by slot
			for slot, step := range p.Inductors {
				p.Resetable[slot] = step
				delete(p.Inductors, slot)
			}
		}
	}
}

// pairMultilevel attaches conditionally executed inner loops to selected
// outer STLs when the inner loop is entered far less often than the outer
// iterates and is itself parallel (§4.2.6).
func (s *selector) pairMultilevel(sel *jit.Selection) {
	if s.cfg.NoMultilevel {
		return
	}
	// Snapshot and sort the plan ids: the loop inserts inner plans into
	// sel.Plans, and ranging a map under mutation is nondeterministic.
	ids := make([]int64, 0, len(sel.Plans))
	for id := range sel.Plans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		plan := sel.Plans[id]
		d := s.decisions[id]
		g := s.info.Graphs[d.MethodID]
		l := g.Loops[d.LoopIndex]
		if !l.CondInner {
			continue
		}
		outerStats := s.loops[id]
		for _, ci := range l.Children {
			c := g.Loops[ci]
			cid := cfg.GlobalLoopID(d.MethodID, c.Index)
			cd := s.decisions[cid]
			cs := s.loops[cid]
			if cs == nil || outerStats == nil || cd == nil {
				continue
			}
			// Conditionally executed, rarely entered, itself speedable.
			condChild := true
			for _, e := range l.Ends {
				if g.Dominates(c.Header, e) {
					condChild = false
				}
			}
			if !condChild {
				continue
			}
			if float64(cs.Entries) > s.cfg.MultilevelRatio*float64(outerStats.Iterations) {
				continue
			}
			if cd.Prediction.Speedup < s.cfg.MinSpeedup || len(c.Exits) != 1 ||
				c.HasIO || c.HasEscape {
				continue
			}
			// Build an inner plan.
			inner := &jit.Plan{
				LoopID:     cid,
				MethodID:   d.MethodID,
				Loop:       c.Index,
				Inductors:  copyMap(c.Inductors),
				Resetable:  copyMap(c.Resetable),
				Reductions: copyMap(c.Reductions),
				Inner:      true,
			}
			opt := map[int]bool{}
			// order-insensitive: set insertion
			for slot := range c.Inductors {
				opt[slot] = true
			}
			// order-insensitive: set insertion
			for slot := range c.Resetable {
				opt[slot] = true
			}
			// order-insensitive: set insertion
			for slot := range c.Reductions {
				opt[slot] = true
			}
			for _, slot := range c.Carried {
				if !opt[slot] {
					inner.Comm = append(inner.Comm, slot)
				}
			}
			sort.Ints(inner.Comm)
			sel.Plans[cid] = inner
			plan.InnerSwitch = append(plan.InnerSwitch, cid)
			cd.Selected = true
			cd.Inner = true
			cd.Reason = "multilevel inner STL"
			d.Multilevel = true
		}
	}
}
