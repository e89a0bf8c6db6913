// Package tracer implements TEST — the Tracer for Extracting Speculative
// Threads (paper §3 and the companion CGO'03 paper).
//
// During an annotated sequential run, the memory system communicates every
// heap load/store and every annotation instruction (lwl, swl, sloop, eoi,
// eloop) to an array of comparator banks. One bank tracks one active
// prospective STL; eight banks cover typical loop-nest depths. The idle
// speculative store buffers hold the timestamp tables:
//
//   - a heap store-timestamp table (word address → cycle of last store),
//   - a cache-line timestamp table (line → cycle of last access) driving the
//     speculative-state overflow analysis, and
//   - a local-variable store-timestamp table keyed by annotation slot.
//
// Load dependency analysis: a load whose address was last stored after the
// enclosing loop was entered but before the current thread (iteration)
// started reveals an inter-thread (loop-carried) dependency. The arc with
// the smallest iteration distance in each thread is the critical arc; its
// length statistics feed the performance predictor.
//
// Overflow analysis: a memory access whose line timestamp predates the
// current thread start is new speculative state for the thread; per-thread
// counters against the hardware buffer limits predict TLS overflow stalls.
package tracer

import (
	"jrpm/internal/mem"
	"jrpm/internal/tls"
)

// Config parameterizes the profiling hardware.
type Config struct {
	NumBanks         int // comparator banks (paper: 8)
	StoreBufferLines int // store buffer capacity used by overflow analysis
	LoadBufferLines  int // L1 speculative line capacity
	StartRing        int // thread-start timestamps retained per bank

	// MemWords sizes the flat timestamp tables; the machine passes its
	// simulated-memory size. Zero selects a default large enough for the
	// standard Hydra image.
	MemWords int
}

// defaultMemWords mirrors the hydra image's memory size for tracers built
// without an explicit geometry (unit tests); the machine always passes its
// own size.
const defaultMemWords = 1<<22 + 4096

// DefaultConfig returns the paper's TEST configuration. The overflow
// analysis models the real TLS buffer capacities, so it shares the Figure 2
// constants with the speculation hardware.
func DefaultConfig() Config {
	return Config{
		NumBanks:         PaperComparatorBanks,
		StoreBufferLines: tls.PaperStoreBufferLines,
		LoadBufferLines:  tls.PaperLoadBufferLines,
		StartRing:        32,
	}
}

// Dependency source keys for non-local dependencies in per-loop stats.
// Allocator free-list and object-lock-word dependencies are tracked
// separately because the VM modifications of §5.2 (per-CPU speculative free
// lists) and §5.3 (speculation-aware object locks) remove them during
// speculative execution; the decomposition analyzer must be able to discount
// them when those modifications are enabled.
const (
	HeapDepKey  = uint32(0xFFFFFFFF)
	AllocDepKey = uint32(0xFFFFFFFE)
	LockDepKey  = uint32(0xFFFFFFFD)
)

// AddrClass tags observed memory traffic by what kind of state it touches.
type AddrClass int

// Address classes. ClassStack marks runtime-stack traffic (frame homes of
// memory-resident locals, expression spills, callee-saved saves): it is
// excluded from the dependency analysis — local variables are tracked
// precisely through the lwl/swl annotations, and stack discipline makes
// frame slots define-before-use within an iteration — but it still counts
// toward speculative buffer occupancy in the overflow analysis.
const (
	ClassHeap AddrClass = iota
	ClassAlloc
	ClassLock
	ClassStack
)

func (c AddrClass) depKey() uint32 {
	switch c {
	case ClassAlloc:
		return AllocDepKey
	case ClassLock:
		return LockDepKey
	}
	return HeapDepKey
}

// DepDistBuckets is the size of the DepStats dependence-distance histogram:
// bucket i counts arcs with distance in [2^i, 2^(i+1)) iterations (bucket 0
// is distance 1, the tightest possible loop-carried arc). 16 buckets cover
// distances past 32 Ki iterations, far beyond any speculation window.
const DepDistBuckets = 16

// DepStats accumulates inter-thread dependency observations for one
// dependency source (a local-variable slot, or the heap as a whole).
type DepStats struct {
	Iters       int64 // iterations in which this dependency occurred
	SumDist     int64 // sum of critical arc distances (iterations)
	MinDist     int64 // smallest arc distance seen
	SumStoreOff int64 // sum of store offsets from the storing thread's start
	MaxStoreOff int64 // latest store offset seen (violation risk estimate)
	SumLoadOff  int64 // sum of load offsets from the loading thread's start

	// DistHist is the log₂ histogram of observed arc distances (see
	// DepDistBuckets); the doctor reports it so a user can tell a uniformly
	// tight dependence from an occasional long-range one with the same mean.
	DistHist [DepDistBuckets]int64
}

func (d *DepStats) note(dist, storeOff, loadOff int64) {
	d.Iters++
	d.SumDist += dist
	d.SumStoreOff += storeOff
	d.SumLoadOff += loadOff
	if d.MinDist == 0 || dist < d.MinDist {
		d.MinDist = dist
	}
	if storeOff > d.MaxStoreOff {
		d.MaxStoreOff = storeOff
	}
	b := 0
	for v := dist; v > 1 && b < DepDistBuckets-1; v >>= 1 {
		b++
	}
	d.DistHist[b]++
}

// AvgDist returns the mean critical arc distance.
func (d *DepStats) AvgDist() float64 {
	if d.Iters == 0 {
		return 0
	}
	return float64(d.SumDist) / float64(d.Iters)
}

// AvgStoreOff returns the mean store offset within the storing thread.
func (d *DepStats) AvgStoreOff() float64 {
	if d.Iters == 0 {
		return 0
	}
	return float64(d.SumStoreOff) / float64(d.Iters)
}

// AvgLoadOff returns the mean load offset within the loading thread.
func (d *DepStats) AvgLoadOff() float64 {
	if d.Iters == 0 {
		return 0
	}
	return float64(d.SumLoadOff) / float64(d.Iters)
}

// LoopStats is the accumulated TEST profile of one prospective STL.
type LoopStats struct {
	LoopID      int64
	Entries     int64
	Iterations  int64
	TotalCycles int64 // cycles spent inside the loop, summed over entries

	// Deps maps dependency source (local slot id, or HeapDepKey) to stats.
	Deps map[uint32]*DepStats

	// CriticalIters counts iterations with at least one inter-thread
	// dependency of any source (frequency of the per-iteration critical arc).
	CriticalIters int64
	SumCritDist   int64
	SumCritStore  int64
	SumCritLoad   int64

	// Overflow analysis results.
	OverflowIters     int64 // iterations predicted to overflow a buffer
	SumLoadLines      int64 // per-iteration distinct lines loaded, summed
	SumStoreLines     int64 // per-iteration distinct lines stored, summed
	MaxLoadLines      int64
	MaxStoreLines     int64
	Unprofiled        int64 // entries skipped for lack of a comparator bank
	AbandonedOverflow bool  // bank was stolen after persistent overflow prediction
}

// AvgThreadSize returns the mean iteration length in cycles.
func (ls *LoopStats) AvgThreadSize() float64 {
	if ls.Iterations == 0 {
		return 0
	}
	return float64(ls.TotalCycles) / float64(ls.Iterations)
}

// ItersPerEntry returns the mean iterations per loop entry.
func (ls *LoopStats) ItersPerEntry() float64 {
	if ls.Entries == 0 {
		return 0
	}
	return float64(ls.Iterations) / float64(ls.Entries)
}

// DepFreq returns the fraction of iterations carrying a dependency.
func (ls *LoopStats) DepFreq() float64 {
	if ls.Iterations == 0 {
		return 0
	}
	return float64(ls.CriticalIters) / float64(ls.Iterations)
}

// OverflowFreq returns the fraction of iterations predicted to overflow.
func (ls *LoopStats) OverflowFreq() float64 {
	if ls.Iterations == 0 {
		return 0
	}
	return float64(ls.OverflowIters) / float64(ls.Iterations)
}

// arcInfo is the per-iteration minimum-distance arc for one source.
type arcInfo struct {
	dist     int64
	storeOff int64
	loadOff  int64
}

// bank is one comparator bank tracking one active prospective STL.
type bank struct {
	loopID      int64
	stats       *LoopStats
	entryTS     int64
	threadStart int64
	starts      *startRing // recent thread-start timestamps, newest last

	// Per-iteration state.
	iterDeps   *depCAM
	loadLines  int64
	storeLines int64
	overflowed bool

	// Consecutive-overflow run used by the bank-stealing policy.
	consecOverflow int64
	itersThisEntry int64
}

// Tracer is the TEST profiling unit.
type Tracer struct {
	cfg   Config
	banks []*bank

	storeTS *tsSlab   // heap word → last store cycle (flat, word-indexed)
	lineTS  *tsSlab   // cache line → last access cycle (flat, line-indexed)
	localTS *localCAM // composite local key → last store cycle

	freeBanks []*bank // retired comparator banks, recycled on sloop

	loops map[int64]*LoopStats

	// AnnotationCount counts executed annotation instructions (each costs
	// one cycle during profiling; Figure 8 "Profiling" overhead).
	AnnotationCount int64
}

// New returns an idle tracer.
func New(cfg Config) *Tracer {
	if cfg.MemWords <= 0 {
		cfg.MemWords = defaultMemWords
	}
	tabs := newTables(cfg.MemWords)
	t := &Tracer{
		cfg:     cfg,
		storeTS: tabs.store,
		lineTS:  tabs.line,
		localTS: tabs.local,
		loops:   make(map[int64]*LoopStats),
	}
	for i := 0; i < cfg.NumBanks; i++ {
		t.banks = append(t.banks, nil)
	}
	return t
}

// Release returns the tracer's timestamp tables to the free list. The
// accumulated loop statistics stay valid; the tracer must not observe any
// further traffic.
func (t *Tracer) Release() {
	if t.storeTS != nil {
		tsTables{t.storeTS, t.lineTS, t.localTS}.release()
	}
	t.storeTS, t.lineTS, t.localTS = nil, nil, nil
}

// Loops returns the accumulated per-loop statistics.
func (t *Tracer) Loops() map[int64]*LoopStats { return t.loops }

// Loop returns stats for one loop id (nil if never profiled).
func (t *Tracer) Loop(id int64) *LoopStats { return t.loops[id] }

func (t *Tracer) loopStats(id int64) *LoopStats {
	ls, ok := t.loops[id]
	if !ok {
		ls = &LoopStats{LoopID: id, Deps: make(map[uint32]*DepStats)}
		t.loops[id] = ls
	}
	return ls
}

// OnSloop handles a sloop annotation: allocate a comparator bank for the
// prospective STL. If all banks are busy, a bank whose loop persistently
// predicts overflow is stolen (the paper's policy of freeing outer-loop
// banks that will be rejected anyway); otherwise the entry goes unprofiled.
func (t *Tracer) OnSloop(loopID int64, now int64) {
	t.AnnotationCount++
	ls := t.loopStats(loopID)
	slot := -1
	for i, b := range t.banks {
		if b == nil {
			slot = i
			break
		}
		if b.loopID == loopID {
			// Recursive re-entry of an already-profiled loop: skip.
			ls.Unprofiled++
			return
		}
	}
	if slot == -1 {
		// Try to steal a bank from a hopeless (persistently overflowing) loop.
		for i, b := range t.banks {
			if b.consecOverflow >= 4 {
				b.stats.AbandonedOverflow = true
				t.closeBank(b, now)
				slot = i
				break
			}
		}
	}
	if slot == -1 {
		ls.Unprofiled++
		return
	}
	var b *bank
	if n := len(t.freeBanks); n > 0 {
		b = t.freeBanks[n-1]
		t.freeBanks = t.freeBanks[:n-1]
		b.starts.reset()
		b.iterDeps.reset()
		b.loadLines, b.storeLines, b.overflowed = 0, 0, false
		b.consecOverflow, b.itersThisEntry = 0, 0
	} else {
		b = &bank{starts: newStartRing(t.cfg.StartRing), iterDeps: newDepCAM(64)}
	}
	b.loopID = loopID
	b.stats = ls
	b.entryTS = now
	b.threadStart = now
	b.starts.push(now)
	t.banks[slot] = b
	ls.Entries++
}

// OnEOI handles an eoi annotation: finalize the current iteration of the
// loop's bank.
func (t *Tracer) OnEOI(loopID int64, now int64) {
	t.AnnotationCount++
	b := t.findBank(loopID)
	if b == nil {
		return
	}
	t.finishIteration(b, now)
	b.threadStart = now
	b.starts.push(now)
}

// OnEloop handles an eloop annotation: accumulate and free the bank (the
// runtime reads the collected statistics at this point, per the paper).
func (t *Tracer) OnEloop(loopID int64, now int64) {
	t.AnnotationCount++
	b := t.findBank(loopID)
	if b == nil {
		return
	}
	t.closeBank(b, now)
	for i, bb := range t.banks {
		if bb == b {
			t.banks[i] = nil
		}
	}
	b.stats = nil
	t.freeBanks = append(t.freeBanks, b)
}

func (t *Tracer) closeBank(b *bank, now int64) {
	b.stats.TotalCycles += now - b.entryTS
}

func (t *Tracer) findBank(loopID int64) *bank {
	for _, b := range t.banks {
		if b != nil && b.loopID == loopID {
			return b
		}
	}
	return nil
}

// finishIteration folds the per-iteration arc and overflow state into the
// loop's accumulated statistics.
func (t *Tracer) finishIteration(b *bank, now int64) {
	ls := b.stats
	ls.Iterations++
	b.itersThisEntry++

	// Fold per-source arcs; the minimum-distance arc is the critical arc.
	// The arcs are visited in insertion order, so the tie-break between
	// equal arcs is deterministic (a map iteration here was not).
	var crit arcInfo
	haveCrit := false
	for _, slot := range b.iterDeps.order {
		key, arc := b.iterDeps.keys[slot], b.iterDeps.arcs[slot]
		ds, ok := ls.Deps[key]
		if !ok {
			ds = &DepStats{}
			ls.Deps[key] = ds
		}
		ds.note(arc.dist, arc.storeOff, arc.loadOff)
		if !haveCrit || arc.dist < crit.dist ||
			(arc.dist == crit.dist && arc.storeOff-arc.loadOff > crit.storeOff-crit.loadOff) {
			crit = arc
			haveCrit = true
		}
	}
	if haveCrit {
		ls.CriticalIters++
		ls.SumCritDist += crit.dist
		ls.SumCritStore += crit.storeOff
		ls.SumCritLoad += crit.loadOff
	}
	b.iterDeps.reset()

	// Overflow bookkeeping.
	ls.SumLoadLines += b.loadLines
	ls.SumStoreLines += b.storeLines
	if b.loadLines > ls.MaxLoadLines {
		ls.MaxLoadLines = b.loadLines
	}
	if b.storeLines > ls.MaxStoreLines {
		ls.MaxStoreLines = b.storeLines
	}
	if b.overflowed {
		ls.OverflowIters++
		b.consecOverflow++
	} else {
		b.consecOverflow = 0
	}
	b.loadLines, b.storeLines, b.overflowed = 0, 0, false
}

// noteDep records an inter-thread dependency arc for a source key in every
// bank where the stored timestamp falls inside the loop but before the
// current thread.
func (t *Tracer) noteDep(key uint32, storedAt, now int64) {
	for _, b := range t.banks {
		if b == nil {
			continue
		}
		if storedAt < b.entryTS || storedAt >= b.threadStart {
			continue // outside the loop, or intra-thread
		}
		dist, storeOff := b.arcDistance(storedAt)
		arc := arcInfo{dist: dist, storeOff: storeOff, loadOff: now - b.threadStart}
		if old, ok := b.iterDeps.get(key); !ok || arc.dist < old.dist {
			b.iterDeps.put(key, arc)
		}
	}
}

// arcDistance computes how many thread boundaries separate storedAt from the
// current thread, and the store's offset within its thread.
func (b *bank) arcDistance(storedAt int64) (dist, storeOff int64) {
	// The ring holds recent starts; index 0 is the current thread start.
	d := int64(0)
	for i := 0; i < b.starts.n; i++ {
		if s := b.starts.at(i); s <= storedAt {
			return d, storedAt - s
		}
		d++
	}
	// Store predates the oldest retained start: distance saturates.
	return d, 0
}

// noteLine runs the overflow analysis for one heap access.
func (t *Tracer) noteLine(a mem.Addr, isStore bool, now int64) {
	line := mem.Line(a)
	old := t.lineTS.getRaw(int(line))
	for _, b := range t.banks {
		if b == nil {
			continue
		}
		if old < b.threadStart { // new speculative state for this thread
			if isStore {
				b.storeLines++
				if b.storeLines > int64(t.cfg.StoreBufferLines) {
					b.overflowed = true
				}
			} else {
				b.loadLines++
				if b.loadLines > int64(t.cfg.LoadBufferLines) {
					b.overflowed = true
				}
			}
		}
	}
	t.lineTS.setRaw(int(line), now)
}

// OnLoad observes a heap load at address a with address class cls.
func (t *Tracer) OnLoad(a mem.Addr, now int64, cls AddrClass) {
	if cls != ClassStack {
		if ts, ok := t.storeTS.getTS(int(a)); ok {
			t.noteDep(cls.depKey(), ts, now)
		}
	}
	t.noteLine(a, false, now)
}

// OnStore observes a heap store at address a with address class cls.
func (t *Tracer) OnStore(a mem.Addr, now int64, cls AddrClass) {
	if cls != ClassStack {
		t.storeTS.setTS(int(a), now)
	}
	t.noteLine(a, true, now)
}

// OnLocalLoad observes an lwl annotation. key identifies the local variable
// (composed by the machine from frame pointer and slot id); slot is the
// per-method slot id used for optimization decisions.
func (t *Tracer) OnLocalLoad(key uint64, slot uint32, now int64) {
	t.AnnotationCount++
	if ts, ok := t.localTS.get(key); ok {
		t.noteDep(slot, ts, now)
	}
}

// OnLocalStore observes an swl annotation.
func (t *Tracer) OnLocalStore(key uint64, slot uint32, now int64) {
	t.AnnotationCount++
	t.localTS.put(key, now)
}

// Sufficient implements the paper's data-collection heuristic: a loop's
// profile is sufficient once at least 1000 iterations have executed, or once
// the loop consistently predicts speculative overflow.
func (ls *LoopStats) Sufficient() bool {
	if ls.Iterations >= 1000 {
		return true
	}
	return ls.Iterations >= 16 && ls.OverflowIters == ls.Iterations
}
