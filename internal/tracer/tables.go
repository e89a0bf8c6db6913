// Hardware-shaped TEST timestamp memories.
//
// The paper holds TEST's timestamp state in the idle speculative store
// buffers — fixed hardware RAM, not an associative software map. This file
// models the three timestamp tables the same way on the host:
//
//   - the heap store-timestamp and cache-line timestamp tables are flat
//     arrays indexed directly by word/line address (the simulated memory is
//     small enough that a direct-mapped table with no tags is exact), and
//   - the local-variable table and the per-bank arc registers are
//     generation-stamped open-addressed CAMs.
//
// Every entry is generation-tagged, so "clearing" a table between profiling
// runs is a single counter bump, and the two large flat tables (with the
// local-variable CAM) are recycled through a bounded free list — a fresh
// Tracer costs neither a 42 MB allocation nor a 42 MB memclr. The free
// list is a channel rather than a sync.Pool because the garbage collector
// empties a sync.Pool at every cycle, and the pipeline's allocation rate
// triggers a cycle between most profiling runs. Nothing on the per-access
// record path allocates.
package tracer

import "jrpm/internal/mem"

// PaperComparatorBanks is the number of TEST comparator banks (paper §3,
// Figure 2): eight banks cover typical loop-nest depths. DefaultConfig and
// DESIGN.md both quote this constant.
const PaperComparatorBanks = 8

// tsEntry layout: the top 24 bits hold the slab generation, the low 40 bits
// the stored value. 2^40 cycles is far beyond any configured budget; a slab
// is retired and reallocated before its generation counter can wrap.
const (
	tsValBits = 40
	tsValMask = (1 << tsValBits) - 1
	tsGenMax  = 1 << (64 - tsValBits)
)

// tsSlab is one flat generation-tagged timestamp table.
type tsSlab struct {
	entries []uint64
	gen     uint64
}

// tsTables is one tracer's timestamp tables, recycled together.
type tsTables struct {
	store, line *tsSlab
	local       *localCAM
}

// tsFree recycles table sets across Tracer instances. A pipeline run has
// one profiling leg, so two entries cover concurrent pipelines.
var tsFree = make(chan tsTables, 2)

// newTables returns empty tables for memWords words, reusing a released
// set when the geometry matches (other sizes are left to the collector).
func newTables(memWords int) tsTables {
	lines := memWords/mem.LineWords + 1
	select {
	case t := <-tsFree:
		if len(t.store.entries) == memWords && len(t.line.entries) == lines {
			t.store.reuse()
			t.line.reuse()
			t.local.reset()
			return t
		}
	default:
	}
	return tsTables{newSlab(memWords), newSlab(lines), newLocalCAM(1 << 12)}
}

func (t tsTables) release() {
	select {
	case tsFree <- t:
	default: // free list full; let the collector take it
	}
}

func newSlab(size int) *tsSlab { return &tsSlab{entries: make([]uint64, size), gen: 1} }

// reuse empties a recycled slab by advancing its generation.
func (s *tsSlab) reuse() {
	s.gen++
	if s.gen >= tsGenMax {
		clear(s.entries)
		s.gen = 1
	}
}

// setRaw stores v (absent ≡ 0 semantics: a stored zero is indistinguishable
// from an empty entry, exactly like reading a missing map key).
func (s *tsSlab) setRaw(i int, v int64) {
	if uint(i) < uint(len(s.entries)) {
		s.entries[i] = s.gen<<tsValBits | uint64(v)&tsValMask
	}
}

// getRaw returns the stored value, zero when the entry is stale or unset.
func (s *tsSlab) getRaw(i int) int64 {
	if uint(i) >= uint(len(s.entries)) {
		return 0
	}
	e := s.entries[i]
	if e>>tsValBits != s.gen {
		return 0
	}
	return int64(e & tsValMask)
}

// setTS / getTS store v+1 so that presence is distinguishable from a
// timestamp of zero (map comma-ok semantics).
func (s *tsSlab) setTS(i int, v int64) { s.setRaw(i, v+1) }

func (s *tsSlab) getTS(i int) (int64, bool) {
	v := s.getRaw(i)
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// localCAM is a growable generation-stamped open-addressed map from
// composite local-variable keys to store timestamps.
type localCAM struct {
	mask   uint32
	keys   []uint64
	gen    []uint32
	vals   []int64
	n      int
	curGen uint32
}

func newLocalCAM(capacity int) *localCAM {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	return &localCAM{
		mask:   uint32(size - 1),
		keys:   make([]uint64, size),
		gen:    make([]uint32, size),
		vals:   make([]int64, size),
		curGen: 1,
	}
}

func (c *localCAM) reset() {
	c.n = 0
	c.curGen++
	if c.curGen == 0 {
		clear(c.gen)
		c.curGen = 1
	}
}

func hashKey64(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	return uint32(k >> 32)
}

func (c *localCAM) get(k uint64) (int64, bool) {
	for slot := hashKey64(k) & c.mask; ; slot = (slot + 1) & c.mask {
		if c.gen[slot] != c.curGen {
			return 0, false
		}
		if c.keys[slot] == k {
			return c.vals[slot], true
		}
	}
}

func (c *localCAM) put(k uint64, v int64) {
	for slot := hashKey64(k) & c.mask; ; slot = (slot + 1) & c.mask {
		if c.gen[slot] != c.curGen {
			c.gen[slot] = c.curGen
			c.keys[slot] = k
			c.vals[slot] = v
			c.n++
			if uint32(c.n)*2 > c.mask {
				c.grow()
			}
			return
		}
		if c.keys[slot] == k {
			c.vals[slot] = v
			return
		}
	}
}

func (c *localCAM) grow() {
	oldKeys, oldGen, oldVals, oldCur := c.keys, c.gen, c.vals, c.curGen
	size := 2 * len(oldKeys)
	c.mask = uint32(size - 1)
	c.keys = make([]uint64, size)
	c.gen = make([]uint32, size)
	c.vals = make([]int64, size)
	c.curGen = 1
	c.n = 0
	for i, g := range oldGen {
		if g == oldCur {
			c.put(oldKeys[i], oldVals[i])
		}
	}
}

// depCAM holds one bank's per-iteration minimum-distance arcs, keyed by
// dependency source. Iteration (for folding into LoopStats) follows
// insertion order, so the critical-arc tie-break is deterministic — a Go map
// here made tied arcs race on iteration order.
type depCAM struct {
	mask   uint32
	keys   []uint32
	gen    []uint32
	arcs   []arcInfo
	order  []int32
	curGen uint32
}

func newDepCAM(capacity int) *depCAM {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	return &depCAM{
		mask:   uint32(size - 1),
		keys:   make([]uint32, size),
		gen:    make([]uint32, size),
		arcs:   make([]arcInfo, size),
		order:  make([]int32, 0, capacity),
		curGen: 1,
	}
}

func (c *depCAM) reset() {
	c.order = c.order[:0]
	c.curGen++
	if c.curGen == 0 {
		clear(c.gen)
		c.curGen = 1
	}
}

func hashKey32(k uint32) uint32 { return k * 0x9E3779B1 }

func (c *depCAM) get(k uint32) (arcInfo, bool) {
	for slot := hashKey32(k) & c.mask; ; slot = (slot + 1) & c.mask {
		if c.gen[slot] != c.curGen {
			return arcInfo{}, false
		}
		if c.keys[slot] == k {
			return c.arcs[slot], true
		}
	}
}

func (c *depCAM) put(k uint32, a arcInfo) {
	for slot := hashKey32(k) & c.mask; ; slot = (slot + 1) & c.mask {
		if c.gen[slot] != c.curGen {
			c.gen[slot] = c.curGen
			c.keys[slot] = k
			c.arcs[slot] = a
			c.order = append(c.order, int32(slot))
			if 2*len(c.order) > len(c.keys) {
				c.grow()
			}
			return
		}
		if c.keys[slot] == k {
			c.arcs[slot] = a
			return
		}
	}
}

func (c *depCAM) grow() {
	oldKeys, oldArcs, oldOrder := c.keys, c.arcs, c.order
	size := 2 * len(oldKeys)
	c.mask = uint32(size - 1)
	c.keys = make([]uint32, size)
	c.gen = make([]uint32, size)
	c.arcs = make([]arcInfo, size)
	c.order = make([]int32, 0, len(oldOrder)*2)
	c.curGen = 1
	for _, slot := range oldOrder {
		c.put(oldKeys[slot], oldArcs[slot])
	}
}

// startRing retains the most recent thread-start timestamps of a bank
// (cfg.StartRing deep) without the reallocation churn of a sliding slice.
type startRing struct {
	buf  []int64
	head int // index of the oldest retained start
	n    int
}

func newStartRing(depth int) *startRing {
	if depth < 1 {
		depth = 1
	}
	return &startRing{buf: make([]int64, depth)}
}

func (r *startRing) reset() { r.head, r.n = 0, 0 }

func (r *startRing) push(v int64) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the i-th newest start (i = 0 is the current thread start).
func (r *startRing) at(i int) int64 {
	return r.buf[(r.head+r.n-1-i)%len(r.buf)]
}
