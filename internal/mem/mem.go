// Package mem provides the simulated flat memory of the Hydra CMP and the
// cache hierarchy latency model.
//
// Memory is word addressed; one word is 8 bytes and one cache line is
// LineWords = 4 words = 32 bytes, matching the paper's 32-byte lines. All
// architectural data — the VM heap, runtime stacks, static fields, free
// lists and object lock words — lives in this address space, so every
// dependency the paper discusses is visible to the TLS hardware and to the
// TEST profiler as real memory traffic.
//
// The cache model tracks tags only (data always lives in the flat array; L1s
// are write-through) and exists to charge the latencies of the paper's
// Figure 2: L1 hit 1 cycle, L2 hit 5 cycles, inter-processor transfer 10
// cycles, main memory 50 cycles.
package mem

import "errors"

// Addr is a word address.
type Addr uint32

// ErrOutOfRange is the sentinel every out-of-range data access fault unwraps
// to. The memory itself never raises it: the machine layer checks InRange
// before each access and reports the fault with cpu/cycle context.
var ErrOutOfRange = errors.New("mem: address out of range")

// Geometry and latency constants (paper Figure 2).
const (
	WordBytes = 8
	LineWords = 4 // 32-byte lines

	LatL1        = 1  // L1 hit
	LatL2        = 5  // L2 hit
	LatInterproc = 10 // read from another CPU's speculative store buffer
	LatMem       = 50 // main memory
)

// Line returns the cache line index containing a.
func Line(a Addr) Addr { return a / LineWords }

// Memory is the flat simulated memory. It tracks dirty watermarks on either
// side of a split point (the low region fills bottom-up — globals and heap —
// while the high region is the runtime stack filling top-down), so a pooled
// memory can be re-zeroed by clearing only the touched ranges instead of the
// whole multi-megabyte array.
type Memory struct {
	words []int64
	split Addr // boundary between the low and high dirty regions
	loMax Addr // exclusive top of the dirty low region
	hiMin Addr // inclusive bottom of the dirty high region

	// staleLo marks the bottom of a region released without re-zeroing
	// (see ReleaseKeepStale): words in [staleLo, loMax) may hold data from
	// a previous owner. Addr(len(words)) — the usual case — means none.
	staleLo Addr
}

// NewMemory returns a memory of size words.
func NewMemory(size int) *Memory {
	return &Memory{words: make([]int64, size), split: Addr(size), hiMin: Addr(size), staleLo: Addr(size)}
}

// memFree recycles simulated memories between machine instances; a zeroed
// 33 MB array is the single largest allocation-and-memclr cost of a pipeline
// run, and the dirty watermarks make re-zeroing proportional to actual use.
// A bounded channel rather than a sync.Pool: the garbage collector empties a
// sync.Pool at every cycle, and with multi-megabyte arrays the refill cost
// (a fresh zeroed allocation per machine) dominated pipeline profiles.
var memFree = make(chan *Memory, 4)

// NewPooledMemory returns a zeroed memory of size words, reusing a released
// one when the geometry matches. split is the low/high dirty-region boundary
// (typically the base of the stack region).
func NewPooledMemory(size int, split Addr) *Memory {
	if m := reclaim(size, split); m != nil {
		// A lazily released memory may carry a stale span; this entry
		// point guarantees all-zero contents.
		if m.staleLo < m.loMax {
			clear(m.words[m.staleLo:m.loMax])
		}
		m.loMax = 0
		m.staleLo = Addr(size)
		return m
	}
	m := NewMemory(size)
	m.split = split
	return m
}

// NewPooledMemoryStale is NewPooledMemory for an owner that re-initializes
// every word of [staleLo, split) before reading it (a VM whose allocator
// zeroes each block it hands out). Words in that window may hold data from a
// previous owner; everything outside it is zero.
func NewPooledMemoryStale(size int, split, staleLo Addr) *Memory {
	if m := reclaim(size, split); m != nil {
		if m.staleLo < staleLo {
			// The previous owner's stale span starts below what this
			// owner tolerates: scrub the difference.
			top := m.loMax
			if staleLo < top {
				top = staleLo
			}
			clear(m.words[m.staleLo:top])
		}
		m.staleLo = staleLo
		return m
	}
	m := NewMemory(size)
	m.split = split
	m.staleLo = staleLo
	return m
}

// reclaim pops a recycled memory with matching geometry, or returns nil.
func reclaim(size int, split Addr) *Memory {
	select {
	case m := <-memFree:
		if len(m.words) == size && m.split == split {
			return m
		}
		// Geometry mismatch (custom-size test memories): drop it and let
		// the collector take it.
	default:
	}
	return nil
}

// Release re-zeroes the dirty ranges and returns the memory to the free
// list. The caller must not touch it afterwards.
func (m *Memory) Release() {
	m.ReleaseKeepStale(Addr(len(m.words)))
}

// ReleaseKeepStale is Release except that dirty words at or above keep in
// the low region are returned to the free list as-is, not re-zeroed. The
// skipped span is recorded so a later strict NewPooledMemory can scrub it;
// NewPooledMemoryStale hands it out untouched. A VM whose allocator zeroes
// every block before use never reads a heap word it did not initialize, so
// skipping the heap span turns the release-time memclr bill — megawords per
// pipeline leg — into the few kilowords of globals and stack that actually
// need it.
func (m *Memory) ReleaseKeepStale(keep Addr) {
	// The possibly-nonzero low span is [0, loMax): loMax bounds this
	// owner's writes, and any stale span inherited at acquisition sits
	// below it too.
	lo := m.loMax
	if keep < lo {
		lo = keep
	}
	clear(m.words[:lo])
	clear(m.words[m.hiMin:])
	m.hiMin = Addr(len(m.words))
	if keep >= m.loMax {
		m.loMax = 0
		m.staleLo = Addr(len(m.words))
	} else {
		// loMax keeps bounding the possibly-nonzero span for the next
		// owner; only [keep, loMax) survives unzeroed.
		m.staleLo = keep
	}
	select {
	case memFree <- m:
	default: // free list full; let the collector take it
	}
}

// Size returns the memory size in words.
func (m *Memory) Size() int { return len(m.words) }

// InRange reports whether a is a valid word address. The simulator core
// checks it before every load and store it simulates; Read and Write
// assume it holds.
func (m *Memory) InRange(a Addr) bool { return int(a) < len(m.words) }

// Read returns the word at a, which must be in range (an out-of-range index
// is a simulator bug, caught by the machine's single recover backstop).
func (m *Memory) Read(a Addr) int64 { return m.words[a] }

// Write stores v at a, which must be in range, as for Read.
func (m *Memory) Write(a Addr, v int64) {
	m.words[a] = v
	if a < m.split {
		if a >= m.loMax {
			m.loMax = a + 1
		}
	} else if a < m.hiMin {
		m.hiMin = a
	}
}

// CacheConfig describes the cache hierarchy geometry.
type CacheConfig struct {
	NCPU     int
	L1Lines  int // lines per CPU L1 (paper: 512 = 16 kB)
	L1Assoc  int // paper: 4-way
	L2Lines  int // shared L2 lines (paper: 65536 = 2 MB)
	L2Assoc  int
	LatL1    int64
	LatL2    int64
	LatMem   int64
	LatInter int64
}

// DefaultCacheConfig returns the paper's Hydra configuration for ncpu CPUs.
func DefaultCacheConfig(ncpu int) CacheConfig {
	return CacheConfig{
		NCPU:     ncpu,
		L1Lines:  512,
		L1Assoc:  4,
		L2Lines:  65536,
		L2Assoc:  8,
		LatL1:    LatL1,
		LatL2:    LatL2,
		LatMem:   LatMem,
		LatInter: LatInterproc,
	}
}

// setAssoc is a set-associative tag array with LRU replacement.
type setAssoc struct {
	sets  int
	mask  int // sets-1 when sets is a power of two, else -1 (modulo fallback)
	assoc int
	tags  []Addr   // sets*assoc entries; 0 means empty (line 0 is never cached: it is the null page)
	lru   []uint32 // per-entry last-use stamp
	clock uint32
}

func newSetAssoc(lines, assoc int) *setAssoc {
	sets := lines / assoc
	if sets == 0 {
		sets = 1
	}
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	return &setAssoc{
		sets:  sets,
		mask:  mask,
		assoc: assoc,
		tags:  make([]Addr, sets*assoc),
		lru:   make([]uint32, sets*assoc),
	}
}

// setOf maps a line to its set: a mask when the geometry allows (the paper's
// caches are power-of-two), an integer modulo otherwise.
func (s *setAssoc) setOf(line Addr) int {
	if s.mask >= 0 {
		return int(line) & s.mask
	}
	return int(line) % s.sets
}

// access looks line up, touching LRU state. If fill is true a miss allocates
// the line (evicting LRU). It reports whether the access hit.
func (s *setAssoc) access(line Addr, fill bool) bool {
	s.clock++
	set := s.setOf(line)
	base := set * s.assoc
	victim := base
	for i := 0; i < s.assoc; i++ {
		e := base + i
		if s.tags[e] == line {
			s.lru[e] = s.clock
			return true
		}
		if s.lru[e] < s.lru[victim] {
			victim = e
		}
	}
	if fill {
		s.tags[victim] = line
		s.lru[victim] = s.clock
	}
	return false
}

// reset empties the array, as newSetAssoc leaves it.
func (s *setAssoc) reset() {
	clear(s.tags)
	clear(s.lru)
	s.clock = 0
}

// contains reports whether line is present without touching LRU state.
func (s *setAssoc) contains(line Addr) bool {
	set := s.setOf(line)
	base := set * s.assoc
	for i := 0; i < s.assoc; i++ {
		if s.tags[base+i] == line {
			return true
		}
	}
	return false
}

// invalidate removes line if present.
func (s *setAssoc) invalidate(line Addr) {
	set := s.setOf(line)
	base := set * s.assoc
	for i := 0; i < s.assoc; i++ {
		if s.tags[base+i] == line {
			s.tags[base+i] = 0
			s.lru[base+i] = 0
		}
	}
}

// CacheSim models per-CPU L1 data caches over a shared L2 and charges access
// latencies. It tracks tags only; correctness data lives in Memory.
type CacheSim struct {
	cfg CacheConfig
	l1  []*setAssoc
	l2  *setAssoc

	// Statistics.
	L1Hits, L1Misses, L2Hits, L2Misses int64
}

// cacheFree recycles cache hierarchies between machine instances, for the
// reason memFree does: the paper's 2 MB L2 alone is 512 kB of tag and LRU
// arrays per machine. It holds as many as memFree, one per memory.
var cacheFree = make(chan *CacheSim, 4)

// NewCacheSim builds an empty cache hierarchy for cfg, reusing a released
// one with the same geometry.
func NewCacheSim(cfg CacheConfig) *CacheSim {
	select {
	case cs := <-cacheFree:
		if cs.cfg == cfg {
			for _, l1 := range cs.l1 {
				l1.reset()
			}
			cs.l2.reset()
			cs.L1Hits, cs.L1Misses, cs.L2Hits, cs.L2Misses = 0, 0, 0, 0
			return cs
		}
	default:
	}
	cs := &CacheSim{cfg: cfg, l2: newSetAssoc(cfg.L2Lines, cfg.L2Assoc)}
	for i := 0; i < cfg.NCPU; i++ {
		cs.l1 = append(cs.l1, newSetAssoc(cfg.L1Lines, cfg.L1Assoc))
	}
	return cs
}

// Release returns the hierarchy to the free list. The caller must not touch
// it afterwards.
func (cs *CacheSim) Release() {
	select {
	case cacheFree <- cs:
	default: // free list full; let the collector take it
	}
}

// Config returns the geometry the simulator was built with.
func (cs *CacheSim) Config() CacheConfig { return cs.cfg }

// Load charges the latency of a load by cpu from address a and updates tag
// state (L1 and L2 fills on miss).
func (cs *CacheSim) Load(cpu int, a Addr) int64 {
	line := Line(a)
	if cs.l1[cpu].access(line, true) {
		cs.L1Hits++
		return cs.cfg.LatL1
	}
	cs.L1Misses++
	if cs.l2.access(line, true) {
		cs.L2Hits++
		return cs.cfg.LatL2
	}
	cs.L2Misses++
	return cs.cfg.LatMem
}

// Store charges the latency of a store by cpu to address a. The L1s are
// write-through with a write buffer, so a store retires in one cycle; the
// write allocates in the L2 and updates (does not invalidate) other L1s that
// hold the line, as Hydra's write-through bus does. Here "updates" is a
// no-op because data lives in flat memory; we only keep tag state coherent.
func (cs *CacheSim) Store(cpu int, a Addr) int64 {
	line := Line(a)
	cs.l1[cpu].access(line, true)
	cs.l2.access(line, true)
	return cs.cfg.LatL1
}

// InterprocLatency returns the cost of reading a value out of another CPU's
// speculative store buffer across the read bus.
func (cs *CacheSim) InterprocLatency() int64 { return cs.cfg.LatInter }

// InvalidateL1 removes a line from one CPU's L1 (used when speculative state
// is discarded on a violation: the speculatively-read lines are flash
// cleared).
func (cs *CacheSim) InvalidateL1(cpu int, a Addr) {
	cs.l1[cpu].invalidate(Line(a))
}
