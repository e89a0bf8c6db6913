// Hardware-shaped speculative buffers.
//
// The paper's Figure 2 gives the speculation hardware as small fixed-size
// structures: a 64-line × 32-byte speculative store buffer with per-word
// valid bits, and 512 lines of speculatively-read (load buffer) tags in the
// L1. This file models them as exactly that shape on the host: fixed
// open-addressed tag arrays probed by line address, with word-valid bits and
// in-line data words for the store buffer. A lookup is one hash and a short
// linear probe; a capacity check is an integer compare against an occupancy
// counter; clearing a buffer on violation or commit is a single generation
// bump. Nothing on the per-access path allocates.
//
// Drains replay the buffered lines in insertion order (allocation order of
// the hardware lines) and words in ascending offset within each line. That
// order is fully deterministic — unlike ranging over a Go map — so the cache
// LRU perturbation of a drain is identical from run to run, which the golden
// cycle-equivalence suite depends on.
package tls

import "jrpm/internal/mem"

// Paper Figure-2 speculation buffer capacities. These are the single source
// of the numbers quoted in DESIGN.md and used by DefaultConfig; the ablation
// studies override them per run.
const (
	// PaperStoreBufferLines is the speculative store buffer size: 64 lines
	// of 32 bytes (2 kB of buffered speculative writes per CPU).
	PaperStoreBufferLines = 64
	// PaperLoadBufferLines is the number of L1 lines whose speculative
	// read tag bits track exposed reads (512 lines = the whole 16 kB L1).
	PaperLoadBufferLines = 512
)

// hashAddr spreads line/word addresses over a power-of-two table
// (Fibonacci multiplicative hashing; the low bits of word addresses are
// strongly sequential).
func hashAddr(a mem.Addr) uint32 { return uint32(a) * 0x9E3779B1 }

// storeBuffer is one thread's speculative store buffer: an open-addressed
// CAM keyed by line address, each entry holding LineWords data words and a
// word-valid bitmask. slot state is generation-stamped so reset is O(1).
type storeBuffer struct {
	mask  uint32
	tags  []mem.Addr // line address per slot
	gen   []uint32   // slot valid iff gen[slot] == curGen
	valid []uint8    // per-word valid bits within the line
	words []int64    // LineWords data words per slot
	order []int32    // slots in line-allocation order (deterministic drain)

	curGen uint32
}

// newStoreBuffer sizes the table so it can hold hardCap+1 lines (the runaway
// hard cap trips before the table can fill) at ≤ 50% load.
func newStoreBuffer(hardCap int) *storeBuffer {
	size := 1
	for size < 2*(hardCap+2) {
		size <<= 1
	}
	return &storeBuffer{
		mask:   uint32(size - 1),
		tags:   make([]mem.Addr, size),
		gen:    make([]uint32, size),
		valid:  make([]uint8, size),
		words:  make([]int64, size*mem.LineWords),
		order:  make([]int32, 0, hardCap+2),
		curGen: 1,
	}
}

// reset discards all buffered state in O(1) by bumping the generation.
func (b *storeBuffer) reset() {
	b.order = b.order[:0]
	b.curGen++
	if b.curGen == 0 { // generation wrap: physically clear stale stamps
		clear(b.gen)
		b.curGen = 1
	}
}

// lines returns the number of buffered store-buffer lines.
func (b *storeBuffer) lines() int { return len(b.order) }

// get returns the buffered value of word a, if present.
func (b *storeBuffer) get(a mem.Addr) (int64, bool) {
	if len(b.order) == 0 {
		return 0, false // empty: skip the probe
	}
	line := mem.Line(a)
	off := uint(a) % mem.LineWords
	for slot := hashAddr(line) & b.mask; ; slot = (slot + 1) & b.mask {
		if b.gen[slot] != b.curGen {
			return 0, false
		}
		if b.tags[slot] == line {
			if b.valid[slot]&(1<<off) == 0 {
				return 0, false
			}
			return b.words[int(slot)*mem.LineWords+int(off)], true
		}
	}
}

// getLineOnly is get with the per-word valid bits ignored: any probe of a
// buffered line hits, returning the raw data-array word even if it was never
// written. This exists solely for the Config.ChaosNoWordValid conformance
// hook — it reintroduces the line-granularity forwarding bug that the
// differential suite must be able to detect.
func (b *storeBuffer) getLineOnly(a mem.Addr) (int64, bool) {
	line := mem.Line(a)
	off := uint(a) % mem.LineWords
	for slot := hashAddr(line) & b.mask; ; slot = (slot + 1) & b.mask {
		if b.gen[slot] != b.curGen {
			return 0, false
		}
		if b.tags[slot] == line {
			return b.words[int(slot)*mem.LineWords+int(off)], true
		}
	}
}

// put buffers a write of v to word a, allocating the line on first touch.
func (b *storeBuffer) put(a mem.Addr, v int64) {
	line := mem.Line(a)
	off := uint(a) % mem.LineWords
	slot := hashAddr(line) & b.mask
	for ; ; slot = (slot + 1) & b.mask {
		if b.gen[slot] != b.curGen {
			b.gen[slot] = b.curGen
			b.tags[slot] = line
			b.valid[slot] = 0
			b.order = append(b.order, int32(slot))
			break
		}
		if b.tags[slot] == line {
			break
		}
	}
	b.valid[slot] |= 1 << off
	b.words[int(slot)*mem.LineWords+int(off)] = v
}

// addrSet is a generation-stamped open-addressed set of addresses, modelling
// the speculative read tag bits (word grain for violation detection, line
// grain for load-buffer occupancy). It grows — rehashing — only if occupancy
// passes 50%, which the overflow-park protocol keeps from happening in
// practice; growth preserves correctness if a protocol path outruns it.
type addrSet struct {
	mask   uint32
	keys   []mem.Addr
	gen    []uint32
	n      int
	curGen uint32

	// order lists the live keys in insertion order. It exists for the
	// deterministic state digests the litmus model checker hashes
	// (DebugAppendState); maintaining it costs one bounds-checked append per
	// newly tracked address and never allocates after construction.
	order []mem.Addr
}

func newAddrSet(capacity int) *addrSet {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	return &addrSet{
		mask:   uint32(size - 1),
		keys:   make([]mem.Addr, size),
		gen:    make([]uint32, size),
		curGen: 1,
		order:  make([]mem.Addr, 0, capacity),
	}
}

func (s *addrSet) reset() {
	s.n = 0
	s.order = s.order[:0]
	s.curGen++
	if s.curGen == 0 {
		clear(s.gen)
		s.curGen = 1
	}
}

func (s *addrSet) len() int { return s.n }

func (s *addrSet) contains(a mem.Addr) bool {
	for slot := hashAddr(a) & s.mask; ; slot = (slot + 1) & s.mask {
		if s.gen[slot] != s.curGen {
			return false
		}
		if s.keys[slot] == a {
			return true
		}
	}
}

func (s *addrSet) add(a mem.Addr) {
	for slot := hashAddr(a) & s.mask; ; slot = (slot + 1) & s.mask {
		if s.gen[slot] != s.curGen {
			s.gen[slot] = s.curGen
			s.keys[slot] = a
			s.n++
			s.order = append(s.order, a)
			if uint32(s.n)*2 > s.mask {
				s.grow()
			}
			return
		}
		if s.keys[slot] == a {
			return
		}
	}
}

// grow doubles the table, reinserting live keys in insertion order (which
// preserves the order slice's meaning across growth).
func (s *addrSet) grow() {
	oldOrder := s.order
	size := 2 * len(s.keys)
	s.mask = uint32(size - 1)
	s.keys = make([]mem.Addr, size)
	s.gen = make([]uint32, size)
	s.curGen = 1
	s.n = 0
	s.order = make([]mem.Addr, 0, 2*cap(oldOrder))
	for _, a := range oldOrder {
		s.add(a)
	}
}
