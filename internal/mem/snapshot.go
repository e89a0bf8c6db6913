package mem

import "fmt"

// PageWords is the granularity of a State's sparse low span: 512 words,
// 4 kB.
const PageWords = 512

// Page is one page of a State's low span holding at least one non-zero
// word.
type Page struct {
	Base  Addr    // first word address, a multiple of PageWords
	Words []int64 // words[Base : min(Base+PageWords, LoMax)]
}

// State is a deterministic capture of a Memory's observable contents: the
// dirty-watermark spans on either side of the split. Words outside the
// spans are zero in any freshly pooled memory, and words inside the low
// span that were never written by the owner are — by the HeapZeroer
// discipline — never read, so restoring the spans reproduces every read the
// resumed run can perform. The low span reaches the top of the heap and is
// almost all zero, so it is kept as its non-zero pages only.
type State struct {
	Size  int
	Split Addr
	LoMax Addr
	HiMin Addr
	Low   []Page  // the non-zero pages of words[0:LoMax], ascending
	High  []int64 // words[HiMin:Size]
}

// CaptureState copies the dirty spans into a State. The copy is private to
// the caller; later writes to the memory do not affect it.
func (m *Memory) CaptureState() State {
	st := State{
		Size:  len(m.words),
		Split: m.split,
		LoMax: m.loMax,
		HiMin: m.hiMin,
	}
	for base := Addr(0); base < m.loMax; base += PageWords {
		p := m.words[base:min(base+PageWords, m.loMax)]
		for _, v := range p {
			if v != 0 {
				st.Low = append(st.Low, Page{Base: base, Words: append([]int64(nil), p...)})
				break
			}
		}
	}
	st.High = append([]int64(nil), m.words[m.hiMin:]...)
	return st
}

// RestoreState writes a captured State back into the memory. The target
// must have the same geometry (size and split) and should be freshly
// acquired: only zero or stale-but-unreadable words may sit outside its
// watermarks. The low watermark is widened, never narrowed, so any stale
// span inherited from the pool stays bounded for release-time scrubbing.
func (m *Memory) RestoreState(st State) error {
	if st.Size != len(m.words) || st.Split != m.split {
		return fmt.Errorf("mem: restore geometry mismatch: snapshot %d/%d words split %d/%d",
			st.Size, len(m.words), st.Split, m.split)
	}
	if st.Size-int(st.HiMin) != len(st.High) {
		return fmt.Errorf("mem: restore span lengths inconsistent with watermarks")
	}
	if st.LoMax > st.Split || st.HiMin < st.Split {
		return fmt.Errorf("mem: restore watermarks cross the split")
	}
	next := Addr(0)
	for _, p := range st.Low {
		if p.Base%PageWords != 0 || p.Base < next || p.Base >= st.LoMax ||
			len(p.Words) != int(min(p.Base+PageWords, st.LoMax)-p.Base) {
			return fmt.Errorf("mem: restore page at %d malformed or out of order", p.Base)
		}
		next = p.Base + PageWords
	}
	clear(m.words[:st.LoMax])
	for _, p := range st.Low {
		copy(m.words[p.Base:], p.Words)
	}
	copy(m.words[st.HiMin:], st.High)
	// Zero anything the target dirtied above the snapshot's high watermark
	// (a booted-but-unrestored machine could have touched stack words).
	if m.hiMin < st.HiMin {
		clear(m.words[m.hiMin:st.HiMin])
	}
	if st.LoMax > m.loMax {
		m.loMax = st.LoMax
	}
	m.hiMin = st.HiMin
	return nil
}

// SetState captures one set-associative tag array: tags, per-entry LRU
// stamps and the LRU clock. Replacement decisions depend on all three, so
// a restored cache charges exactly the latencies the original would have.
type SetState struct {
	Tags  []Addr
	LRU   []uint32
	Clock uint32
}

func (s *setAssoc) captureState() SetState {
	return SetState{
		Tags:  append([]Addr(nil), s.tags...),
		LRU:   append([]uint32(nil), s.lru...),
		Clock: s.clock,
	}
}

func (s *setAssoc) restoreState(st SetState) error {
	if len(st.Tags) != len(s.tags) || len(st.LRU) != len(s.lru) {
		return fmt.Errorf("mem: cache restore geometry mismatch: %d/%d tags, %d/%d lru",
			len(st.Tags), len(s.tags), len(st.LRU), len(s.lru))
	}
	copy(s.tags, st.Tags)
	copy(s.lru, st.LRU)
	s.clock = st.Clock
	return nil
}

// CacheState captures the full cache hierarchy: every L1, the shared L2,
// and the hit/miss counters (the counters are not wire-carried today, but
// the tag/LRU state decides every future latency, so both travel together).
type CacheState struct {
	L1       []SetState
	L2       SetState
	L1Hits   int64
	L1Misses int64
	L2Hits   int64
	L2Misses int64
}

// CaptureState copies the hierarchy's tag state and counters.
func (cs *CacheSim) CaptureState() CacheState {
	st := CacheState{
		L2:       cs.l2.captureState(),
		L1Hits:   cs.L1Hits,
		L1Misses: cs.L1Misses,
		L2Hits:   cs.L2Hits,
		L2Misses: cs.L2Misses,
	}
	for _, l1 := range cs.l1 {
		st.L1 = append(st.L1, l1.captureState())
	}
	return st
}

// RestoreState writes a captured hierarchy back. The target must have the
// same geometry (CPU count and per-level shape).
func (cs *CacheSim) RestoreState(st CacheState) error {
	if len(st.L1) != len(cs.l1) {
		return fmt.Errorf("mem: cache restore NCPU mismatch: snapshot %d, machine %d", len(st.L1), len(cs.l1))
	}
	for i, l1 := range cs.l1 {
		if err := l1.restoreState(st.L1[i]); err != nil {
			return fmt.Errorf("l1[%d]: %w", i, err)
		}
	}
	if err := cs.l2.restoreState(st.L2); err != nil {
		return fmt.Errorf("l2: %w", err)
	}
	cs.L1Hits, cs.L1Misses = st.L1Hits, st.L1Misses
	cs.L2Hits, cs.L2Misses = st.L2Hits, st.L2Misses
	return nil
}
