package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(1024)
	m.Write(10, 42)
	m.Write(1023, -7)
	if m.Read(10) != 42 || m.Read(1023) != -7 || m.Read(0) != 0 {
		t.Fatal("read/write mismatch")
	}
}

func TestMemoryOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range read")
		}
	}()
	NewMemory(8).Read(8)
}

func TestLine(t *testing.T) {
	if Line(0) != 0 || Line(3) != 0 || Line(4) != 1 || Line(7) != 1 || Line(8) != 2 {
		t.Fatal("line computation wrong for 4-word lines")
	}
}

func TestCacheColdMissThenHit(t *testing.T) {
	cs := NewCacheSim(DefaultCacheConfig(4))
	if lat := cs.Load(0, 100); lat != LatMem {
		t.Fatalf("cold load latency = %d, want %d", lat, LatMem)
	}
	if lat := cs.Load(0, 101); lat != LatL1 {
		t.Fatalf("same-line load latency = %d, want %d (L1 hit)", lat, LatL1)
	}
	// A different CPU misses its own L1 but hits the shared L2.
	if lat := cs.Load(1, 100); lat != LatL2 {
		t.Fatalf("cross-CPU load latency = %d, want %d (L2 hit)", lat, LatL2)
	}
}

func TestCacheStoreWriteThrough(t *testing.T) {
	cs := NewCacheSim(DefaultCacheConfig(2))
	if lat := cs.Store(0, 200); lat != LatL1 {
		t.Fatalf("store latency = %d, want %d", lat, LatL1)
	}
	// Store allocated the line in L2, so the other CPU's load is an L2 hit.
	if lat := cs.Load(1, 200); lat != LatL2 {
		t.Fatalf("load after remote store = %d, want %d", lat, LatL2)
	}
}

func TestCacheEviction(t *testing.T) {
	cfg := DefaultCacheConfig(1)
	cfg.L1Lines = 8
	cfg.L1Assoc = 2 // 4 sets
	cs := NewCacheSim(cfg)
	// Fill one set (set 0 holds lines 0, 4, 8, ... in a 4-set cache) beyond
	// its associativity. Use line numbers: addresses line*LineWords.
	a := func(line Addr) Addr { return line * LineWords }
	cs.Load(0, a(4))
	cs.Load(0, a(8))
	cs.Load(0, a(12)) // evicts line 4 (LRU)
	if lat := cs.Load(0, a(8)); lat != LatL1 {
		t.Fatalf("line 8 should still hit L1, got %d", lat)
	}
	if lat := cs.Load(0, a(4)); lat != LatL2 {
		t.Fatalf("evicted line should hit L2, got %d", lat)
	}
}

func TestInvalidateL1(t *testing.T) {
	cs := NewCacheSim(DefaultCacheConfig(2))
	cs.Load(0, 300)
	cs.InvalidateL1(0, 300)
	if lat := cs.Load(0, 300); lat != LatL2 {
		t.Fatalf("after invalidate, load should hit L2, got %d", lat)
	}
}

func TestCacheStatsAccumulate(t *testing.T) {
	cs := NewCacheSim(DefaultCacheConfig(1))
	cs.Load(0, 0x40)
	cs.Load(0, 0x40)
	if cs.L1Hits != 1 || cs.L1Misses != 1 || cs.L2Misses != 1 {
		t.Fatalf("stats = hits %d misses %d l2miss %d", cs.L1Hits, cs.L1Misses, cs.L2Misses)
	}
}

// Property: memory behaves as an array — the last write to an address wins
// and does not disturb neighbours.
func TestMemoryPropertyLastWriteWins(t *testing.T) {
	m := NewMemory(4096)
	f := func(addr uint16, v1, v2 int64) bool {
		a := Addr(addr) % 4095
		m.Write(a, v1)
		m.Write(a+1, v2)
		m.Write(a, v2)
		return m.Read(a) == v2 && m.Read(a+1) == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a load immediately following a load of the same address always
// hits L1 (no spontaneous eviction).
func TestCachePropertyRepeatHit(t *testing.T) {
	cs := NewCacheSim(DefaultCacheConfig(4))
	f := func(addr uint32, cpu uint8) bool {
		c := int(cpu) % 4
		a := Addr(addr % (1 << 20))
		cs.Load(c, a)
		return cs.Load(c, a) == LatL1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStateKeepsOnlyNonZeroPages: a capture holds the non-zero pages of the
// low span only, and restoring it over stale words reproduces the memory.
func TestStateKeepsOnlyNonZeroPages(t *testing.T) {
	const size, split = 1 << 16, 1 << 15
	src := NewMemory(size)
	src.split = split
	src.Write(3, 7)
	src.Write(split-1, -1) // top of the low span: LoMax = split
	src.Write(size-2, 9)   // high span
	st := src.CaptureState()
	if len(st.Low) != 2 || st.Low[0].Base != 0 || st.Low[1].Base != split-PageWords {
		t.Fatalf("low pages = %d (bases %v), want the first and last page only", len(st.Low), st.Low)
	}
	dst := NewMemory(size)
	dst.split = split
	for a := Addr(0); a < split; a += 97 {
		dst.Write(a, 5) // stale words a restore must overwrite
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for a := Addr(0); a < size; a++ {
		if dst.Read(a) != src.Read(a) {
			t.Fatalf("word %d = %d after restore, want %d", a, dst.Read(a), src.Read(a))
		}
	}
	st.Low[1].Base++ // misaligned
	if err := dst.RestoreState(st); err == nil {
		t.Fatal("a misaligned page restored without error")
	}
}
