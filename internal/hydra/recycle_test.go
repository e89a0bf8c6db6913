package hydra

import (
	"runtime/metrics"
	"testing"
)

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestMachineRecyclingBound: once the free lists are warm, a profiled
// machine's whole life — build, run, release — allocates only small
// per-machine bookkeeping. The simulated memory, the TLS unit's
// speculative buffers and the tracer's flat timestamp tables (about 40 MB
// together) must all come from the free lists, and a recycled machine must
// run exactly like a fresh one.
func TestMachineRecyclingBound(t *testing.T) {
	const iters = 8
	const bound = 256 << 10
	img := buildParallelSTL(64, 100000, 4)
	opts := DefaultOptions()
	opts.Profile = true
	var clocks []int64
	cycle := func() {
		m := NewMachine(img, newStubRuntime(), opts)
		if err := m.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		clocks = append(clocks, m.Clock)
		m.Release()
	}
	cycle() // warm the free lists
	before := heapAllocBytes()
	for i := 0; i < iters; i++ {
		cycle()
	}
	per := (heapAllocBytes() - before) / iters
	for i, c := range clocks {
		if c != clocks[0] {
			t.Fatalf("run %d took %d cycles, the first %d: recycled state leaked", i, c, clocks[0])
		}
	}
	t.Logf("%d bytes allocated per machine", per)
	if per >= bound {
		t.Fatalf("a recycled machine allocates %d KB per build/run/release, want < %d KB", per>>10, bound>>10)
	}
}
