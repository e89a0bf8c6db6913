package hydra

import (
	"context"
	"reflect"
	"testing"

	"jrpm/internal/mem"
	"jrpm/internal/obs"
)

// Equivalence of the event-driven speculative scheduler with the
// interpreter. Every case runs with the block engine on (register runs and
// parked waits) and with Tier2Off (parked waits only, every instruction
// interpreted), with and without a ledger, and must agree on every
// observable: clock, error, instruction count, Figure 10 state statistics,
// commits, violations, overflows, output, memory, GC runs, ledger snapshot
// and the final register files of all CPUs. Each case also checks that the
// event it is about actually happened under the engine.

// specRun is one machine run of an equivalence case.
type specRun struct {
	m   *Machine
	err error
	led *obs.LedgerSnapshot
}

func runSpec(img *Image, rt func() Runtime, tierOff, ledger bool, ctx context.Context, maxCycles int64) specRun {
	opts := DefaultOptions()
	opts.Tier2Off = tierOff
	opts.Ctx = ctx
	var led *obs.Ledger
	if ledger {
		led = obs.NewLedger(opts.NCPU)
		opts.Ledger = led
	}
	m := NewMachine(img, runtimeOrStub(rt), opts)
	err := m.Run(maxCycles)
	r := specRun{m: m, err: err}
	if led != nil {
		led.Close(m.Clock)
		r.led = led.Snapshot()
	}
	return r
}

// requireSame fails unless two runs agree on every observable.
func requireSame(t *testing.T, on, off specRun) {
	t.Helper()
	a, b := on.m, off.m
	if (on.err == nil) != (off.err == nil) || on.err != nil && on.err.Error() != off.err.Error() {
		t.Fatalf("error: engine %v, interpreter %v", on.err, off.err)
	}
	type obsv struct {
		Clock, Instructions, GCRuns    int64
		Commits, Violations, Overflows int64
		Output                         []int64
	}
	oa := obsv{a.Clock, a.Instructions, a.GCRuns, a.TLS.Commits, a.TLS.Violations, a.TLS.Overflows, a.Output}
	ob := obsv{b.Clock, b.Instructions, b.GCRuns, b.TLS.Commits, b.TLS.Violations, b.TLS.Overflows, b.Output}
	if !reflect.DeepEqual(oa, ob) {
		t.Fatalf("observables differ:\n engine      %+v\n interpreter %+v", oa, ob)
	}
	if a.TLS.Stats != b.TLS.Stats {
		t.Fatalf("state stats differ:\n engine      %+v\n interpreter %+v", a.TLS.Stats, b.TLS.Stats)
	}
	for i := range a.CPUs {
		ca, cb := a.CPUs[i], b.CPUs[i]
		if ca.Regs != cb.Regs || ca.PC != cb.PC || ca.MethodID != cb.MethodID ||
			ca.state != cb.state || ca.readyAt != cb.readyAt {
			t.Fatalf("cpu%d differs:\n engine      pc %d state %d ready %d regs %v\n interpreter pc %d state %d ready %d regs %v",
				i, ca.PC, ca.state, ca.readyAt, ca.Regs, cb.PC, cb.state, cb.readyAt, cb.Regs)
		}
	}
	if !reflect.DeepEqual(a.Mem.CaptureState(), b.Mem.CaptureState()) {
		t.Fatal("memory differs")
	}
	if !reflect.DeepEqual(serialMerged(on.led), serialMerged(off.led)) {
		t.Fatalf("ledger differs:\n engine      %+v\n interpreter %+v", on.led, off.led)
	}
}

// serialMerged folds the serial tier-2 bucket into the interpreter one: the
// split records which tier ran the serial phase, the one ledger difference
// the block engine is meant to make.
func serialMerged(s *obs.LedgerSnapshot) *obs.LedgerSnapshot {
	if s == nil {
		return nil
	}
	c := *s
	c.Machine.SerialInterp += c.Machine.SerialTier2
	c.Machine.SerialTier2 = 0
	return &c
}

// equivalent runs img under both engines, with and without a ledger, and
// returns the engine machine of the ledger-free pair.
func equivalent(t *testing.T, img *Image, rt func() Runtime, ctx context.Context, maxCycles int64) *Machine {
	t.Helper()
	var eng *Machine
	for _, ledger := range []bool{false, true} {
		on := runSpec(img, rt, false, ledger, ctx, maxCycles)
		off := runSpec(img, rt, true, ledger, ctx, maxCycles)
		if on.m.t2 == nil || off.m.t2 != nil {
			t.Fatal("engine switch not honoured")
		}
		requireSame(t, on, off)
		if !ledger {
			eng = on.m
		}
	}
	return eng
}

func TestSpecEngineMatchesInterpreter(t *testing.T) {
	t.Run("violation-mid-run", func(t *testing.T) {
		m := equivalent(t, serializedSpec(48), nil, nil, 50_000_000)
		if m.TLS.Violations == 0 {
			t.Fatal("no violations")
		}
		if m.sched.cuts[0] == 0 || m.sched.cuts[1] == 0 {
			t.Fatalf("runs cut by lower/higher-index violators: %v, want both", m.sched.cuts)
		}
	})
	t.Run("kill-at-shutdown", func(t *testing.T) {
		m := equivalent(t, lateExitSpec(37), nil, nil, 50_000_000)
		if m.sched.cuts == [2]int64{} {
			t.Fatal("shutdown killed no CPU in a register run")
		}
	})
	t.Run("kill-at-multilevel-switch", func(t *testing.T) {
		m := equivalent(t, multilevelSpec(9, 13), nil, nil, 50_000_000)
		for i := int64(0); i < 9; i++ {
			if got := m.Mem.Read(mem.Addr(100000 + i)); got != i {
				t.Fatalf("outer[%d] = %d", i, got)
			}
		}
		for j := int64(0); j < 13; j++ {
			if got := m.Mem.Read(mem.Addr(150000 + j)); got != j {
				t.Fatalf("inner[%d] = %d", j, got)
			}
		}
		if m.sched.cuts == [2]int64{} {
			t.Fatal("the switches killed no CPU in a register run")
		}
	})
	t.Run("gc-quiesce-mid-run", func(t *testing.T) {
		rt := func() Runtime { return &gcEveryRuntime{stubRuntime: newStubRuntime(), k: 5} }
		m := equivalent(t, allocSpec(40), rt, nil, 50_000_000)
		if m.GCRuns == 0 || m.sched.cuts == [2]int64{} {
			t.Fatalf("gc runs %d, cut runs %v: want both", m.GCRuns, m.sched.cuts)
		}
	})
	t.Run("parked-waiters", func(t *testing.T) {
		m := equivalent(t, unevenSpec(48), nil, nil, 50_000_000)
		if m.Parks[obs.WaitEOI] == 0 {
			t.Fatal("no CPU parked at STL_EOI")
		}
		if m.sched.wakes[0] == 0 || m.sched.wakes[1] == 0 {
			t.Fatalf("wakes by lower/higher-index committers: %v, want both", m.sched.wakes)
		}
	})
	t.Run("parked-waiter-violated", func(t *testing.T) {
		// Odd iterations of the serialized loop are short: they park at
		// STL_EOI and the older thread's late write violates them there.
		m := equivalent(t, serializedSpec(48), nil, nil, 50_000_000)
		if m.Parks[obs.WaitEOI] == 0 || m.sched.parkedViolated == 0 {
			t.Fatalf("parks %v, violated while parked %d: want both", m.Parks, m.sched.parkedViolated)
		}
	})
}

// TestSpecEngineEdges stops runs at every cycle budget across a window of a
// speculative loop, and at a cancellation poll, while register runs and
// parked CPUs are pending: the stop cycle, the counters, the charges and
// every register file must match the interpreter's.
func TestSpecEngineEdges(t *testing.T) {
	img := serializedSpec(48)
	full := runSpec(img, nil, false, false, nil, 50_000_000)
	if full.err != nil {
		t.Fatal(full.err)
	}
	var stopCuts, stopParks int64
	for budget := int64(40); budget < full.m.Clock; budget += 11 {
		on := runSpec(img, nil, false, true, nil, budget)
		off := runSpec(img, nil, true, true, nil, budget)
		requireSame(t, on, off)
		stopCuts += on.m.sched.stopCuts
		stopParks += on.m.sched.stopParks
	}
	if stopCuts == 0 || stopParks == 0 {
		t.Fatalf("budget stops with pending runs %d, parked CPUs %d: want both", stopCuts, stopParks)
	}

	// A cancelled context fails the run at the first poll, CancelCheckStride.
	long := unevenSpec(8000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	on := runSpec(long, nil, false, true, ctx, 50_000_000)
	off := runSpec(long, nil, true, true, ctx, 50_000_000)
	requireSame(t, on, off)
	if on.err == nil || on.m.Clock != CancelCheckStride {
		t.Fatalf("cancelled run stopped at %d with %v, want ErrCancelled at %d", on.m.Clock, on.err, CancelCheckStride)
	}
	if on.m.sched.stopCuts+on.m.sched.stopParks == 0 {
		t.Fatal("cancellation found no pending work")
	}
}

// TestParkingCoverage reports how often each head-wait state parks across
// the pinned images of TestParkingGolden and requires the states those
// images exist for to park at least once (overflow and exception waits
// are pinned through generated programs in difftest).
func TestParkingCoverage(t *testing.T) {
	var parks [numWaitStates]int64
	for _, pc := range parkCases() {
		m := NewMachine(pc.img(), runtimeOrStub(pc.rt), DefaultOptions())
		if err := m.Run(50_000_000); err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		for i, n := range m.Parks {
			parks[i] += n
		}
	}
	for i, n := range parks {
		t.Logf("%-10s %d", obs.WaitName(int64(i)), n)
	}
	for _, r := range []int64{obs.WaitEOI, obs.WaitShutdown, obs.WaitIO, obs.WaitGC, obs.WaitSwitchIn, obs.WaitSwitchOut} {
		if parks[r] == 0 {
			t.Errorf("no CPU parked in %s", obs.WaitName(r))
		}
	}
}

// TestSpecSchedulerZeroAlloc proves the event-driven speculative scheduler
// allocates nothing per step: register runs log into fixed per-CPU arrays
// and parking only flips fields, so a speculative loop 100× longer must
// not allocate more (the loop commits without violations, whose victim
// lists are the tls unit's own allocation).
func TestSpecSchedulerZeroAlloc(t *testing.T) {
	measure := func(n int64) float64 {
		img := unevenSpec(n)
		return testing.AllocsPerRun(3, func() {
			m := NewMachine(img, newStubRuntime(), DefaultOptions())
			if err := m.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if m.t2 == nil || m.TLS.Violations != 0 || m.Parks[obs.WaitEOI] == 0 {
				t.Fatalf("engine %v, violations %d, parks %v", m.t2 != nil, m.TLS.Violations, m.Parks)
			}
			m.Release()
		})
	}
	small, big := measure(40), measure(4000)
	if big > small+3 {
		t.Fatalf("speculative steps allocate: %.0f allocs at 40 iterations vs %.0f at 4000", small, big)
	}
}
