package difftest

import (
	"errors"
	"testing"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/obs"
	"jrpm/internal/vm"
)

// specLeg replays core's pipeline up to the speculative leg (as the
// benchmark's staged replay does) and returns that leg's finished machine.
func specLeg(t *testing.T, bp *bytecode.Program, opts core.Options) *hydra.Machine {
	t.Helper()
	bp = jit.Inline(bp)
	info := cfg.AnalyzeProgram(bp)
	machine := func(img *hydra.Image, profile bool) *hydra.Machine {
		rt := vm.New(bp, opts.VM)
		m := hydra.NewMachine(img, rt, hydra.Options{
			NCPU: opts.NCPU, Handlers: opts.Handlers, TLS: opts.TLS, Cache: opts.Cache,
			Tracer: opts.Tracer, Profile: profile, Tier2Off: opts.Tier2Off,
		})
		m.Boot()
		rt.Install(m)
		if err := m.Run(2_000_000_000); err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, _, err := jit.Compile(bp, info, jit.ModePlain, nil)
	if err != nil {
		t.Fatal(err)
	}
	ann, _, err := jit.Compile(bp, info, jit.ModeAnnotated, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof := machine(ann, true)
	acfg := analyzer.DefaultConfig()
	acfg.NCPU = opts.NCPU
	acfg.Handlers = opts.Handlers
	acfg.ParallelAlloc = opts.VM.ParallelAlloc
	acfg.ElideLocks = opts.VM.ElideLocks
	an := analyzer.Select(info, prof.Tracer.Loops(), prof.Clock, acfg)
	prof.Release()
	img, _, err := jit.Compile(bp, info, jit.ModeTLS, an.Selection)
	if errors.Is(err, jit.ErrLowering) {
		img = plain
	} else if err != nil {
		t.Fatal(err)
	}
	return machine(img, false)
}

// TestParkingProgramsCoverage reports how often each head-wait state parks
// in the pinned programs of TestParkingProgramsGolden and requires the
// states they were chosen for to park at least once. (IO waits cannot
// occur in compiled code — the analyzer never selects a loop with a system
// call — and GC and switch-in waits parked in none of 3000 generated
// programs; hydra's TestParkingCoverage pins all three with hand-built
// loops.)
func TestParkingProgramsCoverage(t *testing.T) {
	var parks [8]int64
	rows := parkProgramRows(t, false)
	for _, p := range parkPrograms {
		bp, opts := p.program(t)
		m := specLeg(t, bp, opts)
		want := rows[p.name()]
		if m.Clock != want.TLS || m.Instructions != want.Instructions {
			t.Fatalf("%s: replay ran %d cycles / %d instructions, pipeline %d / %d",
				p.name(), m.Clock, m.Instructions, want.TLS, want.Instructions)
		}
		for i, n := range m.Parks {
			parks[i] += n
		}
		m.Release()
	}
	for i, n := range parks {
		t.Logf("%-10s %d", obs.WaitName(int64(i)), n)
	}
	for _, r := range []int64{obs.WaitEOI, obs.WaitShutdown, obs.WaitOverflow, obs.WaitException, obs.WaitSwitchOut} {
		if parks[r] == 0 {
			t.Errorf("no CPU parked in %s", obs.WaitName(r))
		}
	}
}
