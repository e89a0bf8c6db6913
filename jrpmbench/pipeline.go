package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"jrpm/internal/analyzer"
	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/serve"
	"jrpm/internal/tls"
	"jrpm/internal/tracer"
	"jrpm/internal/vm"
)

// layerAcc sums the per-layer work and host time the traced runs measure.
// Only the benchmark's own goroutine touches it.
type layerAcc struct {
	buildN int
	build  time.Duration
	cfgN   int
	cfg    time.Duration

	jitBC [3]int64 // bytecodes compiled per jit mode: plain, annotated, tls
	jitT  [3]time.Duration

	seqInstr              int64
	seqT                  time.Duration
	promotions, demotions int64
	profInstr             int64
	profT                 time.Duration
	profAlloc             uint64
	profRuns              int
	specInstr             int64
	specT                 time.Duration
	commits, violations   int64
	selN                  int
	sel                   time.Duration
	encBytes              int64
	encT                  time.Duration
}

// stagedResult is what a staged replay reproduces of core.Run's result.
type stagedResult struct {
	row          goldenRow
	outputsMatch bool
	instructions int64
}

// phaseOut is one simulated phase read off its machine.
type phaseOut struct {
	cycles, instr             int64
	output                    []int64
	commits, violations, ovfs int64
	stats                     tls.StateStats
	tier                      hydra.TierStats
	loops                     map[int64]*tracer.LoopStats
}

// runPhase runs one image on a fresh machine, exactly as core's pipeline
// does: the same machine options, boot order and cycle budget. Every
// machine starts with empty simulated caches.
func runPhase(bp *bytecode.Program, img *hydra.Image, opts core.Options, profile, spec bool) (phaseOut, error) {
	rt := vm.New(bp, opts.VM)
	mopts := hydra.Options{
		NCPU:     opts.NCPU,
		Handlers: opts.Handlers,
		TLS:      opts.TLS,
		Cache:    opts.Cache,
		Tracer:   opts.Tracer,
		Profile:  profile,
		Tier2Off: opts.Tier2Off,
		Ctx:      opts.Ctx,
	}
	if spec {
		mopts.Faults = opts.Faults
		mopts.Guard = opts.Guard
		mopts.StormLimit = opts.StormLimit
	}
	m := hydra.NewMachine(img, rt, mopts)
	m.Boot()
	rt.Install(m)
	maxC := opts.MaxCycles
	if maxC == 0 {
		maxC = 2_000_000_000
	}
	err := m.Run(maxC)
	out := phaseOut{
		cycles: m.Clock, instr: m.Instructions, output: m.Output,
		commits: m.TLS.Commits, violations: m.TLS.Violations, ovfs: m.TLS.Overflows,
		stats: m.TLS.Stats, tier: m.Tier,
	}
	if m.Tracer != nil {
		out.loops = m.Tracer.Loops()
	}
	m.Release()
	return out, err
}

func bytecodes(bp *bytecode.Program) int64 {
	n := 0
	for _, m := range bp.Methods {
		n += len(m.Code)
	}
	return int64(n)
}

// stagedRun replays core's pipeline stage by stage through each layer's
// public function — cfg, the three jit compiles, the seq, profile and
// speculative machines, and the analyzer — timing every call into acc and
// recording a span per stage under parent. It stops after the stage the
// rung reaches. Unlike core.Run the seq and profile legs run one after the
// other, so the replay gives up their overlap. The simulated results must
// equal the single-call pipeline's; callers check that.
func stagedRun(bp *bytecode.Program, opts core.Options, upto serve.Rung, acc *layerAcc, sp *spanLog, parent int, job int64) (stagedResult, error) {
	var out stagedResult
	timed := func(name string, f func()) time.Duration {
		s := sp.begin(name, parent, job)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		sp.end(s)
		return d
	}

	var info *cfg.ProgramInfo
	acc.cfg += timed("cfg.analyze", func() {
		if !opts.NoInline {
			bp = jit.Inline(bp)
		}
		info = cfg.AnalyzeProgram(bp)
	})
	acc.cfgN++
	nbc := bytecodes(bp)

	compile := func(name string, mode jit.Mode, sel *jit.Selection) (img *hydra.Image, err error) {
		acc.jitT[mode] += timed(name, func() { img, _, err = jit.Compile(bp, info, mode, sel) })
		acc.jitBC[mode] += nbc
		return img, err
	}
	plainImg, err := compile("jit.plain", jit.ModePlain, nil)
	if err != nil {
		return out, fmt.Errorf("plain compile: %w", err)
	}
	var seq phaseOut
	acc.seqT += timed("hydra.seq", func() { seq, err = runPhase(bp, plainImg, opts, false, false) })
	if err != nil {
		return out, fmt.Errorf("sequential run: %w", err)
	}
	acc.seqInstr += seq.instr
	acc.promotions += seq.tier.Promotions
	for _, d := range seq.tier.Demote {
		acc.demotions += d
	}
	out.row.Seq, out.instructions, out.outputsMatch = seq.cycles, seq.instr, true
	if upto == serve.RungSeq {
		return out, nil
	}

	annImg, err := compile("jit.annotated", jit.ModeAnnotated, nil)
	if err != nil {
		return out, fmt.Errorf("annotated compile: %w", err)
	}
	var prof phaseOut
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	acc.profT += timed("tracer.profile", func() { prof, err = runPhase(bp, annImg, opts, true, false) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return out, fmt.Errorf("profiling run: %w", err)
	}
	acc.profInstr += prof.instr
	acc.profAlloc += ms1.TotalAlloc - ms0.TotalAlloc
	acc.profRuns++
	out.row.Profile = prof.cycles
	out.instructions += prof.instr
	out.outputsMatch = equal64(seq.output, prof.output)

	acfg := analyzer.DefaultConfig()
	if opts.Analyzer != nil {
		acfg = *opts.Analyzer
	} else {
		acfg.NCPU = opts.NCPU
		acfg.Handlers = opts.Handlers
		acfg.ParallelAlloc = opts.VM.ParallelAlloc
		acfg.ElideLocks = opts.VM.ElideLocks
	}
	var an *analyzer.Result
	acc.sel += timed("analyzer.select", func() { an = analyzer.Select(info, prof.loops, prof.cycles, acfg) })
	acc.selN++
	if upto == serve.RungProfile {
		return out, nil
	}

	tlsImg, err := compile("jit.tls", jit.ModeTLS, an.Selection)
	if errors.Is(err, jit.ErrLowering) {
		tlsImg = plainImg // core's documented fallback
	} else if err != nil {
		return out, fmt.Errorf("TLS recompile: %w", err)
	}
	var spec phaseOut
	acc.specT += timed("tls.spec", func() { spec, err = runPhase(bp, tlsImg, opts, false, true) })
	if err != nil {
		return out, fmt.Errorf("TLS run: %w", err)
	}
	acc.specInstr += spec.instr
	acc.commits += spec.commits
	acc.violations += spec.violations
	out.row.TLS, out.row.Commits, out.row.Violations = spec.cycles, spec.commits, spec.violations
	out.row.Overflows, out.row.Stats = spec.ovfs, spec.stats
	out.instructions += spec.instr
	out.outputsMatch = out.outputsMatch && equal64(seq.output, spec.output)
	return out, nil
}

func equal64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkStaged compares a staged replay with the single-call pipeline's
// result for the same program and options.
func checkStaged(name string, st stagedResult, res *core.Result) error {
	if !st.outputsMatch {
		return fmt.Errorf("%s: staged replay outputs differ between legs", name)
	}
	if want := rowOf(res); st.row != want {
		return fmt.Errorf("%s: staged replay differs from core's pipeline\n got: %s\nwant: %s", name, st.row, want)
	}
	return nil
}

// metrics turns the accumulated layer work into the per-layer metrics
// every workload reports from its traced run.
func (a *layerAcc) metrics(m map[string]float64) {
	per := func(d time.Duration, n int64) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	m["frontend.build_us"] = ratio(us(a.build), float64(a.buildN))
	m["cfg.analyze_us"] = ratio(us(a.cfg), float64(a.cfgN))
	m["jit.plain_ns_per_bc"] = per(a.jitT[jit.ModePlain], a.jitBC[jit.ModePlain])
	m["jit.annotated_ns_per_bc"] = per(a.jitT[jit.ModeAnnotated], a.jitBC[jit.ModeAnnotated])
	m["jit.tls_ns_per_bc"] = per(a.jitT[jit.ModeTLS], a.jitBC[jit.ModeTLS])
	m["hydra.seq_ns_per_instr"] = per(a.seqT, a.seqInstr)
	m["hydra.tier2_demotions_per_promotion"] = ratio(float64(a.demotions), float64(a.promotions))
	m["tracer.profile_ns_per_instr"] = per(a.profT, a.profInstr)
	m["tracer.alloc_mb_per_run"] = ratio(float64(a.profAlloc)/(1<<20), float64(a.profRuns))
	m["tls.spec_ns_per_instr"] = per(a.specT, a.specInstr)
	m["tls.commit_ratio"] = ratio(float64(a.commits), float64(a.commits+a.violations))
	m["analyzer.select_us"] = ratio(us(a.sel), float64(a.selN))
	m["codec.result_ns_per_byte"] = per(a.encT, a.encBytes)
}
