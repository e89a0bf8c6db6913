package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/serve"
)

// suiteTail is the suite's tail percentile. A 30 s run completes about
// 2300 jobs on a 2-core host, 46 of them beyond p98; p98 keeps ten beyond
// down to 550 jobs. p99 falls in the top third of the slowest program's
// runs and moved with single bursts of host contention (ten-seed spread
// 22%, against 14% for p98).
const suiteTail = 98

// runSuite is the closed-loop suite workload: one caller runs every Table 3
// program and every Table 4 variant through core.Run, pass after pass, each
// pass in a seed-shuffled order, and checks each result against its golden
// row. Passes are whole, so every run measures the same program mix.
func runSuite(env *benchEnv) (*result, error) {
	res := newResult()
	type suiteSetup struct {
		golden map[string]goldenRow
		progs  []program
	}
	// Set-up loads the golden rows, builds every program and runs each
	// once, checked, so lazy pools are filled before the clock starts.
	st, setupS, err := repeatSetup(func(int) (suiteSetup, error) {
		golden, err := loadGolden(env.root)
		if err != nil {
			return suiteSetup{}, err
		}
		progs := table3(true)
		for _, p := range progs {
			r, err := core.Run(p.bp, p.opts)
			if err != nil {
				return suiteSetup{}, fmt.Errorf("%s: %w", p.key, err)
			}
			if err := checkGolden(golden, p.key, r); err != nil {
				return suiteSetup{}, err
			}
		}
		return suiteSetup{golden, progs}, nil
	}, func(suiteSetup) {})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	progs := st.progs
	rng := rand.New(rand.NewSource(env.seed))
	sr := &suiteRun{env: env, progs: progs, golden: st.golden, rng: rng, res: res}

	if !env.trace {
		ph := sr.phase(env.seconds, nil, nil)
		ph.report(res, progs)
		return res, nil
	}
	// Traced run: half the time untraced as the overhead reference, half
	// replaying the pipeline stage by stage under spans.
	acc, sp := &layerAcc{}, newSpanLog()
	base := sr.phase(env.seconds/2, acc, nil)
	base.report(res, progs)
	for _, p := range progs {
		s := sp.begin("frontend.build", -1, 0)
		t0 := time.Now()
		if p.key == p.w.Name {
			p.w.Build()
		} else {
			p.w.BuildTransformed()
		}
		acc.build += time.Since(t0)
		acc.buildN++
		sp.end(s)
	}
	traced := sr.phase(env.seconds/2, acc, sp)
	finishTrace(env, res, sp, acc, "suite", base.byProg.p50(), traced.byProg.p50(), traced.jobs)
	return res, nil
}

type suiteRun struct {
	env    *benchEnv
	progs  []program
	golden map[string]goldenRow
	rng    *rand.Rand
	res    *result
	jobID  int64
}

// suitePhase is the measurement of one suite phase.
type suitePhase struct {
	lat     []float64 // per-job latency, ms
	byProg  byProgram // the same, per program
	busy    time.Duration
	instr   int64
	jobs    int
	passes  int
	speedup map[string]float64 // simulated speedup per golden key
}

// phase runs whole passes until d has elapsed. With sp nil each job is one
// core.Run call (when acc is set the results' codec cost is measured
// outside the job's time); with sp set each job is a staged replay.
func (sr *suiteRun) phase(d time.Duration, acc *layerAcc, sp *spanLog) *suitePhase {
	ph := &suitePhase{speedup: map[string]float64{}, byProg: byProgram{}}
	start := time.Now()
	for time.Since(start) < d {
		ph.passes++
		for _, i := range sr.rng.Perm(len(sr.progs)) {
			p := sr.progs[i]
			sr.jobID++
			sr.res.attempted++
			t0 := time.Now()
			var instr int64
			if sp != nil {
				root := sp.begin("pipeline.staged", -1, sr.jobID)
				st, err := stagedRun(p.bp, p.opts, serve.RungTLS, acc, sp, root, sr.jobID)
				sp.end(root)
				lat := time.Since(t0)
				if err != nil {
					sr.res.fail("%s: staged replay: %v", p.key, err)
					continue
				}
				if want := sr.golden[p.key]; !st.outputsMatch || st.row != want {
					sr.res.fail("%s: staged replay differs from golden\n got: %s\nwant: %s", p.key, st.row, want)
					continue
				}
				ph.add(p.key, lat, st.instructions)
				sr.env.cal.maybe()
				continue
			}
			r, err := core.Run(p.bp, p.opts)
			lat := time.Since(t0)
			if err != nil {
				sr.res.fail("%s: %v", p.key, err)
				continue
			}
			if err := checkGolden(sr.golden, p.key, r); err != nil {
				sr.res.fail("%v", err)
				continue
			}
			instr = r.Seq.Instructions + r.Profile.Instructions + r.TLS.Instructions
			ph.add(p.key, lat, instr)
			ph.speedup[p.key] = r.SpeedupActual()
			if acc != nil {
				t1 := time.Now()
				wire := codec.EncodeResult(r)
				acc.encT += time.Since(t1)
				acc.encBytes += int64(len(wire))
			}
			sr.env.cal.maybe()
		}
	}
	return ph
}

func (ph *suitePhase) add(key string, lat time.Duration, instr int64) {
	ph.lat = append(ph.lat, ms(lat))
	ph.byProg.add(key, ms(lat))
	ph.busy += lat
	ph.instr += instr
	ph.jobs++
}

// report records the suite's end-to-end metrics.
func (ph *suitePhase) report(res *result, progs []program) {
	d := summarize(ph.lat, suiteTail)
	res.e2e["latency_p50_ms"] = ph.byProg.p50()
	res.e2e["latency_tail_ms"] = d.Tail
	res.logf("latency_ms percentiles: p90=%.4g p95=%.4g p98=%.4g p99=%.4g",
		summarize(ph.lat, 90).Tail, summarize(ph.lat, 95).Tail, summarize(ph.lat, 98).Tail, summarize(ph.lat, 99).Tail)
	res.e2e["jobs_per_s"] = ph.byProg.rate()
	res.e2e["sim_minstr_per_s"] = ratio(float64(ph.instr)/1e6, ph.busy.Seconds())
	// Simulated speedups are deterministic; the paper comparison uses the
	// Table 3 programs (not the Table 4 variants) whose figure reading
	// exists.
	var sp []float64
	errSum, errN := 0.0, 0
	for _, p := range progs {
		s, ok := ph.speedup[p.key]
		if !ok || p.key != p.w.Name {
			continue
		}
		sp = append(sp, s)
		if ref := p.w.Paper.Speedup; ref > 0 {
			errSum += math.Abs(s-ref) / ref * 100
			errN++
		}
	}
	res.e2e["sim_speedup_geomean"] = geomean(sp)
	res.e2e["paper_speedup_err_pct"] = ratio(errSum, float64(errN))
	res.logf("suite: closed loop, 1 caller, %d passes of %d programs, %d jobs", ph.passes, len(progs), ph.jobs)
	res.logf("latency_ms %s; median of per-program medians %.4g", d, ph.byProg.p50())
	res.logf("sim: %d programs, speedup geomean %.4f on 4 simulated CPUs, mean |error| vs paper Figure 8 %.2f%% over %d readings",
		len(sp), geomean(sp), ratio(errSum, float64(errN)), errN)
}
