package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/serve"
)

// ckptStride is the simulated-cycle stride between checkpoint requests.
// It is small enough that the shortest Table 3 program (EmFloatPnt, 17k
// sequential cycles) still yields a checkpoint to resume.
const ckptStride = 16384

// ckptTail is ckpt-resume's tail percentile: a 30 s run completes four
// passes of 26 jobs on a 2-core host, 20 of them beyond p80.
const ckptTail = 80

// runCkpt is the closed-loop checkpoint workload: for each Table 3 program,
// in a seed-shuffled order, one caller runs the pipeline with a checkpoint
// at every safepoint of a fixed cycle stride (each one encoded, written and
// fsync'd), then decodes one seed-chosen checkpoint and resumes it. Both the
// checkpointed run and the resumed result must be byte-identical to an
// undisturbed run.
func runCkpt(env *benchEnv) (*result, error) {
	res := newResult()
	// Set-up builds every program and runs each undisturbed — the full
	// pipeline and the sequential rung — for the reference results the
	// checkpointed and resumed runs must reproduce.
	refs, setupS, err := repeatSetup(func(rep int) ([]ckptProg, error) {
		golden, err := loadGolden(env.root)
		if err != nil {
			return nil, err
		}
		var out []ckptProg
		for _, p := range table3(false) {
			t0 := time.Now()
			ref, err := core.Run(p.bp, p.opts)
			plain := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: undisturbed run: %w", p.key, err)
			}
			if err := checkGolden(golden, p.key, ref); err != nil {
				return nil, err
			}
			seq, err := core.RunSequential(p.bp, p.opts)
			if err != nil {
				return nil, fmt.Errorf("%s: undisturbed sequential run: %w", p.key, err)
			}
			out = append(out, ckptProg{program: p, ref: ref, refWire: codec.EncodeResult(ref),
				seqWire: codec.EncodeResult(seq), plain: plain})
		}
		return out, nil
	}, func([]ckptProg) {})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	dir := filepath.Join(env.work, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cr := &ckptRun{cal: env.cal, progs: refs, res: res, rng: rand.New(rand.NewSource(env.seed)), dir: dir}
	if !env.trace {
		cr.phase(env.seconds, nil, nil).report(res)
		return res, nil
	}
	base := cr.phase(env.seconds/2, nil, nil)
	base.report(res)
	acc, sp := &layerAcc{}, newSpanLog()
	traced := cr.phase(env.seconds/2, acc, sp)
	finishTrace(env, res, sp, acc, "ckpt-resume", base.byProg.p50(), traced.byProg.p50(), traced.jobs)
	return res, nil
}

// ckptProg is one program with its undisturbed reference results.
type ckptProg struct {
	program
	ref              *core.Result
	refWire, seqWire []byte
	plain            time.Duration // host time of the undisturbed run
}

type ckptRun struct {
	cal   *calibrator
	progs []ckptProg
	res   *result
	rng   *rand.Rand
	dir   string
	jobID int64
}

// ckptPhase is the measurement of one checkpoint-workload phase.
type ckptPhase struct {
	lat                []float64 // checkpointed run + decode + resume, ms
	byProg             byProgram // the same, per program
	jobs, passes       int
	ckpts              int64
	plain, capture     time.Duration // undisturbed runs; checkpointed runs
	encT, decT         time.Duration
	encBytes, decBytes int64
	resumeT            time.Duration
	resumes, fallbacks int
	stageSeq, stageTLS int
}

// phase runs whole passes over the programs until d has elapsed.
func (cr *ckptRun) phase(d time.Duration, acc *layerAcc, sp *spanLog) *ckptPhase {
	ph := &ckptPhase{byProg: byProgram{}}
	start := time.Now()
	for time.Since(start) < d {
		ph.passes++
		for _, i := range cr.rng.Perm(len(cr.progs)) {
			cr.jobID++
			cr.res.attempted++
			if err := cr.job(ph, cr.progs[i], acc, sp); err != nil {
				cr.res.fail("%s: %v", cr.progs[i].key, err)
			}
			cr.cal.maybe()
		}
	}
	return ph
}

// job runs one program through capture and resume.
func (cr *ckptRun) job(ph *ckptPhase, p ckptProg, acc *layerAcc, sp *spanLog) error {
	id := cr.jobID
	if acc != nil {
		s := sp.begin("frontend.build", -1, id)
		t0 := time.Now()
		p.w.Build()
		acc.build += time.Since(t0)
		acc.buildN++
		sp.end(s)
		root := sp.begin("pipeline.staged", -1, id)
		st, err := stagedRun(p.bp, p.opts, serve.RungTLS, acc, sp, root, id)
		sp.end(root)
		if err != nil {
			return fmt.Errorf("staged replay: %w", err)
		}
		if err := checkStaged(p.key, st, p.ref); err != nil {
			return err
		}
	}

	// Capture: a checkpoint at every safepoint of the stride, each encoded,
	// written and fsync'd before the run continues.
	root := sp.begin("ckpt.job", -1, id)
	defer sp.end(root)
	runSpan := sp.begin("core.run.checkpointed", root, id)
	var files []string
	var encT time.Duration
	var werr error
	cc := &core.CheckpointController{Stride: ckptStride}
	cc.OnCheckpoint = func(cp *core.Checkpoint, seq int64) {
		s := sp.begin("codec.ckpt_encode", runSpan, id)
		e0 := time.Now()
		wire := codec.EncodeCheckpoint(cp)
		encT += time.Since(e0)
		sp.end(s)
		ph.encBytes += int64(len(wire))
		s = sp.begin("ckpt.write_fsync", runSpan, id)
		path := filepath.Join(cr.dir, fmt.Sprintf("job%d-%d.ckpt", id, seq))
		if err := writeSync(path, wire); err != nil && werr == nil {
			werr = err
		}
		sp.end(s)
		files = append(files, path)
		cc.Request()
	}
	defer func() {
		for _, f := range files {
			os.Remove(f)
		}
	}()
	opts := p.opts
	opts.Checkpoint = cc
	cc.Request()
	t1 := time.Now()
	got, err := core.Run(p.bp, opts)
	capture := time.Since(t1)
	sp.end(runSpan)
	switch {
	case err != nil:
		return fmt.Errorf("checkpointed run: %w", err)
	case werr != nil:
		return fmt.Errorf("writing checkpoint: %w", werr)
	case len(files) == 0:
		return errors.New("no checkpoint captured")
	case !bytes.Equal(codec.EncodeResult(got), p.refWire):
		return errors.New("checkpointing perturbed the run: wire differs from the undisturbed run")
	}

	// Resume one seed-chosen checkpoint with the entry point of its stage.
	t2 := time.Now()
	pick := files[cr.rng.Intn(len(files))]
	s := sp.begin("codec.ckpt_decode", root, id)
	data, err := os.ReadFile(pick)
	if err != nil {
		return err
	}
	d0 := time.Now()
	cp, err := codec.DecodeCheckpoint(data)
	decT := time.Since(d0)
	sp.end(s)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", filepath.Base(pick), err)
	}
	resume, fresh := core.ResumeTLS, core.Run
	if cp.Stage == core.StageSeq {
		resume, fresh = core.ResumeSequential, core.RunSequential
		ph.stageSeq++
	} else {
		ph.stageTLS++
	}
	s = sp.begin("core.resume", root, id)
	r0 := time.Now()
	out, err := resume(p.bp, p.opts, cp)
	fellBack := errors.Is(err, core.ErrBadCheckpoint)
	if fellBack {
		out, err = fresh(p.bp, p.opts)
	}
	resumeT := time.Since(r0)
	sp.end(s)
	lat := capture + time.Since(t2)
	if err != nil {
		return fmt.Errorf("resume (stage %s): %w", cp.Stage, err)
	}
	want := p.refWire
	if cp.Stage == core.StageSeq {
		want = p.seqWire
	}
	e0 := time.Now()
	outWire := codec.EncodeResult(out)
	if acc != nil {
		acc.encT += time.Since(e0)
		acc.encBytes += int64(len(outWire))
	}
	if !bytes.Equal(outWire, want) {
		return fmt.Errorf("resumed result (stage %s, fallback %v) differs from the undisturbed run", cp.Stage, fellBack)
	}

	ph.lat = append(ph.lat, ms(lat))
	ph.byProg.add(p.key, ms(lat))
	ph.jobs++
	ph.plain += p.plain
	ph.capture += capture
	ph.ckpts += int64(len(files))
	ph.encT += encT
	ph.decT += decT
	ph.decBytes += int64(len(data))
	ph.resumeT += resumeT
	ph.resumes++
	if fellBack {
		ph.fallbacks++
	}
	return nil
}

// writeSync writes data to path and fsyncs it before returning.
func writeSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (ph *ckptPhase) report(res *result) {
	d := summarize(ph.lat, ckptTail)
	jobs := float64(ph.jobs)
	res.e2e["latency_p50_ms"] = ph.byProg.p50()
	res.e2e["latency_tail_ms"] = d.Tail
	res.logf("latency_ms percentiles: p90=%.4g p95=%.4g p98=%.4g p99=%.4g",
		summarize(ph.lat, 90).Tail, summarize(ph.lat, 95).Tail, summarize(ph.lat, 98).Tail, summarize(ph.lat, 99).Tail)
	res.e2e["jobs_per_s"] = ph.byProg.rate()
	res.e2e["disk_kb_per_job"] = ratio(float64(ph.encBytes)/1024, jobs)
	res.layer["ckpt.per_run"] = ratio(float64(ph.ckpts), jobs)
	res.layer["ckpt.kb"] = ratio(float64(ph.encBytes)/1024, float64(ph.ckpts))
	res.layer["ckpt.capture_ms"] = ratio(ms(ph.capture-ph.plain), float64(ph.ckpts))
	res.layer["ckpt.resume_ms"] = ratio(ms(ph.resumeT), float64(ph.resumes))
	res.layer["ckpt.fallback_ratio"] = ratio(float64(ph.fallbacks), float64(ph.resumes))
	res.layer["codec.ckpt_encode_ns_per_byte"] = ratio(float64(ph.encT.Nanoseconds()), float64(ph.encBytes))
	res.layer["codec.ckpt_decode_ns_per_byte"] = ratio(float64(ph.decT.Nanoseconds()), float64(ph.decBytes))
	res.logf("ckpt-resume: closed loop, 1 caller, %d passes, %d jobs, stride %d cycles, %d checkpoints written",
		ph.passes, ph.jobs, ckptStride, ph.ckpts)
	res.logf("latency_ms (checkpointed run + decode + resume) %s; median of per-program medians %.4g", d, ph.byProg.p50())
	res.logf("resumes: %d from seq-stage, %d from tls-stage checkpoints; %d fell back to a fresh run on ErrBadCheckpoint",
		ph.stageSeq, ph.stageTLS, ph.fallbacks)
}
