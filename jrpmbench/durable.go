package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jrpm/internal/core"
	"jrpm/internal/serve"
)

// durableLadder is durable-fresh's rate schedule; every step stays below
// what two workers sustain on a 2-core host. A 30 s run sends about 1200
// requests, 24 of them beyond p98.
var durableLadder = ladder{rates: []float64{20, 40, 60}, limit: 100 * time.Millisecond, tail: 98}

type durableSetup struct {
	server *serve.Server
	cfg    serve.Config
	specs  []serve.JobSpec
	arr    []arrival
}

func (d *durableSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.server.Shutdown(ctx)
	os.RemoveAll(d.cfg.DataDir)
}

// runDurable is the durable-fresh workload: an open loop of unique
// generated programs into a crash-durable server on a fresh data directory.
// Nothing is shared between jobs, so each pays parsing, admission, journal
// fsyncs and a small-program pipeline. At the end the server shuts down
// and is reopened, replaying its journal, and every result must survive.
func runDurable(env *benchEnv) (*result, error) {
	return runOpen(env, "durable-fresh", durablePhase)
}

func durablePhase(env *benchEnv, res *result, d time.Duration, acc *layerAcc, sp *spanLog) (*olResult, error) {
	phase := 0
	if acc != nil {
		phase = 1
	}
	ds, setupS, err := repeatSetup(func(rep int) (*durableSetup, error) {
		rng := rand.New(rand.NewSource(env.seed))
		arr := durableLadder.schedule(rng, d)
		specs := make([]serve.JobSpec, len(arr))
		for i := range specs {
			s, err := progenSpec(env.seed, i)
			if err != nil {
				return nil, err
			}
			specs[i] = s
		}
		cfg := serve.Config{
			Workers:    min(2, runtime.NumCPU()),
			QueueDepth: 256,
			// Every job's result must survive the replay to be checked.
			MaxFinished: len(specs),
			DataDir:     filepath.Join(env.work, fmt.Sprintf("durable-%d-%d", phase, rep)),
		}
		s, _, err := serve.Open(cfg)
		if err != nil {
			return nil, err
		}
		s.Start()
		return &durableSetup{server: s, cfg: cfg, specs: specs, arr: arr}, nil
	}, (*durableSetup).close)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS
	defer os.RemoveAll(ds.cfg.DataDir)

	n := len(ds.specs)
	ids := make([]int64, n)
	wires := make([][]byte, n)
	views := make([]serve.JobView, n)
	submitT := make([]time.Duration, n)
	ol := openLoop(ds.arr, func(i int) error {
		job := int64(i + 1)
		root := sp.begin("job", -1, job)
		defer sp.end(root)
		s := sp.begin("serve.submit", root, job)
		t0 := time.Now()
		v, err := ds.server.Submit(ds.specs[i])
		submitT[i] = time.Since(t0)
		sp.end(s)
		if err != nil {
			return err
		}
		ids[i] = v.ID
		s = sp.begin("serve.wait", root, job)
		v, err = ds.server.Wait(context.Background(), v.ID)
		sp.end(s)
		views[i] = v
		if err != nil {
			return err
		}
		if v.Status != serve.StatusDone {
			return fmt.Errorf("job %d %s: %s", v.ID, v.Status, v.Error)
		}
		wires[i], err = ds.server.ResultBytes(v.ID)
		return err
	})
	// Shut down, measure what the jobs left on disk, then reopen: Open
	// replays the journal and restores every finished job with its bytes.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	forced := ds.server.Shutdown(ctx)
	cancel()
	diskBytes, journalBytes := dirBytes(ds.cfg.DataDir)
	early, err := doneBeforeAccepted(filepath.Join(ds.cfg.DataDir, "jobs.journal"))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	reopened, rec, err := serve.Open(ds.cfg)
	replay := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("reopening the data dir: %w", err)
	}
	reopened.Start()
	ctx, cancel = context.WithTimeout(context.Background(), time.Minute)
	reopened.Shutdown(ctx)
	cancel()

	res.attempted += n
	res.logf("durable-fresh: open loop, %d unique programs over %s, %d workers, fsync'd journal; shutdown force-cancelled %d",
		n, d, ds.cfg.Workers, forced)
	if err := durableLadder.report(res, ol, d); err != nil {
		return nil, err
	}

	var shed, degraded int
	var queueWait, runT, subT []float64
	var instr int64
	for i, spec := range ds.specs {
		if err := ol.errs[i]; err != nil {
			if errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrCircuitOpen) {
				shed++
			}
			res.fail("%s: %v", spec.Name, err)
			continue
		}
		r, want, err := directResult(ds.cfg, spec)
		if err != nil {
			res.fail("%v", err)
			continue
		}
		if !bytes.Equal(wires[i], want) {
			res.fail("%s: served result differs from the direct run", spec.Name)
			continue
		}
		if got, err := reopened.ResultBytes(ids[i]); err != nil || !bytes.Equal(got, want) {
			res.fail("%s: result lost or changed across the journal replay (%v)", spec.Name, err)
			continue
		}
		v := views[i]
		if v.Degraded {
			degraded++
		}
		queueWait = append(queueWait, ms(v.StartedAt.Sub(v.SubmittedAt)))
		runT = append(runT, ms(v.FinishedAt.Sub(*v.StartedAt)))
		subT = append(subT, us(submitT[i]))
		instr += r.Seq.Instructions + r.Profile.Instructions + r.TLS.Instructions
		if acc != nil {
			if err := durableReplay(ds, spec, r, res, acc, sp, int64(n+i+1)); err != nil {
				return nil, err
			}
		}
	}
	if rec.Completed != n {
		res.fail("journal replay restored %d finished jobs, want %d; %d jobs have their done record before their accepted record, which replay drops",
			rec.Completed, n, early)
	}
	res.e2e["sim_minstr_per_s"] = ratio(float64(instr)/1e6, ol.elapsed.Seconds())
	res.e2e["disk_kb_per_job"] = ratio(float64(diskBytes)/1024, float64(n))
	res.layer["serve.submit_us"] = summarize(subT, 0).P50
	res.layer["journal.submit_us"] = summarize(subT, 0).P50
	res.layer["serve.queue_wait_ms"] = summarize(queueWait, 0).P50
	res.layer["serve.run_ms"] = summarize(runT, 0).P50
	res.layer["serve.shed_ratio"] = ratio(float64(shed), float64(n))
	res.layer["serve.degraded_ratio"] = ratio(float64(degraded), float64(n))
	res.layer["journal.bytes_per_job"] = ratio(float64(journalBytes), float64(n))
	res.layer["journal.replay_ms"] = ms(replay)
	res.logf("journal: %d bytes on disk (%d in the journal) for %d jobs; replay restored %d jobs in %.2f ms",
		diskBytes, journalBytes, n, rec.Completed, ms(replay))
	return ol, nil
}

// durableReplay replays one job's program stage by stage and checks it
// against the direct run.
func durableReplay(ds *durableSetup, spec serve.JobSpec, ref *core.Result, res *result, acc *layerAcc, sp *spanLog, job int64) error {
	s := sp.begin("frontend.build", -1, job)
	t0 := time.Now()
	bp, _, err := serve.BuildProgram(spec)
	acc.build += time.Since(t0)
	acc.buildN++
	sp.end(s)
	if err != nil {
		return err
	}
	opts, err := ds.cfg.OptionsForSpec(spec, serve.RungTLS)
	if err != nil {
		return err
	}
	root := sp.begin("pipeline.staged", -1, job)
	st, err := stagedRun(bp, opts, serve.RungTLS, acc, sp, root, job)
	sp.end(root)
	if err != nil {
		return fmt.Errorf("%s: staged replay: %w", spec.Name, err)
	}
	if err := checkStaged(spec.Name, st, ref); err != nil {
		res.fail("%v", err)
	}
	return nil
}

// doneBeforeAccepted counts jobs whose done record precedes their accepted
// record in the journal: Submit enqueues a job before it journals the job,
// so a fast worker can finish first, and replay then drops the done record
// and runs the finished job again.
func doneBeforeAccepted(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	accepted := map[int64]bool{}
	early := 0
	for sc.Scan() {
		var rec struct {
			Event string `json:"event"`
			ID    int64  `json:"id"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		switch rec.Event {
		case "accepted":
			accepted[rec.ID] = true
		case "done":
			if !accepted[rec.ID] {
				early++
			}
		}
	}
	return early, sc.Err()
}

// dirBytes sums the sizes of the files under dir, and of its job journal.
func dirBytes(dir string) (total, journal int64) {
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
			if d.Name() == "jobs.journal" {
				journal = info.Size()
			}
		}
		return nil
	})
	return total, journal
}
