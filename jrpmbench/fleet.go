package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/fleet"
	"jrpm/internal/progen"
	"jrpm/internal/serve"
	"jrpm/internal/workloads"
)

// fleetLadder is fleet-zipf's rate schedule. Every step stays below what
// two single-worker replicas sustain on a 2-core host, so latency at fixed
// rates (not a collapse) is what a change moves. A 30 s run sends about
// 3600 requests, 36 of them beyond p99.
var fleetLadder = ladder{rates: []float64{60, 120, 180}, limit: 250 * time.Millisecond, tail: 99}

const (
	// fleetCacheBytes is below the footprint of the distinct results a run
	// produces, so the unique programs keep evicting the Zipf tail.
	fleetCacheBytes = 256 << 10
	// fleetUniqueShare of requests are unique generated programs.
	fleetUniqueShare = 0.2
	// fleetZipfS skews the popularity of the repeated requests.
	fleetZipfS = 1.1
	// fleetRankSeed fixes the popularity ranking, so every seed draws from
	// the same distribution and only the draws differ.
	fleetRankSeed = 0x5eed
)

var fleetModes = []string{"auto", "profile", "seq"}

// fleetRequests draws n request specs: Zipf-skewed over every Table 3
// workload in every mode, plus a share of unique generated programs.
func fleetRequests(seed int64, rng *rand.Rand, n int) ([]serve.JobSpec, error) {
	var items []serve.JobSpec
	for _, w := range workloads.All() {
		for _, m := range fleetModes {
			items = append(items, serve.JobSpec{Name: w.Name + "/" + m, Workload: w.Name, Mode: m})
		}
	}
	rank := rand.New(rand.NewSource(fleetRankSeed)).Perm(len(items))
	zipf := rand.NewZipf(rng, fleetZipfS, 1, uint64(len(items)-1))
	specs := make([]serve.JobSpec, n)
	for i := range specs {
		if rng.Float64() < fleetUniqueShare {
			s, err := progenSpec(seed, i)
			if err != nil {
				return nil, err
			}
			specs[i] = s
			continue
		}
		specs[i] = items[rank[zipf.Uint64()]]
	}
	return specs, nil
}

// progenSpec is request i's unique generated program, in auto mode.
func progenSpec(seed int64, i int) (serve.JobSpec, error) {
	ps := seed<<24 + int64(i)
	src, err := progen.Asm(progen.Generate(ps, progen.DefaultConfig()))
	if err != nil {
		return serve.JobSpec{}, fmt.Errorf("progen seed %d: %w", ps, err)
	}
	return serve.JobSpec{Name: fmt.Sprintf("progen-%d", ps), Source: src, Mode: "auto"}, nil
}

// runKey carries a request's Backend.Run accounting through the router.
type runKey struct{}

type runAcct struct {
	ns   atomic.Int64
	span int // parent span of the replica run
	job  int64
}

// timedBackend wraps a replica to time the router's calls into it, so the
// router's own share of Do (dispatch) can be separated from replica time.
type timedBackend struct {
	*fleet.LocalBackend
	sp *spanLog
}

func (b *timedBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	a, _ := ctx.Value(runKey{}).(*runAcct)
	s := -1
	if a != nil {
		s = b.sp.begin("serve.replica_run", a.span, a.job)
	}
	t0 := time.Now()
	wire, view, err := b.LocalBackend.Run(ctx, spec)
	if a != nil {
		a.ns.Add(int64(time.Since(t0)))
		b.sp.end(s)
	}
	return wire, view, err
}

type fleetSetup struct {
	servers []*serve.Server
	router  *fleet.Router
	scfg    serve.Config
	specs   []serve.JobSpec
	arr     []arrival
}

func (f *fleetSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, s := range f.servers {
		s.Shutdown(ctx)
	}
}

// runFleet is the fleet-zipf workload: an open loop of independent users
// calling fleet.Router.Do over two in-process replicas with one worker
// each and the result cache on. Every result is checked byte for byte
// against a direct core run with the options serve derives for the spec.
func runFleet(env *benchEnv) (*result, error) {
	if runtime.NumCPU() < 2 {
		return nil, errors.New("fleet-zipf runs two single-worker replicas and needs at least 2 CPUs")
	}
	return runOpen(env, "fleet-zipf", fleetPhase)
}

// fleetPhase sets up a fresh fleet, runs the ladder over d, checks every
// result and records the metrics into res. With acc set it also measures
// the layers from outside: key derivation and program hashing per distinct
// request, and a staged replay of every program a replica ran.
func fleetPhase(env *benchEnv, res *result, d time.Duration, acc *layerAcc, sp *spanLog) (*olResult, error) {
	fs, setupS, err := repeatSetup(func(int) (*fleetSetup, error) {
		rng := rand.New(rand.NewSource(env.seed))
		arr := fleetLadder.schedule(rng, d)
		specs, err := fleetRequests(env.seed, rng, len(arr))
		if err != nil {
			return nil, err
		}
		f := &fleetSetup{scfg: serve.Config{Workers: 1, QueueDepth: 256}, specs: specs, arr: arr}
		var backends []fleet.Backend
		for i := 0; i < 2; i++ {
			s := serve.New(f.scfg)
			s.Start()
			f.servers = append(f.servers, s)
			backends = append(backends, &timedBackend{LocalBackend: &fleet.LocalBackend{ReplicaName: fmt.Sprintf("replica-%d", i), Server: s}, sp: sp})
		}
		f.router = fleet.New(fleet.Config{CacheBytes: fleetCacheBytes, Serve: f.scfg}, backends)
		return f, nil
	}, (*fleetSetup).close)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setupS

	n := len(fs.specs)
	outs := make([]fleet.Outcome, n)
	doT := make([]time.Duration, n)
	accts := make([]runAcct, n)
	ol := openLoop(fs.arr, func(i int) error {
		a := &accts[i]
		a.job = int64(i + 1)
		a.span = sp.begin("fleet.do", -1, a.job)
		ctx := context.WithValue(context.Background(), runKey{}, a)
		t0 := time.Now()
		out, err := fs.router.Do(ctx, fs.specs[i])
		doT[i] = time.Since(t0)
		sp.end(a.span)
		outs[i] = out
		return err
	})
	failovers := fs.router.Metrics().Counter("jrpm_fleet_failovers_total").Value()
	fs.close()
	res.attempted += n
	res.logf("fleet-zipf: open loop, %d requests over %s, 2 replicas x 1 worker, cache %d KB, %.0f%% unique programs",
		n, d, fleetCacheBytes>>10, fleetUniqueShare*100)
	if err := fleetLadder.report(res, ol, d); err != nil {
		return nil, err
	}

	// Oracle: every wire against a direct run of the same spec.
	direct := map[string][]byte{}
	directRes := map[string]*core.Result{}
	var hits, coalesced, executed, degraded, shed int
	var hitT, dispatchT []float64
	var queueWait, runT []float64
	var footprint int64
	for i, spec := range fs.specs {
		if err := ol.errs[i]; err != nil {
			if errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrCircuitOpen) {
				shed++
			}
			res.fail("%s: %v", spec.Name, err)
			continue
		}
		want, ok := direct[spec.Name]
		if !ok {
			r, wire, err := directResult(fs.scfg, spec)
			if err != nil {
				res.fail("%v", err)
				continue
			}
			if acc != nil {
				t0 := time.Now()
				codec.EncodeResult(r)
				acc.encT += time.Since(t0)
				acc.encBytes += int64(len(wire))
			}
			direct[spec.Name] = wire
			directRes[spec.Name] = r
			footprint += int64(len(wire))
			want = wire
		}
		o := outs[i]
		if !bytes.Equal(o.Wire, want) {
			res.fail("%s: routed result differs from the direct run (%d vs %d bytes)", spec.Name, len(o.Wire), len(want))
			continue
		}
		switch {
		case o.CacheHit:
			hits++
			hitT = append(hitT, us(doT[i]))
		case o.Coalesced:
			coalesced++
		default:
			executed++
			dispatchT = append(dispatchT, us(doT[i]-time.Duration(accts[i].ns.Load())))
			v := o.View
			if v.Degraded {
				degraded++
			}
			if v.StartedAt != nil && v.FinishedAt != nil {
				queueWait = append(queueWait, ms(v.StartedAt.Sub(v.SubmittedAt)))
				runT = append(runT, ms(v.FinishedAt.Sub(*v.StartedAt)))
			}
		}
	}
	res.logf("cache: %d hits, %d coalesced, %d executed; distinct-result footprint %d KB vs budget %d KB",
		hits, coalesced, executed, footprint>>10, fleetCacheBytes>>10)
	res.layer["cache.hit_ratio"] = ratio(float64(hits), float64(n))
	res.layer["cache.coalesced_ratio"] = ratio(float64(coalesced), float64(n))
	res.layer["cache.hit_us"] = summarize(hitT, 0).P50
	res.layer["fleet.dispatch_us"] = summarize(dispatchT, 0).P50
	res.layer["fleet.failovers"] = float64(failovers)
	res.layer["serve.queue_wait_ms"] = summarize(queueWait, 0).P50
	res.layer["serve.run_ms"] = summarize(runT, 0).P50
	res.layer["serve.shed_ratio"] = ratio(float64(shed), float64(n))
	res.layer["serve.degraded_ratio"] = ratio(float64(degraded), float64(executed))

	if acc != nil {
		if err := fleetLayers(fs, directRes, res, acc, sp); err != nil {
			return nil, err
		}
	}
	return ol, nil
}

// fleetLayers times the key path per distinct request and replays each
// distinct program stage by stage, checking the replay against its direct
// run.
func fleetLayers(fs *fleetSetup, direct map[string]*core.Result, res *result, acc *layerAcc, sp *spanLog) error {
	seen := map[string]bool{}
	var keyT, hashT []float64
	for i, spec := range fs.specs {
		ref := direct[spec.Name]
		if seen[spec.Name] || ref == nil {
			continue
		}
		seen[spec.Name] = true
		job := int64(len(fs.specs) + i + 1)
		s := sp.begin("fleet.key", -1, job)
		t0 := time.Now()
		if _, err := fs.router.Key(spec); err != nil {
			return err
		}
		keyT = append(keyT, us(time.Since(t0)))
		sp.end(s)

		s = sp.begin("frontend.build", -1, job)
		t0 = time.Now()
		bp, _, err := serve.BuildProgram(spec)
		acc.build += time.Since(t0)
		acc.buildN++
		sp.end(s)
		if err != nil {
			return err
		}
		s = sp.begin("codec.program_hash", -1, job)
		t0 = time.Now()
		codec.ProgramHash(bp)
		hashT = append(hashT, us(time.Since(t0)))
		sp.end(s)

		first, _, _ := serve.ParseMode(spec.Mode)
		opts, err := fs.scfg.OptionsForSpec(spec, first)
		if err != nil {
			return err
		}
		root := sp.begin("pipeline.staged", -1, job)
		st, err := stagedRun(bp, opts, first, acc, sp, root, job)
		sp.end(root)
		if err != nil {
			return fmt.Errorf("%s: staged replay: %w", spec.Name, err)
		}
		if err := checkStaged(spec.Name, st, ref); err != nil {
			res.fail("%v", err)
		}
	}
	res.layer["fleet.key_us"] = summarize(keyT, 0).P50
	res.layer["codec.program_hash_us"] = summarize(hashT, 0).P50
	return nil
}
