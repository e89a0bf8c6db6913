// Package fleet scales jrpm-serve from a single node to a sharded fleet
// without touching the pipeline underneath: a consistent-hash router spreads
// submissions over N replicas, a byte-budgeted LRU memoizes results by
// content address (the pipeline is deterministic, so (program, options) is
// a perfect key), singleflight coalescing collapses identical in-flight
// jobs, per-shard circuit breakers shed traffic to dead replicas, and
// hedged retries bound tail latency when the owning shard is slow.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jrpm/internal/cache"
	"jrpm/internal/codec"
	"jrpm/internal/obs"
	"jrpm/internal/serve"
)

// Config parameterizes a Router. Zero values select the documented
// defaults.
type Config struct {
	// CacheBytes budgets the result cache (default cache.DefaultMaxBytes;
	// negative disables caching entirely).
	CacheBytes int64
	// VNodes is the virtual-node count per replica on the hash ring
	// (default DefaultVNodes).
	VNodes int
	// HedgeAfter launches a hedge attempt on the next preferred replica
	// when the current attempt has not finished within this duration —
	// deadline risk, in submissions-per-second terms. 0 disables hedging.
	HedgeAfter time.Duration
	// Breaker configures the per-shard circuit breakers (serve's
	// submission-counted schedule; defaults from serve.DefaultBreakerConfig).
	Breaker serve.BreakerConfig
	// Serve mirrors the replicas' serve.Config. The router derives each
	// submission's effective core.Options from it for the cache key, so it
	// must match what the replicas run — a drift would make the key
	// describe a different simulation than the one memoized.
	Serve serve.Config
}

// Outcome is one routed submission's result.
type Outcome struct {
	// Wire is the canonical codec encoding of the full core.Result.
	Wire []byte
	// Key is the submission's content address (program hash + options
	// digest).
	Key string
	// CacheHit reports the result came from the router cache — no replica
	// was touched.
	CacheHit bool
	// Coalesced reports this caller joined another caller's in-flight run.
	// The view and replica belong to the initiating caller and are not
	// populated here.
	Coalesced bool
	// Replica names the replica that executed the job ("" for cache hits
	// and coalesced joiners).
	Replica string
	// View is the terminal job view from the executing replica (zero for
	// cache hits and coalesced joiners).
	View serve.JobView
}

// Routing errors.
var (
	// ErrNoReplicas rejects a submission because the fleet has no candidate
	// shards at all. Open breakers alone never produce it: an all-shed
	// fleet fails open with a forced probe on the preferred shard instead.
	ErrNoReplicas = errors.New("fleet: no replica available")
)

// Router is the fleet front door. Create with New; Do routes one
// submission.
type Router struct {
	cfg      Config
	reg      *obs.Registry
	ring     *Ring
	backends []Backend
	breakers []*serve.Breaker
	shards   []shardHealth
	cache    *cache.LRU
	group    *cache.Group

	jobs, hedges, failovers, migrations, shed, forced, errs *obs.Counter
}

// shardHealth tracks per-shard dispatch liveness for /replicas and /readyz.
type shardHealth struct {
	mu           sync.Mutex
	lastDispatch time.Time
	lastResult   time.Time
	lastErr      string
}

func (h *shardHealth) noteDispatch() {
	h.mu.Lock()
	h.lastDispatch = time.Now()
	h.mu.Unlock()
}

func (h *shardHealth) noteResult(err error) {
	h.mu.Lock()
	h.lastResult = time.Now()
	if err != nil {
		h.lastErr = err.Error()
	} else {
		h.lastErr = ""
	}
	h.mu.Unlock()
}

func (h *shardHealth) snapshot() (dispatch, result time.Time, lastErr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastDispatch, h.lastResult, h.lastErr
}

// New builds a router over the given replicas. Replica order fixes shard
// indices; ring positions depend only on replica names.
func New(cfg Config, backends []Backend) *Router {
	reg := obs.NewRegistry()
	names := make([]string, len(backends))
	breakers := make([]*serve.Breaker, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
		breakers[i] = serve.NewBreaker(b.Name(), cfg.Breaker)
	}
	var lru *cache.LRU
	if cfg.CacheBytes >= 0 {
		lru = cache.NewLRU(cfg.CacheBytes, reg)
	}
	rt := &Router{
		cfg:      cfg,
		reg:      reg,
		ring:     NewRing(names, cfg.VNodes),
		backends: backends,
		breakers: breakers,
		shards:   make([]shardHealth, len(backends)),
		cache:    lru,
		group:    cache.NewGroup(reg),

		jobs:       reg.Counter("jrpm_fleet_jobs_total"),
		hedges:     reg.Counter("jrpm_fleet_hedges_total"),
		failovers:  reg.Counter("jrpm_fleet_failovers_total"),
		migrations: reg.Counter("jrpm_fleet_migrations_total"),
		shed:       reg.Counter("jrpm_fleet_breaker_shed_total"),
		forced:     reg.Counter("jrpm_fleet_forced_probes_total"),
		errs:       reg.Counter("jrpm_fleet_errors_total"),
	}
	reg.Gauge("jrpm_fleet_replicas").Set(float64(len(backends)))
	return rt
}

// Metrics exposes the router's registry (live; safe for concurrent reads).
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// Breakers snapshots the per-shard circuit breakers in shard order.
func (rt *Router) Breakers() []serve.BreakerStats {
	out := make([]serve.BreakerStats, len(rt.breakers))
	for i, b := range rt.breakers {
		out[i] = b.Stats()
	}
	return out
}

// Ring exposes the hash ring (immutable).
func (rt *Router) Ring() *Ring { return rt.ring }

// Key computes the submission's content address: the starting rung, the
// program hash and the digest of the exact core.Options a replica would run
// the spec with at that rung. The rung is part of the key because the
// profile and seq rungs run with identical options yet return different
// results. Auto-mode and pinned-tls submissions share a key deliberately —
// both start at the TLS rung with identical options, and only undegraded
// results (which are rung-identical) enter the cache.
func (rt *Router) Key(spec serve.JobSpec) (string, error) {
	key, _, err := rt.key(spec)
	return key, err
}

func (rt *Router) key(spec serve.JobSpec) (key string, cacheable bool, err error) {
	bp, _, err := serve.BuildProgram(spec)
	if err != nil {
		return "", false, err
	}
	first, _, err := serve.ParseMode(spec.Mode)
	if err != nil {
		return "", false, err
	}
	opts, err := rt.cfg.Serve.OptionsForSpec(spec, first)
	if err != nil {
		return "", false, err
	}
	// Trace jobs carry a flight-recorder ring that does not travel in the
	// wire result, so a cached answer would silently lose the trace: bypass.
	key = string(first) + ":" + codec.CacheKey(codec.ProgramHash(bp), codec.EncodeOptions(opts))
	return key, !spec.Trace, nil
}

// Do routes one submission: cache lookup, then singleflight coalescing,
// then consistent-hash dispatch with per-shard breakers, hedging and
// failover. ctx bounds this caller's wait; a coalesced run shared with
// other callers is not cancelled when one caller gives up.
func (rt *Router) Do(ctx context.Context, spec serve.JobSpec) (Outcome, error) {
	rt.jobs.Inc()
	key, cacheable, err := rt.key(spec)
	if err != nil {
		rt.errs.Inc()
		return Outcome{}, err
	}
	cacheable = cacheable && rt.cache != nil
	if cacheable {
		if wire, ok := rt.cache.Get(key); ok {
			return Outcome{Wire: wire, Key: key, CacheHit: true}, nil
		}
	} else {
		// Uncacheable jobs are also not coalesced: each caller needs its own
		// server-side job (e.g. its own trace ring).
		wire, view, replica, _, derr := rt.dispatch(ctx, spec, key)
		if derr != nil {
			rt.errs.Inc()
			return Outcome{Key: key, View: view}, derr
		}
		return Outcome{Wire: wire, Key: key, Replica: replica, View: view}, nil
	}

	// execView/execReplica are written by this call's flight function and
	// read only when this caller was the initiator and the flight finished
	// (err == nil && !shared), which the group's done-channel ordering makes
	// safe.
	var execView serve.JobView
	var execReplica string
	wire, shared, err := rt.group.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		w, view, replica, migrated, derr := rt.dispatch(fctx, spec, key)
		if derr != nil {
			return nil, derr
		}
		// Only undegraded done results are memoized: a degraded outcome is a
		// deadline artifact of this submission, not a property of
		// (program, options) — caching it would poison every future hit. A
		// migrated job must additionally have resumed its checkpoint: a
		// migrated-degraded restart is double timing-noise, never cached.
		if view.Status == serve.StatusDone && !view.Degraded && (!migrated || view.Resumed) {
			rt.cache.Put(key, w)
		}
		execView = view
		execReplica = replica
		return w, nil
	})
	if err != nil {
		rt.errs.Inc()
		return Outcome{Key: key, Coalesced: shared}, err
	}
	out := Outcome{Wire: wire, Key: key, Coalesced: shared}
	if !shared {
		out.View = execView
		out.Replica = execReplica
	}
	return out, nil
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	wire []byte
	view serve.JobView
	err  error
	idx  int
}

// dispatch runs the spec on the key's preferred shard, hedging to the next
// shard past the deadline-risk threshold and failing over on error; when
// every candidate is shed it fails open with forced probes in preference
// order rather than rejecting the submission. It returns the first
// successful attempt; losers are cancelled and their breaker outcomes
// recorded neutrally. migrated reports that some attempt was interrupted
// (e.g. a draining replica) and the job moved shards — possibly resuming
// from the interrupted replica's checkpoint.
func (rt *Router) dispatch(ctx context.Context, spec serve.JobSpec, key string) (_ []byte, _ serve.JobView, _ string, migrated bool, _ error) {
	order := rt.ring.Order(key)
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()

	resCh := make(chan attemptResult, len(order))
	inflight, next := 0, 0
	var skipped []int
	// start dispatches one attempt to shard i. The spec is passed by value:
	// a later migration rewrites the local copy's Checkpoint without racing
	// attempts already in flight.
	start := func(i int) {
		rt.reg.Counter(fmt.Sprintf("jrpm_fleet_dispatch_total{replica=%q}", rt.backends[i].Name())).Inc()
		rt.shards[i].noteDispatch()
		inflight++
		go func(i int, spec serve.JobSpec) {
			w, v, err := rt.backends[i].Run(dctx, spec)
			resCh <- attemptResult{wire: w, view: v, err: err, idx: i}
		}(i, spec)
	}
	// launch starts the next breaker-admitted candidate, remembering shed
	// shards; it reports whether an attempt actually started.
	launch := func() bool {
		for next < len(order) {
			i := order[next]
			next++
			if !rt.breakers[i].Admit() {
				rt.shed.Inc()
				skipped = append(skipped, i)
				continue
			}
			start(i)
			return true
		}
		return false
	}
	// forceLaunch fails open when every remaining candidate was shed: the
	// most-preferred shed shard gets a forced probe, breaker notwithstanding.
	// A fleet whose breakers are all open is indistinguishable from one whose
	// replicas all just recovered — brownout (one probe attempt) beats
	// blackout (rejecting the submission outright). The attempt's outcome
	// feeds the shard's breaker like any probe: success recloses the circuit.
	forceLaunch := func() bool {
		if len(skipped) == 0 {
			return false
		}
		i := skipped[0]
		skipped = skipped[1:]
		rt.forced.Inc()
		start(i)
		return true
	}
	// reap drains n straggler attempts in the background after dispatch
	// returns (dcancel interrupts them), recording each as a neutral
	// cancellation so no shard breaker wedges behind an unresolved probe.
	reap := func(n int) {
		if n <= 0 {
			return
		}
		go func() {
			for k := 0; k < n; k++ {
				r := <-resCh
				rt.breakers[r.idx].OnResult(false, true)
			}
		}()
	}

	if !launch() && !forceLaunch() {
		return nil, serve.JobView{}, "", false, fmt.Errorf("%w: %d shard(s)", ErrNoReplicas, len(order))
	}
	var hedge <-chan time.Time
	if rt.cfg.HedgeAfter > 0 {
		hedge = time.After(rt.cfg.HedgeAfter)
	}
	var lastErr error
	for inflight > 0 {
		select {
		case r := <-resCh:
			inflight--
			name := rt.backends[r.idx].Name()
			rt.shards[r.idx].noteResult(r.err)
			if r.err == nil {
				rt.breakers[r.idx].OnResult(true, false)
				reap(inflight)
				return r.wire, r.view, name, migrated, nil
			}
			if errors.Is(r.err, ErrJobFailed) {
				// The shard worked; the program failed deterministically.
				// Every replica would reproduce it, so failing over would
				// just burn capacity — and the shard stays certified.
				rt.breakers[r.idx].OnResult(true, false)
				reap(inflight)
				return nil, r.view, name, migrated, r.err
			}
			if errors.Is(r.err, ErrInterrupted) {
				// The replica drained under us (shutdown, operator cancel):
				// neutral for its breaker — nothing is wrong with the shard's
				// capacity to simulate. Carry its last checkpoint to the next
				// shard so the job continues mid-simulation instead of
				// restarting.
				rt.breakers[r.idx].OnResult(false, true)
				migrated = true
				if f, ok := rt.backends[r.idx].(CheckpointFetcher); ok && r.view.ID != 0 {
					if ckpt, cerr := f.Checkpoint(ctx, r.view.ID); cerr == nil && len(ckpt) > 0 {
						spec.Checkpoint = ckpt
					}
				}
				lastErr = fmt.Errorf("fleet: replica %s: %w", name, r.err)
				if ctx.Err() == nil && (launch() || forceLaunch()) {
					rt.migrations.Inc()
				}
				continue
			}
			rt.breakers[r.idx].OnResult(false, ctx.Err() != nil)
			lastErr = fmt.Errorf("fleet: replica %s: %w", name, r.err)
			if ctx.Err() == nil && (launch() || forceLaunch()) {
				rt.failovers.Inc()
			}
		case <-hedge:
			hedge = nil
			if launch() {
				rt.hedges.Inc()
			}
		case <-ctx.Done():
			reap(inflight)
			return nil, serve.JobView{}, "", migrated, context.Cause(ctx)
		}
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return nil, serve.JobView{}, "", migrated, lastErr
}
