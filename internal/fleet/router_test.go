package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jrpm/internal/progen"
	"jrpm/internal/serve"
)

// stubBackend is a scriptable replica: fixed response bytes, optional
// latency, and a kill switch. The response encodes the replica name so
// tests can tell which shard served a request.
type stubBackend struct {
	name     string
	calls    atomic.Int64
	delay    time.Duration
	down     atomic.Bool
	degraded bool
	jobFail  bool
}

func (s *stubBackend) Name() string { return s.name }

func (s *stubBackend) Run(ctx context.Context, spec serve.JobSpec) ([]byte, serve.JobView, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, serve.JobView{}, ctx.Err()
		}
	}
	if s.down.Load() {
		return nil, serve.JobView{}, errors.New("stub: connection refused")
	}
	if s.jobFail {
		return nil, serve.JobView{Status: serve.StatusFailed},
			fmt.Errorf("%w: status failed: divide by zero", ErrJobFailed)
	}
	view := serve.JobView{Status: serve.StatusDone, Name: spec.Name, Degraded: s.degraded}
	return []byte("result:" + s.name + ":" + spec.Name), view, nil
}

// testSpec builds a valid routed submission from a progen program.
func testSpec(t testing.TB, seed int64) serve.JobSpec {
	t.Helper()
	src, err := progen.Asm(progen.Generate(seed, progen.QuickConfig()))
	if err != nil {
		t.Fatalf("seed %d: asm: %v", seed, err)
	}
	return serve.JobSpec{Name: fmt.Sprintf("prog-%d", seed), Source: src, Mode: "tls"}
}

// newTestRouter wires n stub replicas into a router and returns both.
func newTestRouter(t testing.TB, n int, cfg Config) (*Router, []*stubBackend) {
	t.Helper()
	stubs := make([]*stubBackend, n)
	backends := make([]Backend, n)
	for i := range stubs {
		stubs[i] = &stubBackend{name: fmt.Sprintf("replica-%d", i)}
		backends[i] = stubs[i]
	}
	return New(cfg, backends), stubs
}

// shardOrder resolves the spec's shard preference as stub indices.
func shardOrder(t testing.TB, rt *Router, spec serve.JobSpec) []int {
	t.Helper()
	key, err := rt.Key(spec)
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	return rt.Ring().Order(key)
}

func TestRouterCacheHit(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 1)

	first, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Replica == "" {
		t.Fatalf("first call: %+v, want a dispatched miss", first)
	}
	second, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("second call missed the cache: %+v", second)
	}
	if !bytes.Equal(first.Wire, second.Wire) {
		t.Fatal("cache hit returned different bytes")
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 1 {
		t.Fatalf("replicas saw %d calls, want 1", total)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_cache_hits_total").Value(); v != 1 {
		t.Fatalf("hit metric = %d, want 1", v)
	}
}

// TestRouterCacheKeyIncludesRung: the profile and seq rungs run with the
// same core.Options but return different results, so a cached seq result
// must not answer a profile request for the same program (or the reverse).
func TestRouterCacheKeyIncludesRung(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	seq := testSpec(t, 4)
	seq.Mode = "seq"
	profile := seq
	profile.Mode = "profile"

	if _, err := rt.Do(context.Background(), seq); err != nil {
		t.Fatal(err)
	}
	out, err := rt.Do(context.Background(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("profile request answered with the cached seq result")
	}
	again, err := rt.Do(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("repeated seq request missed the cache")
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 2 {
		t.Fatalf("replicas saw %d calls, want 2 (one per rung)", total)
	}
	kSeq, _ := rt.Key(seq)
	kProf, _ := rt.Key(profile)
	if kSeq == kProf {
		t.Fatalf("seq and profile requests share cache key %q", kSeq)
	}
}

func TestRouterDegradedResultNotCached(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	for _, s := range stubs {
		s.degraded = true
	}
	spec := testSpec(t, 2)
	for i := 0; i < 2; i++ {
		out, err := rt.Do(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Fatalf("call %d: degraded result served from cache", i)
		}
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 2 {
		t.Fatalf("replicas saw %d calls, want 2 (degraded results must not be memoized)", total)
	}
}

func TestRouterTraceBypassesCache(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 3)
	spec.Trace = true
	for i := 0; i < 2; i++ {
		if out, err := rt.Do(context.Background(), spec); err != nil {
			t.Fatal(err)
		} else if out.CacheHit || out.Coalesced {
			t.Fatalf("call %d: trace job was cached/coalesced: %+v", i, out)
		}
	}
	if total := stubs[0].calls.Load() + stubs[1].calls.Load(); total != 2 {
		t.Fatalf("replicas saw %d calls, want 2", total)
	}
}

func TestRouterHedgeFiresOnlyPastThreshold(t *testing.T) {
	spec := testSpec(t, 4)

	// Owner slower than the hedge threshold: the hedge fires and the next
	// shard's answer wins.
	rt, stubs := newTestRouter(t, 2, Config{HedgeAfter: 20 * time.Millisecond})
	order := shardOrder(t, rt, spec)
	stubs[order[0]].delay = 300 * time.Millisecond
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Replica != stubs[order[1]].name {
		t.Fatalf("winner %q, want the hedge target %q", out.Replica, stubs[order[1]].name)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_hedges_total").Value(); v != 1 {
		t.Fatalf("hedges = %d, want 1", v)
	}

	// Owner faster than the threshold: no hedge, the owner serves.
	rt2, stubs2 := newTestRouter(t, 2, Config{HedgeAfter: 500 * time.Millisecond})
	order2 := shardOrder(t, rt2, spec)
	stubs2[order2[0]].delay = 10 * time.Millisecond
	out2, err := rt2.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Replica != stubs2[order2[0]].name {
		t.Fatalf("winner %q, want the owner %q", out2.Replica, stubs2[order2[0]].name)
	}
	if v := rt2.Metrics().Counter("jrpm_fleet_hedges_total").Value(); v != 0 {
		t.Fatalf("hedges = %d below threshold, want 0", v)
	}
	if c := stubs2[order2[1]].calls.Load(); c != 0 {
		t.Fatalf("hedge target called %d times below threshold", c)
	}

	// Hedging disabled entirely: a slow owner still serves alone.
	rt3, stubs3 := newTestRouter(t, 2, Config{})
	order3 := shardOrder(t, rt3, spec)
	stubs3[order3[0]].delay = 30 * time.Millisecond
	if _, err := rt3.Do(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if c := stubs3[order3[1]].calls.Load(); c != 0 {
		t.Fatalf("hedge fired with hedging disabled (%d calls)", c)
	}
}

func TestRouterFailoverWithoutCachePoisoning(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 5)
	order := shardOrder(t, rt, spec)
	owner, backup := stubs[order[0]], stubs[order[1]]

	owner.down.Store(true)
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatalf("failover dispatch failed: %v", err)
	}
	if out.Replica != backup.name {
		t.Fatalf("served by %q, want failover to %q", out.Replica, backup.name)
	}
	if v := rt.Metrics().Counter("jrpm_fleet_failovers_total").Value(); v != 1 {
		t.Fatalf("failovers = %d, want 1", v)
	}

	// The owner revives. The cached entry must be the backup's good result,
	// served as a hit — not a stale record of the failure, and not a
	// re-dispatch to the flaky owner.
	owner.down.Store(false)
	again, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !bytes.Equal(again.Wire, out.Wire) {
		t.Fatalf("post-revival call: hit=%v, bytes equal=%v", again.CacheHit, bytes.Equal(again.Wire, out.Wire))
	}

	// Shard health was recorded on the right breakers.
	bs := rt.Breakers()
	if bs[order[0]].Failures != 1 {
		t.Fatalf("owner breaker failures = %d, want 1", bs[order[0]].Failures)
	}
	if bs[order[1]].Successes != 1 || bs[order[1]].Failures != 0 {
		t.Fatalf("backup breaker %+v, want one clean success", bs[order[1]])
	}
}

func TestRouterBreakersIndependentPerShard(t *testing.T) {
	// Trip after one failure; long backoff so the circuit stays open for
	// the whole test. Caching off so every Do dispatches.
	rt, stubs := newTestRouter(t, 2, Config{
		CacheBytes: -1,
		Breaker:    serve.BreakerConfig{Trip: 1, Backoff: 100, MaxBackoff: 100},
	})
	spec := testSpec(t, 6)
	order := shardOrder(t, rt, spec)
	owner, backup := stubs[order[0]], stubs[order[1]]

	owner.down.Store(true)
	if _, err := rt.Do(context.Background(), spec); err != nil {
		t.Fatalf("first dispatch should fail over: %v", err)
	}
	bs := rt.Breakers()
	if !bs[order[0]].Open {
		t.Fatal("owner breaker did not open after its trip threshold")
	}
	if bs[order[1]].Open {
		t.Fatal("backup breaker opened although the backup is healthy")
	}

	// With the owner's circuit open, its shard is shed without a dispatch
	// attempt: the owner sees no further traffic even though it is the
	// ring owner for this key.
	ownerCalls := owner.calls.Load()
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Replica != backup.name {
		t.Fatalf("served by %q while owner circuit open, want %q", out.Replica, backup.name)
	}
	if owner.calls.Load() != ownerCalls {
		t.Fatal("open circuit still dispatched to the owner")
	}
	if v := rt.Metrics().Counter("jrpm_fleet_breaker_shed_total").Value(); v == 0 {
		t.Fatal("no shed recorded for the open shard")
	}
}

func TestRouterDeterministicJobFailureDoesNotFailOver(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 7)
	order := shardOrder(t, rt, spec)
	stubs[order[0]].jobFail = true

	_, err := rt.Do(context.Background(), spec)
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("got %v, want ErrJobFailed", err)
	}
	if c := stubs[order[1]].calls.Load(); c != 0 {
		t.Fatalf("deterministic program failure failed over (%d calls to backup)", c)
	}
	// The shard did its work; its breaker must not count the program's
	// deterministic failure against the replica.
	if bs := rt.Breakers(); bs[order[0]].Failures != 0 || bs[order[0]].Open {
		t.Fatalf("breaker charged the shard for a program failure: %+v", bs[order[0]])
	}
	if v := rt.Metrics().Counter("jrpm_fleet_failovers_total").Value(); v != 0 {
		t.Fatalf("failovers = %d, want 0", v)
	}
}

func TestRouterAllShardsShedFailsOpen(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{
		CacheBytes: -1,
		Breaker:    serve.BreakerConfig{Trip: 1, Backoff: 100, MaxBackoff: 100},
	})
	spec := testSpec(t, 8)
	for _, s := range stubs {
		s.down.Store(true)
	}
	// First call fails on every shard and opens both breakers.
	if _, err := rt.Do(context.Background(), spec); err == nil {
		t.Fatal("dispatch with every replica down succeeded")
	}
	// Every circuit is open, but the fleet fails open instead of rejecting:
	// forced probes reach the (still-down) replicas and the replica error —
	// not ErrNoReplicas — comes back.
	calls := stubs[0].calls.Load() + stubs[1].calls.Load()
	_, err := rt.Do(context.Background(), spec)
	if err == nil || errors.Is(err, ErrNoReplicas) {
		t.Fatalf("got %v, want the probed replica's own error", err)
	}
	if n := stubs[0].calls.Load() + stubs[1].calls.Load(); n <= calls {
		t.Fatal("all-shed dispatch never probed a replica")
	}
	if v := rt.Metrics().Counter("jrpm_fleet_forced_probes_total").Value(); v == 0 {
		t.Fatal("no forced probe recorded for the all-shed dispatch")
	}

	// Revive the replicas: the very next submission's forced probe must
	// succeed and reclose the probed shard's circuit — recovery costs one
	// request, not a backoff schedule.
	for _, s := range stubs {
		s.down.Store(false)
	}
	out, err := rt.Do(context.Background(), spec)
	if err != nil {
		t.Fatalf("forced probe after revival failed: %v", err)
	}
	if out.Replica == "" {
		t.Fatal("revived dispatch served from nowhere")
	}
	order := shardOrder(t, rt, spec)
	if bs := rt.Breakers(); bs[order[0]].Open {
		t.Fatalf("successful forced probe left the preferred breaker open: %+v", bs[order[0]])
	}
}

func TestRouterCallerTimeout(t *testing.T) {
	rt, stubs := newTestRouter(t, 2, Config{})
	spec := testSpec(t, 9)
	for _, s := range stubs {
		s.delay = 200 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := rt.Do(ctx, spec); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context deadline", err)
	}
}
