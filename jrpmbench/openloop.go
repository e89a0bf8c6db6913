package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ladder is an open-loop workload's fixed rate schedule: the run offers
// each rate in turn for an equal share of the measured time, with Poisson
// arrivals, and a rate is met when its requests' tail latency stays within
// limit and its backlog does not grow.
type ladder struct {
	rates []float64 // requests per second, ascending
	limit time.Duration
	tail  float64 // tail percentile of the whole run (see tailPercentile)
}

// arrival is one request's due time and the ladder step it belongs to.
type arrival struct {
	due  time.Duration
	step int
}

// schedule draws the arrivals of the whole ladder over total from rng.
func (l ladder) schedule(rng *rand.Rand, total time.Duration) []arrival {
	var out []arrival
	stepDur := total / time.Duration(len(l.rates))
	for k, rate := range l.rates {
		t := float64(stepDur) * float64(k)
		end := float64(stepDur) * float64(k+1)
		for {
			t += rng.ExpFloat64() / rate * float64(time.Second)
			if t >= end {
				break
			}
			out = append(out, arrival{due: time.Duration(t), step: k})
		}
	}
	return out
}

// olResult is one open-loop run: latency from each request's due time,
// completion times, and how late the generator itself sent each request.
type olResult struct {
	arr      []arrival
	lat      []float64 // ms, from due time to completion
	done     []time.Duration
	errs     []error
	lateness []float64 // ms, send time minus due time
	backlog  int64     // requests outstanding when the last one was sent
	elapsed  time.Duration
}

// openLoop sends request i at its due time on its own goroutine — however
// many are still outstanding, as independent users would — and waits for
// every request to finish.
func openLoop(arr []arrival, do func(i int) error) *olResult {
	n := len(arr)
	r := &olResult{arr: arr, lat: make([]float64, n), done: make([]time.Duration, n),
		errs: make([]error, n), lateness: make([]float64, n)}
	var completed atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range arr {
		if wait := a.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		r.lateness[i] = ms(time.Since(t0) - a.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.errs[i] = do(i)
			r.done[i] = time.Since(t0)
			r.lat[i] = ms(r.done[i] - a.due)
			completed.Add(1)
		}()
	}
	r.backlog = int64(n) - completed.Load()
	wg.Wait()
	r.elapsed = time.Since(t0)
	return r
}

// report records the open-loop end-to-end metrics and the per-step
// latencies; it fails when the generator, not the system, fell behind.
func (l ladder) report(res *result, r *olResult, total time.Duration) error {
	var ok []float64
	good := 0
	for i := range r.arr {
		if r.errs[i] == nil {
			ok = append(ok, r.lat[i])
			good++
		}
	}
	d := summarize(ok, l.tail)
	res.e2e["latency_p50_ms"] = d.P50
	res.e2e["latency_tail_ms"] = d.Tail
	res.e2e["jobs_per_s"] = ratio(float64(good), r.elapsed.Seconds())
	res.logf("latency_ms (from due time, all steps) %s", d)

	stepDur := total / time.Duration(len(l.rates))
	maxOK := 0.0
	for k, rate := range l.rates {
		var lat []float64
		outstanding, failed := 0, 0
		end := stepDur * time.Duration(k+1)
		for i, a := range r.arr {
			if a.step != k {
				continue
			}
			if r.errs[i] != nil {
				failed++ // a failed request misses the limit
				lat = append(lat, ms(l.limit)+1)
			} else {
				lat = append(lat, r.lat[i])
			}
			if r.done[i] > end {
				outstanding++
			}
		}
		sd := summarize(lat, 0)
		met := failed == 0 && sd.N > 0 && sd.Tail <= ms(l.limit) &&
			float64(outstanding) <= rate*l.limit.Seconds()+1
		if met {
			maxOK = rate
		}
		res.logf("step %d: offered %g/s, latency_ms %s, outstanding at step end %d, failed %d, meets %s limit: %v",
			k, rate, sd, outstanding, failed, l.limit, met)
	}
	res.e2e["max_ok_rate_per_s"] = maxOK
	late := summarize(r.lateness, 99)
	p99 := late.Tail
	res.logf("generator: lateness p99 %.3f ms over %d sends; backlog when the last request was sent: %d", p99, late.N, r.backlog)
	if lim := ms(l.limit) / 4; p99 > lim {
		return fmt.Errorf("run invalid: the load generator ran %.1f ms late at p99 (allowed %.1f ms), so the offered schedule was not met", p99, lim)
	}
	return nil
}

// openPhase is one measured phase of an open-loop workload.
type openPhase func(env *benchEnv, res *result, d time.Duration, acc *layerAcc, sp *spanLog) (*olResult, error)

// runOpen runs an open-loop workload: one phase over the whole time, or in
// a traced run an untraced reference phase and a traced phase of half the
// time each, on fresh set-ups.
func runOpen(env *benchEnv, name string, phase openPhase) (*result, error) {
	res := newResult()
	res.openLoop = true
	if !env.trace {
		_, err := phase(env, res, env.seconds, nil, nil)
		return res, err
	}
	base, err := phase(env, res, env.seconds/2, nil, nil)
	if err != nil {
		return nil, err
	}
	acc, sp, tres := &layerAcc{}, newSpanLog(), newResult()
	traced, err := phase(env, tres, env.seconds/2, acc, sp)
	if err != nil {
		return nil, err
	}
	res.attempted += tres.attempted
	res.failed += tres.failed
	res.lines = append(res.lines, tres.lines...)
	for k, v := range tres.layer {
		res.layer[k] = v
	}
	finishTrace(env, res, sp, acc, name, summarize(base.lat, 50).P50, summarize(traced.lat, 50).P50, len(traced.lat))
	return res, nil
}
