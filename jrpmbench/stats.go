package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile, so a tail is never read off a handful of points.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 60, 50}

// beyond counts the samples of n that lie above the p-th percentile rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(float64(n)*p/100-1e-9))
}

// tailPercentile is the highest ladder percentile with at least minBeyond
// of n samples beyond it (the median when none has). Each workload fixes
// its tail percentile as tailPercentile of its nominal sample count, so the
// percentile does not shift when a faster program completes more jobs in
// the same time.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// quantile returns the q-th quantile (0..1) of sorted samples, linearly
// interpolated between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist summarizes a sample of timings: the median and the tail at a fixed
// percentile, with the sample count.
type dist struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

// summarize computes a dist with its tail at percentile tailPct; tailPct 0
// picks tailPercentile(len(samples)).
func summarize(samples []float64, tailPct float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if tailPct == 0 {
		tailPct = tailPercentile(len(s))
	}
	d := dist{N: len(s), TailPct: tailPct}
	if len(s) == 0 {
		return d
	}
	d.P50 = quantile(s, 0.5)
	d.Tail = quantile(s, tailPct/100)
	return d
}

// byProgram holds a closed-loop workload's job times (ms) per program.
// Every pass runs each program once, so the sample median of all jobs
// falls between the two programs that straddle the middle and jumps
// between them with noise, and one pass slowed by a burst of host
// contention moves every program at once. Summaries over each program's
// own median avoid both.
type byProgram map[string][]float64

func (b byProgram) add(key string, ms float64) { b[key] = append(b[key], ms) }

func (b byProgram) medians() []float64 {
	var meds []float64
	for _, xs := range b {
		meds = append(meds, summarize(xs, 50).P50)
	}
	return meds
}

// p50 is the median over programs of each program's median job time.
func (b byProgram) p50() float64 { return summarize(b.medians(), 50).P50 }

// rate is the jobs per second of a pass in which every program takes its
// median time.
func (b byProgram) rate() float64 {
	total := 0.0
	for _, m := range b.medians() {
		total += m
	}
	return ratio(float64(len(b)), total/1000)
}

func (d dist) String() string {
	note := ""
	if b := beyond(d.N, d.TailPct); b < minBeyond {
		note = ", too few samples for this tail"
	}
	return fmt.Sprintf("p50=%.4g p%g=%.4g (n=%d, %d beyond%s)", d.P50, d.TailPct, d.Tail, d.N, beyond(d.N, d.TailPct), note)
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetricName validates a metric's name and unit against the grammar
// the result line promises its readers.
func checkMetricName(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q: want a letter or digit then up to 63 of [A-Za-z0-9_.-]", name)
	}
	if !unitName.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", name, unit)
	}
	return nil
}

// geomean is the geometric mean of positive values (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
