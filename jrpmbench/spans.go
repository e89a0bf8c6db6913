package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the index of the enclosing span (-1 for
// a root); Job ties the spans of one job together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int64  `json:"job"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is the
// untraced mode: every method is a no-op, so the measured code paths are
// the same in both modes apart from the recording itself.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index (-1 when untraced).
func (l *spanLog) begin(name string, parent int, job int64) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(l.spans) - 1
}

// end closes span i.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[i].End = now
	l.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns, per span name, the count, total duration and self
// time: each span's duration minus the part of it that its children cover.
func (l *spanLog) selfTimes() map[string]*layerTime {
	children := make(map[int][]span)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range l.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(s, children[i]))
	}
	return out
}

// covered measures the union of the children's intervals inside parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, hi int64 = 0, -1
	for _, v := range ivs {
		if v.a > hi {
			sum += v.b - v.a
			hi = v.b
		} else if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// write stores the spans as one JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimeLines renders the per-layer self times, per job.
func (l *spanLog) selfTimeLines(jobs int) []string {
	st := l.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []string
	for _, n := range names {
		lt := st[n]
		b = append(b, fmt.Sprintf("span %-22s count=%-6d total=%9.3f ms/job self=%9.3f ms/job",
			n, lt.Count, ms(lt.Total)/float64(max(jobs, 1)), ms(lt.Self)/float64(max(jobs, 1))))
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// spanPath names the span file of one traced run; it outlives the run's
// scratch directory.
func spanPath(root, workload string, seed int64) string {
	return filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-%d.json", workload, seed))
}

// finishTrace records what every traced run reports: the layer metrics, the
// tracing overhead (traced vs untraced median job time) and per-layer self
// times, and writes the spans out.
func finishTrace(env *benchEnv, res *result, sp *spanLog, acc *layerAcc, workload string, baseP50, tracedP50 float64, jobs int) {
	acc.metrics(res.layer)
	res.layer["trace.overhead_pct"] = (ratio(tracedP50, baseP50) - 1) * 100
	res.logf("trace: job p50 untraced %.4g ms, traced %.4g ms", baseP50, tracedP50)
	res.lines = append(res.lines, sp.selfTimeLines(jobs)...)
	path := spanPath(env.root, workload, env.seed)
	if err := sp.write(path); err != nil {
		res.logf("trace: writing spans: %v", err)
		return
	}
	res.logf("trace: %d spans written to %s", len(sp.spans), path)
}
