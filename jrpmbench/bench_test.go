package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"jrpm/internal/core"
	"jrpm/internal/serve"
	"jrpm/internal/workloads"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 50}, {20, 50}, {26, 60}, {52, 80}, {78, 80}, {200, 95},
		{990, 98}, {1000, 99}, {1100, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	// Property: the chosen percentile has at least minBeyond samples above
	// it and no higher ladder percentile does.
	for n := 20; n <= 20000; n++ {
		p := tailPercentile(n)
		if b := beyond(n, p); b < minBeyond {
			t.Fatalf("n=%d: p%g has only %d beyond", n, p, b)
		}
		for _, q := range tailLadder {
			if q > p && beyond(n, q) >= minBeyond {
				t.Fatalf("n=%d: chose p%g but p%g also has %d beyond", n, p, q, beyond(n, q))
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs, 90)
	if d.N != 100 || d.P50 != 50.5 || math.Abs(d.Tail-90.1) > 1e-9 {
		t.Errorf("summarize(1..100, 90) = %+v, want n=100 p50=50.5 p90=90.1", d)
	}
	if beyond(d.N, d.TailPct) != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", beyond(d.N, d.TailPct))
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range [][2]string{{"latency_p50_ms", "ms"}, {"jit.tls_ns_per_bc", "ns/bc"}, {"9lives", "%"}, {"go.gc_cpu_fraction", "ratio"}} {
		if err := checkMetricName(ok[0], ok[1]); err != nil {
			t.Errorf("%v rejected: %v", ok, err)
		}
	}
	long := "a1234567890123456789012345678901234567890123456789012345678901234"
	for _, bad := range [][2]string{{"_x", "ms"}, {"x y", "ms"}, {"x", ""}, {"x", "m s"}, {long, "ms"}, {"x", "12345678901234567"}} {
		if err := checkMetricName(bad[0], bad[1]); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestBenchmarkDeclaration checks BENCHMARK.json against the rules the
// result line and the regression gate rely on.
func TestBenchmarkDeclaration(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(name, unit string) {
		if err := checkMetricName(name, unit); err != nil {
			t.Error(err)
		}
		if seen[name] {
			t.Errorf("%s declared twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		use(w.Name, "x")
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		use(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.PerLayer {
		use(m.Name, m.Unit)
	}
	var setup bool
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound == maxBound
		}
	}
	if !setup {
		t.Error("setup_s must be declared in s, lower is better, with the largest bound")
	}
}

// TestGoldenOracleNegative proves the oracle rejects a build that differs
// from the golden capture's: deltaBlue without its heap override collects
// garbage differently and must not match its golden row.
func TestGoldenOracleNegative(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden(root)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.ByName("deltaBlue")
	if w.HeapWords == 0 {
		t.Fatal("deltaBlue lost its heap override; pick another negative case")
	}
	for _, override := range []bool{true, false} {
		p := buildProgram(w, false, override)
		res, err := core.Run(p.bp, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		err = checkGolden(golden, p.key, res)
		if override && err != nil {
			t.Errorf("golden build rejected: %v", err)
		}
		if !override && err == nil {
			t.Error("build without the heap override passed the golden check")
		}
	}
}

// TestStagedReplayMatchesCore checks the traced replay against core.Run and
// the golden row on a short program, at every rung.
func TestStagedReplayMatchesCore(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden(root)
	if err != nil {
		t.Fatal(err)
	}
	p := buildProgram(workloads.ByName("EmFloatPnt"), false, true)
	for _, rung := range []serve.Rung{serve.RungTLS, serve.RungProfile, serve.RungSeq} {
		res, err := rungRun(rung)(p.bp, p.opts)
		if err != nil {
			t.Fatal(err)
		}
		acc := &layerAcc{}
		st, err := stagedRun(p.bp, p.opts, rung, acc, newSpanLog(), -1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkStaged(string(rung), st, res); err != nil {
			t.Error(err)
		}
		if rung == serve.RungTLS && st.row != golden[p.key] {
			t.Errorf("staged replay %s differs from golden %s", st.row, golden[p.key])
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}}
	st := l.selfTimes()
	if got := st["job"].Self; got != 40 {
		t.Errorf("job self time = %d, want 40", got)
	}
	if got := st["a"].Self; got != 30 {
		t.Errorf("a self time = %d, want 30", got)
	}
}
