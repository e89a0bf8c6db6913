// Command jrpmbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output against an
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as one JSON object on its last line.
//
// Run it from the root of a jrpm checkout through the launcher, which
// builds it from the checkout's sources:
//
//	bash jrpmbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// The metric names, units and workloads are declared in BENCHMARK.json at
// the checkout root; README.md in this directory describes them.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchEnv is what every workload gets: its arguments, the checkout root
// and a private scratch directory inside the checkout.
type benchEnv struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string
	work    string
	cal     *calibrator
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	lines             []string
	// openLoop marks results whose latencies include queueing behind a
	// fixed arrival schedule, which does not scale with host speed, so
	// they are reported unnormalized.
	openLoop bool
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) logf(format string, a ...any) { r.lines = append(r.lines, fmt.Sprintf(format, a...)) }

// fail counts one failed job and records why.
func (r *result) fail(format string, a ...any) {
	r.failed++
	if r.failed <= 20 {
		r.logf("FAIL "+format, a...)
	}
}

var runners = map[string]func(*benchEnv) (*result, error){
	"suite":         runSuite,
	"fleet-zipf":    runFleet,
	"durable-fresh": runDurable,
	"ckpt-resume":   runCkpt,
}

// setupReps is how many times each workload sets up per run; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 7

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jrpmbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("jrpmbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: suite, fleet-zipf, durable-fresh or ckpt-resume")
	seed := fl.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fl.Float64("seconds", 20, "measured time in seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	runner := runners[*workload]
	if runner == nil {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	// core.DefaultOptions switches tier-2 off when JRPM_TIER=off; every
	// golden row and every comparison here assumes the default engine.
	if v, ok := os.LookupEnv("JRPM_TIER"); ok {
		return 2, fmt.Errorf("JRPM_TIER is set (%q): unset it, it silently changes the engine under test", v)
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		return 2, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d", runtime.GOMAXPROCS(0), nproc)
	}
	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	decl, err := loadDeclared(root)
	if err != nil {
		return 2, err
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(work)

	cal := newCalibrator()
	env := &benchEnv{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, root: root, work: work, cal: cal}
	fmt.Fprintf(stdout, "env nproc=%d gomaxprocs=%d go=%s commit=%s source=%s JRPM_TIER=unset\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), commitOf(root), sourceDigest(root))
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)

	rt0, steal0, cpu0, wall0 := readRuntime(), stealSeconds(), processCPU(), time.Now()
	rss := startRSS()
	for i := 0; i < 3; i++ {
		cal.sample()
	}
	res, err := runner(env)
	for i := 0; i < 3; i++ {
		cal.sample()
	}
	rssMed, rssMax := rss.finish()
	if err != nil {
		return 1, err
	}
	rt1, steal1, wall := readRuntime(), stealSeconds(), time.Since(wall0)
	res.logf("host: wall %.2f s, process CPU %.2f s, CPU stolen by the hypervisor %.2f s (all CPUs)",
		wall.Seconds(), processCPU()-cpu0, steal1-steal0)
	res.e2e["peak_rss_mb"] = rssMed
	res.logf("rss: median of per-%s resident-set peaks %.1f MB, highest %.1f MB", rssWindow, rssMed, rssMax)
	jobs := float64(max(res.attempted, 1))
	res.layer["go.gc_cpu_fraction"] = ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt1.idleCPU)-(rt0.totalCPU-rt0.idleCPU))
	res.layer["go.alloc_mb_per_job"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20) / jobs
	res.e2e["fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	res.logf("calibration: %s", cal)
	if res.openLoop {
		normalize(res.e2e, cal.factor(), "setup_s")
	} else {
		normalize(res.e2e, cal.factor())
		normalize(res.layer, cal.factor())
	}
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	printAll(stdout, "metric", res.e2e)
	printAll(stdout, "layer", res.layer)

	want, have := decl.EndToEnd, res.e2e
	if env.trace {
		want, have = decl.PerLayer, res.layer
	}
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok {
			return 1, fmt.Errorf("workload %s did not measure declared metric %s", *workload, m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, out})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 || res.attempted == 0 {
		return 1, fmt.Errorf("%d of %d jobs failed their check", res.failed, res.attempted)
	}
	return 0, nil
}

// normalize scales every host timing in m to the reference host speed
// (see calibrate.go), keeping the measured value under "raw.<name>":
// durations (names ending in _us, _ms or _s, or holding _ns_per_) are
// multiplied by f and measured speeds (jobs_per_s, sim_minstr_per_s) are
// divided by it. Counts, ratios and offered rates are left alone. With
// names given, only those are scaled.
func normalize(m map[string]float64, f float64, only ...string) {
	names := only
	if len(names) == 0 {
		for name := range m {
			if !strings.HasPrefix(name, "raw.") {
				names = append(names, name)
			}
		}
	}
	for _, name := range names {
		v := m[name]
		var scaled float64
		switch {
		case name == "jobs_per_s" || name == "sim_minstr_per_s":
			scaled = v / f
		case strings.HasSuffix(name, "_per_s"):
			continue
		case strings.HasSuffix(name, "_us") || strings.HasSuffix(name, "_ms") ||
			strings.HasSuffix(name, "_s") || strings.Contains(name, "_ns_per_"):
			scaled = v * f
		default:
			continue
		}
		m["raw."+name] = v
		m[name] = scaled
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printAll(w io.Writer, kind string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s = %.6g\n", kind, n, m[n])
	}
}

// declared is the metric list BENCHMARK.json promises.
type declared struct {
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadDeclared(root string) (*declared, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range append(append([]declMetric(nil), d.EndToEnd...), d.PerLayer...) {
		if err := checkMetricName(m.Name, m.Unit); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	return &d, nil
}

// repeatSetup runs setup setupReps times and returns the last instance and
// the median set-up time in seconds; the earlier instances are torn down.
func repeatSetup[T any](setup func(rep int) (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		v, err := setup(rep)
		if err != nil {
			return cur, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep > 0 {
			teardown(cur)
		}
		cur = v
	}
	return cur, summarize(times, 50).P50, nil
}

type runtimeSample struct{ gcCPU, totalCPU, idleCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

// processCPU is the user and system CPU time this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds reads the CPU time the hypervisor took from this machine's
// CPUs (the steal column of /proc/stat), or 0 where it is not reported.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// rssWindow is the window over which one resident-set peak is taken.
const rssWindow = 500 * time.Millisecond

// rssSampler records the resident-set high-water mark of each window and
// resets it for the next (Linux clear_refs), so peak_rss_mb is the median
// window peak: what the process holds at its peak in a typical half
// second, not one garbage-collection timing accident.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetHWM()
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.peaks = append(r.peaks, peakRSSMB())
				resetHWM()
			case <-r.stop:
				r.peaks = append(r.peaks, peakRSSMB())
				return
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the median and highest window peak.
func (r *rssSampler) finish() (median, highest float64) {
	close(r.stop)
	<-r.done
	for _, p := range r.peaks {
		highest = max(highest, p)
	}
	return summarize(r.peaks, 50).P50, highest
}

// resetHWM resets the resident-set high-water mark to the current RSS.
// Where the kernel does not allow it the peaks stay cumulative.
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// commitOf names the commit under test when the checkout is a git
// repository, and "none" otherwise.
func commitOf(root string) string {
	gitDir := filepath.Join(root, ".git")
	if _, err := os.Stat(gitDir); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "--git-dir", gitDir, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the simulator's Go sources, identifying the code
// under test even in a checkout without git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
