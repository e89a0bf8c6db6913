package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"jrpm/internal/bytecode"
	"jrpm/internal/codec"
	"jrpm/internal/core"
	"jrpm/internal/serve"
	"jrpm/internal/tls"
	"jrpm/internal/workloads"
)

// goldenFile is the simulator's pinned results, read at run time so the
// oracle can never drift from the repository's own golden test.
const goldenFile = "internal/difftest/testdata/golden_cycles.json"

// goldenRow mirrors one row of the golden file.
type goldenRow struct {
	Seq        int64
	Profile    int64
	TLS        int64
	Commits    int64
	Violations int64
	Overflows  int64
	Stats      tls.StateStats
}

func (r goldenRow) String() string {
	return fmt.Sprintf("seq=%d profile=%d tls=%d commits=%d viol=%d ovf=%d stats=%+v",
		r.Seq, r.Profile, r.TLS, r.Commits, r.Violations, r.Overflows, r.Stats)
}

func rowOf(res *core.Result) goldenRow {
	return goldenRow{
		Seq: res.Seq.Cycles, Profile: res.Profile.Cycles, TLS: res.TLS.Cycles,
		Commits: res.TLS.Commits, Violations: res.TLS.Violations,
		Overflows: res.TLS.Overflows, Stats: res.TLS.Stats,
	}
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding the golden file.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s above the working directory: run from the root of a jrpm checkout", goldenFile)
		}
		dir = parent
	}
}

func loadGolden(root string) (map[string]goldenRow, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("reading golden rows: %w", err)
	}
	rows := map[string]goldenRow{}
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenFile, err)
	}
	return rows, nil
}

// program is one Table 3 program or Table 4 variant, built exactly as the
// golden capture builds it.
type program struct {
	key  string // golden row key: the workload name, plus "/transformed"
	w    *workloads.Workload
	bp   *bytecode.Program
	opts core.Options
}

// buildProgram builds one workload as the golden capture does: default
// options plus the workload's heap override. heapOverride=false leaves the
// override out, which the harness's self-test uses as a known-bad build.
func buildProgram(w *workloads.Workload, transformed, heapOverride bool) program {
	opts := core.DefaultOptions()
	if heapOverride && w.HeapWords > 0 {
		opts.VM.HeapWords = w.HeapWords
	}
	if transformed {
		return program{key: w.Name + "/transformed", w: w, bp: w.BuildTransformed(), opts: opts}
	}
	return program{key: w.Name, w: w, bp: w.Build(), opts: opts}
}

// table3 builds every Table 3 program and, with transformed set, every
// Table 4 variant, in registry order.
func table3(transformed bool) []program {
	var out []program
	for _, w := range workloads.All() {
		out = append(out, buildProgram(w, false, true))
		if transformed && w.BuildTransformed != nil {
			out = append(out, buildProgram(w, true, true))
		}
	}
	return out
}

// checkGolden compares a pipeline result with the program's golden row.
func checkGolden(golden map[string]goldenRow, key string, res *core.Result) error {
	want, ok := golden[key]
	if !ok {
		return fmt.Errorf("%s: no golden row", key)
	}
	if !res.OutputsMatch {
		return fmt.Errorf("%s: speculative output differs from the sequential run", key)
	}
	if got := rowOf(res); got != want {
		return fmt.Errorf("%s: simulated results differ from golden\n got: %s\nwant: %s", key, got, want)
	}
	return nil
}

// rungRun maps a serve rung to the core entry point a replica runs it with.
func rungRun(r serve.Rung) func(*bytecode.Program, core.Options) (*core.Result, error) {
	switch r {
	case serve.RungProfile:
		return core.RunProfile
	case serve.RungSeq:
		return core.RunSequential
	}
	return core.Run
}

// directResult runs a job spec the way a replica runs its first rung —
// same program build, same derived options, under a cancellable context
// that never fires (the context's poll stride shapes host-side tier-2
// counters that travel in the wire) — without going through serve.
func directResult(scfg serve.Config, spec serve.JobSpec) (*core.Result, []byte, error) {
	bp, _, err := serve.BuildProgram(spec)
	if err != nil {
		return nil, nil, err
	}
	first, _, err := serve.ParseMode(spec.Mode)
	if err != nil {
		return nil, nil, err
	}
	opts, err := scfg.OptionsForSpec(spec, first)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Ctx = ctx
	res, err := rungRun(first)(bp, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: direct run: %w", spec.Name, err)
	}
	if !res.OutputsMatch {
		return nil, nil, errors.New(spec.Name + ": simulator defect: the speculative run's output differs from the sequential run's (serve degrades such a job)")
	}
	return res, codec.EncodeResult(res), nil
}
