package difftest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/core"
	"jrpm/internal/progen"
	"jrpm/internal/tls"
)

// Generated programs whose speculative legs park CPUs at STL_EOI,
// STL_SHUTDOWN, on buffer overflow (small buffers), on deferred exceptions
// and at the multilevel switch-out. Their rows were captured from the
// per-cycle-polling scheduler that parking replaced (regenerate only from
// such a reference, with JRPM_WRITE_PARK_GOLDEN=1); both engine settings
// must reproduce them.

type parkProgram struct {
	size  string
	seed  int64
	small bool // 2-line store / 4-line load buffers and a 700-word heap
}

func (p parkProgram) name() string {
	if p.small {
		return fmt.Sprintf("%s/%d/small", p.size, p.seed)
	}
	return fmt.Sprintf("%s/%d", p.size, p.seed)
}

var parkPrograms = []parkProgram{
	{"default", 1, false}, {"default", 3, false}, {"default", 2, false},
	{"default", 2, true}, {"default", 7, true}, {"stress", 18, false},
	{"stress", 13, true}, {"stress", 180, false}, {"stress", 51, false},
}

// program lowers the generated program and returns it with its options.
func (p parkProgram) program(t *testing.T) (*bytecode.Program, core.Options) {
	t.Helper()
	cfg, err := progen.ConfigByName(p.size)
	if err != nil {
		t.Fatal(err)
	}
	_, bp, err := progen.Lower(progen.Generate(p.seed, cfg))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	if p.small {
		tc := tls.DefaultConfig(4)
		tc.StoreBufferLines, tc.LoadBufferLines = 2, 4
		opts.TLS = &tc
		opts.VM.HeapWords = 700
	}
	return bp, opts
}

// parkProgramRow is the pinned result of one pipeline run.
type parkProgramRow struct {
	Seq, Profile, TLS              int64
	Instructions                   int64
	Commits, Violations, Overflows int64
	Stats                          tls.StateStats
	Output                         []int64
	OutputsMatch                   bool
}

func parkProgramRows(t *testing.T, tierOff bool) map[string]parkProgramRow {
	rows := map[string]parkProgramRow{}
	for _, p := range parkPrograms {
		bp, opts := p.program(t)
		opts.Tier2Off = tierOff
		res, err := core.Run(bp, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.name(), err)
		}
		rows[p.name()] = parkProgramRow{
			Seq: res.Seq.Cycles, Profile: res.Profile.Cycles, TLS: res.TLS.Cycles,
			Instructions: res.TLS.Instructions,
			Commits:      res.TLS.Commits, Violations: res.TLS.Violations, Overflows: res.TLS.Overflows,
			Stats: res.TLS.Stats, Output: res.TLS.Output, OutputsMatch: res.OutputsMatch,
		}
	}
	return rows
}

func TestParkingProgramsGolden(t *testing.T) {
	path := filepath.Join("testdata", "parking_programs.json")
	if os.Getenv("JRPM_WRITE_PARK_GOLDEN") != "" {
		raw, err := json.MarshalIndent(parkProgramRows(t, true), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]parkProgramRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, tierOff := range []bool{false, true} {
		got := parkProgramRows(t, tierOff)
		if len(got) != len(want) {
			t.Fatalf("%d rows, golden has %d", len(got), len(want))
		}
		for k, w := range want {
			if g := got[k]; !reflect.DeepEqual(g, w) {
				t.Errorf("tier-off=%v %s:\n got  %+v\n want %+v", tierOff, k, g, w)
			}
		}
	}
}
