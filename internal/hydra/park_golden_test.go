package hydra

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jrpm/internal/tls"
)

// Parking has no in-tree reference: parked waits replace per-cycle polling
// under both engine settings. These rows were captured from the
// per-cycle-polling scheduler that preceded it (regenerate only from such a
// reference, with JRPM_WRITE_PARK_GOLDEN=1) and pin every observable of
// speculative loops whose CPUs wait at STL_EOI, STL_SHUTDOWN, IOPUT, a
// failed allocation and both multilevel switches.

// parkCase is one pinned image with its runtime.
type parkCase struct {
	name string
	img  func() *Image
	rt   func() Runtime
}

func parkCases() []parkCase {
	gc := func() Runtime { return &gcEveryRuntime{stubRuntime: newStubRuntime(), k: 5} }
	return []parkCase{
		{"serialized", func() *Image { return serializedSpec(48) }, nil},
		{"uneven", func() *Image { return unevenSpec(48) }, nil},
		{"late-exit", func() *Image { return lateExitSpec(37) }, nil},
		{"io", func() *Image { return ioSpec(24) }, nil},
		{"gc", func() *Image { return allocSpec(40) }, gc},
		{"multilevel", func() *Image { return multilevelSpec(9, 13) }, nil},
	}
}

// parkRow is the pinned result of one run.
type parkRow struct {
	Clock, Instructions, GCRuns    int64
	Commits, Violations, Overflows int64
	Stats                          tls.StateStats
	Output                         []int64
	CPUs                           string // FNV-64 of every CPU's pc, state, readyAt and registers
	Err                            string `json:",omitempty"`
}

func parkRowOf(m *Machine, err error) parkRow {
	h := fnv.New64a()
	for _, c := range m.CPUs {
		fmt.Fprint(h, c.PC, c.MethodID, c.state, c.readyAt, c.Regs)
	}
	r := parkRow{
		Clock: m.Clock, Instructions: m.Instructions, GCRuns: m.GCRuns,
		Commits: m.TLS.Commits, Violations: m.TLS.Violations, Overflows: m.TLS.Overflows,
		Stats: m.TLS.Stats, Output: m.Output, CPUs: fmt.Sprintf("%016x", h.Sum64()),
	}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

// parkRows runs every case to completion and at two cycle budgets inside
// its speculative loop.
func parkRows(tierOff bool) map[string]parkRow {
	rows := map[string]parkRow{}
	for _, pc := range parkCases() {
		for _, budget := range []int64{50_000_000, 333, 777} {
			opts := DefaultOptions()
			opts.Tier2Off = tierOff
			m := NewMachine(pc.img(), runtimeOrStub(pc.rt), opts)
			err := m.Run(budget)
			rows[fmt.Sprintf("%s/%d", pc.name, budget)] = parkRowOf(m, err)
		}
	}
	return rows
}

func TestParkingGolden(t *testing.T) {
	path := filepath.Join("testdata", "parking_golden.json")
	if os.Getenv("JRPM_WRITE_PARK_GOLDEN") != "" {
		raw, err := json.MarshalIndent(parkRows(true), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
	var want map[string]parkRow
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, tierOff := range []bool{false, true} {
		got := parkRows(tierOff)
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
