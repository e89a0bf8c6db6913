package difftest

import (
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/cfg"
	"jrpm/internal/core"
	"jrpm/internal/hydra"
	"jrpm/internal/jit"
	"jrpm/internal/workloads"
)

// jitCompiles is how many times each workload is compiled per mode. A map
// iteration order leaking into emission changed jLex's plain image in about
// one compile in eight, so twenty compiles catch it with near certainty.
const jitCompiles = 20

// TestJITEmissionDeterministic compiles every Table 3 program and Table 4
// variant in every jit mode jitCompiles times, each from a fresh build, and
// requires a single image fingerprint per program and mode. A checkpoint
// carries the fingerprint of the image it was taken on, so any variation
// makes resuming fail with ErrBadCheckpoint (cycle counts do not show it).
func TestJITEmissionDeterministic(t *testing.T) {
	type prog struct {
		name  string
		build func() *bytecode.Program
		heap  int
	}
	var progs []prog
	for _, w := range workloads.All() {
		progs = append(progs, prog{w.Name, w.Build, w.HeapWords})
		if w.BuildTransformed != nil {
			progs = append(progs, prog{w.Name + "/transformed", w.BuildTransformed, w.HeapWords})
		}
	}
	modes := []struct {
		name string
		mode jit.Mode
	}{{"plain", jit.ModePlain}, {"annotated", jit.ModeAnnotated}, {"tls", jit.ModeTLS}}
	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			// The TLS compile needs the analyzer's selection, which is a
			// plain value keyed by loop id: take it from one pipeline run.
			opts := core.DefaultOptions()
			if p.heap > 0 {
				opts.VM.HeapWords = p.heap
			}
			res, err := core.Run(p.build(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, md := range modes {
				var sel *jit.Selection
				if md.mode == jit.ModeTLS {
					sel = res.Analysis.Selection
				}
				seen := map[uint64]int{}
				for i := 0; i < jitCompiles; i++ {
					bp := jit.Inline(p.build())
					img, _, err := jit.Compile(bp, cfg.AnalyzeProgram(bp), md.mode, sel)
					if err != nil {
						t.Fatalf("%s compile %d: %v", md.name, i, err)
					}
					seen[hydra.ImageFingerprint(img)]++
				}
				if len(seen) != 1 {
					t.Errorf("%s mode: %d distinct image fingerprints in %d compiles: %v",
						md.name, len(seen), jitCompiles, seen)
				}
			}
		})
	}
}
