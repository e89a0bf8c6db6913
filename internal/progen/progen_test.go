package progen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jrpm/internal/bytecode"
	"jrpm/internal/core"
)

// TestDeterministicGeneration pins the suite's foundation: the same seed
// must produce a byte-identical program, and the tree must survive its own
// JSON encoding unchanged (the shrinker and repro files depend on that).
func TestDeterministicGeneration(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 50; seed++ {
		a1, err := Asm(Generate(seed, cfg))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a2, _ := Asm(Generate(seed, cfg))
		if a1 != a2 {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		// JSON round trip preserves the program exactly.
		raw, err := json.Marshal(Generate(seed, cfg))
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back := &Prog{}
		if err := json.Unmarshal(raw, back); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		a3, err := Asm(back)
		if err != nil {
			t.Fatalf("seed %d: lower after round trip: %v", seed, err)
		}
		if a3 != a1 {
			t.Fatalf("seed %d: JSON round trip changed the program", seed)
		}
	}
	if a1, _ := Asm(Generate(1, cfg)); a1 == mustAsm(t, Generate(2, cfg)) {
		t.Fatal("seeds 1 and 2 generated identical programs")
	}
}

func mustAsm(t *testing.T, p *Prog) string {
	t.Helper()
	a, err := Asm(p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestGeneratorCoversShapes checks the statement grammar is actually
// exercised across a modest seed range — a silent bias collapse (e.g. every
// draw landing on SAssign) would hollow out the whole suite.
func TestGeneratorCoversShapes(t *testing.T) {
	seen := map[StmtKind]bool{}
	var walk func([]*Stmt)
	walk = func(ss []*Stmt) {
		for _, s := range ss {
			seen[s.Kind] = true
			walk(s.Body)
			walk(s.Else)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		walk(Generate(seed, DefaultConfig()).Body)
	}
	for k := StmtKind(0); k < numStmtKinds; k++ {
		if !seen[k] {
			t.Errorf("statement kind %d never generated in 200 seeds", k)
		}
	}
}

// TestConformance is the standing differential gate: every seed must agree
// across the oracle, sequential, profiled, speculative, fault-injected and
// guard-demoted executions.
func TestConformance(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 8
	}
	cc := DefaultCheckConfig()
	for seed := int64(1); seed <= n; seed++ {
		v := Check(Generate(seed, DefaultConfig()), cc)
		if v.Diverged() {
			t.Fatalf("seed %d diverged on leg %q: %s", seed, v.Divergence, v.Detail)
		}
		if v.Checks == 0 {
			t.Fatalf("seed %d: no checks performed", seed)
		}
	}
}

// TestVerdictsDeterministic: checking the same seed twice yields identical
// verdicts (an acceptance criterion of the suite).
func TestVerdictsDeterministic(t *testing.T) {
	cc := DefaultCheckConfig()
	for seed := int64(3); seed <= 6; seed++ {
		p := Generate(seed, QuickConfig())
		v1, v2 := Check(p, cc), Check(p, cc)
		if *v1 != *v2 {
			t.Fatalf("seed %d: verdicts differ: %+v vs %+v", seed, v1, v2)
		}
	}
}

// TestChaosDetectedAndShrunk is the suite's self-test against a known
// injected bug: with the store buffer's word-valid bits disabled
// (tls.Config.ChaosNoWordValid), some seed must produce a detected
// divergence, and the shrinker must reduce it to a reproducer whose
// speculative kernel is at most 20 bytecode instructions.
func TestChaosDetectedAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking loop is slow")
	}
	cc := CheckConfig{NCPU: 4, Chaos: true}
	var prog *Prog
	var first *Verdict
	for seed := int64(1); seed <= 400; seed++ {
		p := Generate(seed, DefaultConfig())
		if v := Check(p, cc); v.Diverged() {
			prog, first = p, v
			break
		}
	}
	if prog == nil {
		t.Fatal("no seed in 1..400 exposed the disabled word-valid bits; the harness cannot detect a real forwarding bug")
	}
	t.Logf("seed %d diverged on %q: %s", prog.Seed, first.Divergence, first.Detail)

	sr := Shrink(prog, cc, 600)
	if !sr.Verdict.Diverged() {
		t.Fatal("shrinker lost the divergence")
	}
	t.Logf("shrunk in %d steps / %d checks: total=%d kernel=%d instructions",
		sr.Steps, sr.Checks, sr.Total, sr.Kernel)
	if sr.Kernel > 20 {
		t.Errorf("shrunk kernel is %d instructions, want <= 20", sr.Kernel)
	}

	// The reproducer round-trips through disk and still replays.
	r := NewRepro(sr, cc)
	dir := t.TempDir()
	path, err := r.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := back.Recheck(); !v.Diverged() {
		t.Fatal("loaded reproducer no longer diverges")
	}
	// And with the chaos hook off, the same program is clean — the
	// divergence is the injected bug, not a generator artifact.
	if v := Check(back.Prog, CheckConfig{NCPU: 4}); v.Diverged() {
		t.Fatalf("reproducer diverges even without chaos: %q %s", v.Divergence, v.Detail)
	}
}

// TestShrinkCleanProgramIsNoop: a conforming program shrinks to itself.
func TestShrinkCleanProgramIsNoop(t *testing.T) {
	p := Generate(7, QuickConfig())
	sr := Shrink(p, CheckConfig{NCPU: 4}, 50)
	if sr.Steps != 0 {
		t.Fatalf("shrinker took %d steps on a clean program", sr.Steps)
	}
	if sr.Verdict.Diverged() {
		t.Fatalf("clean program reported divergent: %q", sr.Verdict.Divergence)
	}
}

// TestReproCorpus replays every checked-in reproducer under its stored
// configuration and requires the recorded verdict to hold — divergent
// repros must still diverge (the injected bug they pin is still
// detectable), clean ones must stay clean.
func TestReproCorpus(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("testdata", "repros", "*.json"))
	if len(files) == 0 {
		t.Skip("no checked-in reproducers")
	}
	for _, f := range files {
		r, err := LoadRepro(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		v := r.Recheck()
		if want := r.Divergence != ""; v.Diverged() != want {
			t.Errorf("%s: recorded divergence %q, replay got %q (%s)",
				filepath.Base(f), r.Divergence, v.Divergence, v.Detail)
		}
	}
}

// TestLoweringTotality: the lowering must accept hostile trees the shrinker
// can produce — empty bodies, zero iterations, out-of-range selectors,
// missing operands.
func TestLoweringTotality(t *testing.T) {
	hostile := []*Prog{
		{Seed: 1, Locals: 1, Statics: 1, Arrays: 1, ArrayLen: 4,
			LocalInit: []int64{0}, StaticInit: []int64{0},
			Prefill: []bool{false}, PrefillMul: []int64{3},
			Probes: []Probe{{Kind: PLocal}}},
		{Seed: 2, Locals: 1, Statics: 1, Arrays: 1, ArrayLen: 4,
			LocalInit: []int64{1}, StaticInit: []int64{2},
			Prefill: []bool{true}, PrefillMul: []int64{5},
			Body: []*Stmt{
				{Kind: SLoop, Iters: 0},
				{Kind: SLoop, Iters: 1, Body: []*Stmt{{Kind: SAssign, Dst: 99, E: &Expr{Kind: ELocal, K: -7}}}},
				{Kind: SBreakIf, CondA: &Expr{Kind: ELoopVar, K: 5}, CondB: &Expr{Kind: EConst}},
				{Kind: SCallMix, Dst: 0},
				{Kind: STry, Arr: 42, K: 2, Idx: &Expr{Kind: EConst, K: -3}},
				{Kind: SArrStore, Arr: -1, Idx: &Expr{Kind: EStatic, K: -9}, E: nil},
			},
			Probes: []Probe{{Kind: PArrSum, K: 12}, {Kind: PArrElem, K: 0, Idx: -5}, {Kind: PStatic, K: 3}}},
	}
	for i, p := range hostile {
		if _, _, err := Lower(p); err != nil {
			t.Errorf("hostile tree %d failed to lower: %v", i, err)
			continue
		}
		if v := Check(p, CheckConfig{NCPU: 2}); v.Divergence == "build" || v.Divergence == "oracle" {
			t.Errorf("hostile tree %d: %q %s", i, v.Divergence, v.Detail)
		}
	}
}

// TestReproFileHygiene: generated repro filenames are deterministic and
// path-safe.
func TestReproFileHygiene(t *testing.T) {
	r := &Repro{Seed: 42, Divergence: "seq-vs-tls"}
	if got := r.Filename(); got != "repro-seed42-seq-vs-tls.json" {
		t.Fatalf("filename = %q", got)
	}
	if strings.ContainsAny(r.Filename(), " /\\") {
		t.Fatal("filename contains unsafe characters")
	}
	if _, err := LoadRepro(filepath.Join(os.TempDir(), "progen-definitely-missing.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestMultilevelRebaseRegression pins the first real bug the suite found:
// seed -32 (quick size) builds an outer loop carrying a divided local
// through a Comm slot around a conditional inner loop that the analyzer
// pairs as a multilevel inner STL. The switch-in inductor rebase recorded
// the current outer iteration as the new base even though the saved home
// value was already post-increment, so after the switch back out the
// redeployed slaves ran one iteration ahead and the last outer iteration
// was silently skipped (seq carried 162→54→23→20, TLS stopped at 23).
// The fuzz corpus entry testdata/fuzz/FuzzDifferential/a6de00b730394b94
// replays the same seed through the native fuzz target.
func TestMultilevelRebaseRegression(t *testing.T) {
	p := Generate(-32, QuickConfig())
	if v := Check(p, DefaultCheckConfig()); v.Diverged() {
		t.Fatalf("seed -32 diverged on leg %q: %s", v.Divergence, v.Detail)
	}
}

// resetBeforeIncrement is seed 16777725 (DefaultConfig) after 73 shrink
// checks: local 1 is conditionally reloaded from a[0] behind an always-true
// compare, then advanced by 46 on every iteration and printed after the
// loop. cfg classifies it as a resetable inductor with step 46 whose reset
// runs before the increment in its iteration.
const resetBeforeIncrement = `program progen
statics 3
method main args=0 locals=4 returns=false
    const 0
    store 0
    const 0
    store 1
    const 0
    putstatic 0
    const 0
    putstatic 1
    const 0
    putstatic 2
    const 1
    newarray
    store 2
    const 0
    const 0
    if_icmpne .L35
    const -1
    store 3
  .L18:
    load 3
    const 3
    if_icmpge .L35
    iinc 3 1
    const 0
    const 0
    if_icmpge .L26
    goto .L30
  .L26:
    load 2
    const 0
    aload
    store 1
  .L30:
    load 1
    const 46
    iadd
    store 1
    goto .L18
  .L35:
    load 1
    print
    return
end
`

// TestResetBeforeIncrementRegression pins durable-fresh's live-out
// miscompile: the reset's forced communication named the next iteration as
// the new base, as if the increment had already run, so every later value
// lost one step and the TLS leg printed [0] where the sequential and
// profile legs print [46]. The reset now names its own iteration when the
// increment follows it.
func TestResetBeforeIncrementRegression(t *testing.T) {
	bp, err := bytecode.Parse(resetBeforeIncrement)
	if err != nil {
		t.Fatal(err)
	}
	for _, noInline := range []bool{false, true} {
		for _, tierOff := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.NoInline, opts.Tier2Off = noInline, tierOff
			res, err := core.Run(bp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OutputsMatch || len(res.TLS.Output) != 1 || res.TLS.Output[0] != 46 {
				t.Fatalf("inline=%v tier-off=%v: seq %v, tls %v; want [46] from every leg",
					!noInline, tierOff, res.Seq.Output, res.TLS.Output)
			}
		}
	}
	p := Generate(16777725, DefaultConfig())
	if v := Check(p, DefaultCheckConfig()); v.Diverged() {
		t.Fatalf("seed 16777725 diverged on leg %q: %s", v.Divergence, v.Detail)
	}
}
