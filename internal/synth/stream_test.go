package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/specio"
)

// loadSpec reads one of the repository's benchmark specifications.
func loadSpec(t testing.TB, name string) *model.System {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".spec"))
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := specio.ReadWarnString(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sys
}

// benchmarkSpecNames lists the shipped specifications the metamorphic
// pins run over.
func benchmarkSpecNames() []string {
	names := []string{"smartphone", "sdr"}
	for i := 1; i <= 12; i++ {
		names = append(names, fmt.Sprintf("mul%d", i))
	}
	return names
}

// streamOpts is the small GA budget of the one-answer pins.
func streamOpts(dvs bool, seed int64) Options {
	return Options{
		UseDVS: dvs,
		Seed:   seed,
		GA:     ga.Config{PopSize: 12, MaxGenerations: 20, Stagnation: 10},
	}
}

func mustReport(t *testing.T, sys *model.System, opts Options) string {
	t.Helper()
	res, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalReport(res)
}

// TestCheckpointedRunGolden pins the checkpointed trajectory, which is the
// one mmserved runs and the result cache stores, to digests recorded before
// plain and checkpointed runs were unified onto one random stream. If this
// test fails, cached results no longer describe what the engine computes:
// bump EngineVersion (internal/synth/canonical.go) and re-record the
// digests in the same change.
func TestCheckpointedRunGolden(t *testing.T) {
	sys := loadSpec(t, "mul1")
	want := map[bool]string{
		false: "fa9c669b6138bfeb68c3c27f40bc852de5ec17216dc51765d8767ee017635d3b",
		true:  "f120b620dd92dc68f1ba6b781680d6f9bdda159d5ade148a6a0fbe2fb4768510",
	}
	for _, dvs := range []bool{false, true} {
		opts := streamOpts(dvs, 1)
		opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		sum := sha256.Sum256([]byte(mustReport(t, sys, opts)))
		if got := hex.EncodeToString(sum[:]); got != want[dvs] {
			t.Errorf("dvs=%v: checkpointed report digest %s, want %s (bump EngineVersion)", dvs, got, want[dvs])
		}
	}
}

// TestPlainRunMatchesCheckpointed pins one answer per (spec, seed,
// options): checkpointing is run-control plumbing, so a run with it must
// report exactly what a run without it reports.
func TestPlainRunMatchesCheckpointed(t *testing.T) {
	sys := loadSpec(t, "mul1")
	for _, dvs := range []bool{false, true} {
		opts := streamOpts(dvs, 1)
		plain := mustReport(t, sys, opts)
		opts.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		if ckpt := mustReport(t, sys, opts); ckpt != plain {
			t.Errorf("dvs=%v: checkpointed run differs from the plain run:\n--- plain ---\n%s--- checkpointed ---\n%s",
				dvs, plain, ckpt)
		}
	}
}

// TestTransitionOrderInvariant is the metamorphic pin behind the result
// cache's soundness assumption: reversing App.Transitions leaves
// specio.Canonical, and therefore the cache key, unchanged, so it must
// leave the synthesis result unchanged too.
func TestTransitionOrderInvariant(t *testing.T) {
	for _, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		rev := append([]model.Transition(nil), sys.App.Transitions...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		flipped := sys.WithApp(&model.OMSM{Name: sys.App.Name, Modes: sys.App.Modes, Transitions: rev})
		a, err := specio.Canonical(sys)
		if err != nil {
			t.Fatal(err)
		}
		b, err := specio.Canonical(flipped)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: reversing the transitions changed the canonical form", name)
		}
		for _, dvs := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				opts := streamOpts(dvs, seed)
				if mustReport(t, sys, opts) != mustReport(t, flipped, opts) {
					t.Errorf("%s dvs=%v seed=%d: reversing the transitions changed the result", name, dvs, seed)
				}
			}
		}
	}
}

// withUniformProbs returns a copy of sys whose modes all carry the
// UniformProbs probability; task graphs, periods and transitions are
// shared.
func withUniformProbs(sys *model.System) *model.System {
	probs := UniformProbs(sys)
	app := *sys.App
	app.Modes = make([]*model.Mode, len(sys.App.Modes))
	for i, m := range sys.App.Modes {
		cp := *m
		cp.Prob = probs[i]
		app.Modes[i] = &cp
	}
	return sys.WithApp(&app)
}

// TestNeglectEqualsProposedUnderUniform is the metamorphic pin for the
// paper's baseline: when Ψ is already uniform, neglecting the mode
// execution probabilities (optimising as if they were uniform) changes
// nothing, so the baseline must report exactly what the proposed method
// reports.
func TestNeglectEqualsProposedUnderUniform(t *testing.T) {
	for _, name := range benchmarkSpecNames() {
		spec := loadSpec(t, name)
		sys := withUniformProbs(spec)
		for _, dvs := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				opts := streamOpts(dvs, seed)
				proposed := mustReport(t, sys, opts)
				opts.NeglectProbabilities = true
				if mustReport(t, sys, opts) != proposed {
					t.Errorf("%s dvs=%v seed=%d: under uniform probabilities the probability-neglecting run differs from the proposed one", name, dvs, seed)
				}
			}
		}
	}
}
