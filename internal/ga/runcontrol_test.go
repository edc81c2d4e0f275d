package ga

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestRunCtxCancelledReturnsPartialBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must stop at the first boundary
	res := RunControlled(oneMax{n: 12, k: 3}, Config{PopSize: 20, MaxGenerations: 100}, RunControl{Context: ctx}, rand.New(rand.NewSource(1)))
	if !res.Partial {
		t.Fatal("cancelled run must be flagged Partial")
	}
	if res.Reason != "canceled" {
		t.Errorf("Reason = %q, want canceled", res.Reason)
	}
	if res.Best == nil || res.Generations != 0 {
		t.Errorf("cancelled run must still return the best of the initial population: %+v", res)
	}
	if res.Evaluations != 20 {
		t.Errorf("evaluations = %d, want the initial population only", res.Evaluations)
	}
}

func TestRunCtxDeadlineReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := RunControlled(oneMax{n: 12, k: 3}, Config{PopSize: 20, MaxGenerations: 100}, RunControl{Context: ctx}, rand.New(rand.NewSource(1)))
	if !res.Partial || res.Reason != "deadline exceeded" {
		t.Errorf("got partial=%v reason=%q, want partial with deadline exceeded", res.Partial, res.Reason)
	}
	if res.Best == nil {
		t.Error("deadline-exceeded run must return a best-so-far genome")
	}
}

func TestRunCtxCancelCausePropagates(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("fault budget exceeded: demo"))
	res := RunControlled(oneMax{n: 8, k: 2}, Config{PopSize: 10, MaxGenerations: 50}, RunControl{Context: ctx}, rand.New(rand.NewSource(1)))
	if !res.Partial || !strings.Contains(res.Reason, "fault budget exceeded") {
		t.Errorf("cancellation cause lost: partial=%v reason=%q", res.Partial, res.Reason)
	}
}

func TestRunCtxMidRunCancellation(t *testing.T) {
	// Cancel from inside Fitness after a while: the engine must finish the
	// current generation and stop at the next boundary with best-so-far.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	p := hookedProblem{oneMax{n: 12, k: 3}, func([]int) {
		evals++
		if evals == 100 {
			cancel()
		}
	}}
	res := RunControlled(p, Config{PopSize: 20, MaxGenerations: 1000, Stagnation: 1000}, RunControl{Context: ctx}, rand.New(rand.NewSource(3)))
	if !res.Partial {
		t.Fatal("mid-run cancellation must flag Partial")
	}
	if res.Generations == 0 || res.Generations >= 1000 {
		t.Errorf("generations = %d, want a mid-run stop", res.Generations)
	}
	if len(res.History) != res.Generations {
		t.Errorf("history has %d entries for %d generations", len(res.History), res.Generations)
	}
}

type hookedProblem struct {
	oneMax
	hook func([]int)
}

func (p hookedProblem) Fitness(g []int) float64 {
	p.hook(g)
	return p.oneMax.Fitness(g)
}

func TestStallWatchdogInjectsDiversity(t *testing.T) {
	// flat has a constant fitness surface: the best individual can never
	// improve, so the run stalls from generation one onwards.
	restarts := 0
	lastGen := 0
	res := RunControlled(flat{n: 8}, Config{PopSize: 16, MaxGenerations: 20, Stagnation: 100},
		RunControl{StallWindow: 4, OnRestart: func(gen, n int) { restarts = n; lastGen = gen }},
		rand.New(rand.NewSource(5)))
	if res.Restarts != 20/4 {
		t.Errorf("restarts = %d, want %d (every StallWindow generations)", res.Restarts, 20/4)
	}
	if restarts != res.Restarts || lastGen != 20 {
		t.Errorf("OnRestart saw (gen=%d, n=%d), result has %d", lastGen, restarts, res.Restarts)
	}
	if res.Partial {
		t.Error("watchdog restarts must not mark the run partial")
	}
}

type flat struct{ n int }

func (p flat) GenomeLen() int        { return p.n }
func (p flat) Alleles(int) int       { return 4 }
func (p flat) Fitness([]int) float64 { return 1 }

func TestStallWatchdogDisarmedNearStagnationLimit(t *testing.T) {
	// With the stagnation stop about to end the run anyway, the watchdog
	// must not fire at the same boundary and waste evaluations.
	res := RunControlled(flat{n: 8}, Config{PopSize: 16, MaxGenerations: 100, Stagnation: 4},
		RunControl{StallWindow: 4}, rand.New(rand.NewSource(5)))
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0 when stagnation ends the run first", res.Restarts)
	}
}

func TestWatchdogStillFindsOptimum(t *testing.T) {
	// Restarts must never regress the best-so-far trajectory.
	res := RunControlled(oneMax{n: 16, k: 4}, Config{PopSize: 40, MaxGenerations: 300, Stagnation: 100},
		RunControl{StallWindow: 10}, rand.New(rand.NewSource(2)))
	if res.BestFitness != 0 {
		t.Errorf("best fitness = %v, want 0", res.BestFitness)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best-so-far regressed at generation %d: %v -> %v", i+1, res.History[i-1], res.History[i])
		}
	}
}

func TestCheckpointCadenceAndClosingSnapshot(t *testing.T) {
	var gens []int
	rc := RunControl{
		CheckpointEvery: 5,
		OnCheckpoint:    func(s *Snapshot) error { gens = append(gens, s.Generation); return nil },
	}
	res := RunControlled(flat{n: 6}, Config{PopSize: 10, MaxGenerations: 12, Stagnation: 100}, rc,
		rand.New(rand.NewSource(9)))
	want := []int{5, 10, 12} // periodic at 5 and 10, closing snapshot at 12
	if len(gens) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", gens, want)
	}
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("checkpoints at %v, want %v", gens, want)
		}
	}
	if res.Generations != 12 {
		t.Errorf("generations = %d", res.Generations)
	}
}

func TestCheckpointNotDuplicatedWhenRunEndsOnBoundary(t *testing.T) {
	var gens []int
	rc := RunControl{
		CheckpointEvery: 5,
		OnCheckpoint:    func(s *Snapshot) error { gens = append(gens, s.Generation); return nil },
	}
	RunControlled(flat{n: 6}, Config{PopSize: 10, MaxGenerations: 10, Stagnation: 100}, rc,
		rand.New(rand.NewSource(9)))
	if len(gens) != 2 || gens[1] != 10 {
		t.Errorf("checkpoints at %v, want exactly [5 10]", gens)
	}
}

func TestCheckpointFailureStopsRun(t *testing.T) {
	boom := errors.New("disk full")
	rc := RunControl{
		CheckpointEvery: 3,
		OnCheckpoint:    func(*Snapshot) error { return boom },
	}
	res := RunControlled(oneMax{n: 8, k: 3}, Config{PopSize: 10, MaxGenerations: 50, Stagnation: 50}, rc,
		rand.New(rand.NewSource(4)))
	if !res.Partial || !strings.Contains(res.Reason, "disk full") {
		t.Errorf("checkpoint failure not surfaced: partial=%v reason=%q", res.Partial, res.Reason)
	}
	if res.Generations != 3 {
		t.Errorf("generations = %d, want stop at the failing boundary", res.Generations)
	}
	if res.Best == nil {
		t.Error("best-so-far must survive a checkpoint failure")
	}
}

// splitmix is a minimal serialisable source for the resume-determinism test
// (the production implementation lives in internal/runctl, which cannot be
// imported here without a cycle).
type splitmix struct{ state uint64 }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }
func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func TestResumeReproducesUninterruptedRun(t *testing.T) {
	p := trap{n: 12}
	cfg := Config{PopSize: 24, MaxGenerations: 60, Stagnation: 60}

	// Reference: one uninterrupted run, remembering the engine state and
	// random stream position at every checkpoint boundary.
	type mark struct {
		snap *Snapshot
		rng  uint64
	}
	var marks []mark
	srcA := &splitmix{}
	srcA.Seed(17)
	ref := RunControlled(p, cfg, RunControl{
		CheckpointEvery: 7,
		OnCheckpoint: func(s *Snapshot) error {
			marks = append(marks, mark{snap: s, rng: srcA.state})
			return nil
		},
	}, rand.New(srcA))
	if len(marks) < 2 {
		t.Fatalf("reference run produced %d checkpoints, need at least 2", len(marks))
	}

	// Resume from every intermediate checkpoint: each must converge to the
	// identical final state, as if never interrupted.
	for i, m := range marks[:len(marks)-1] {
		srcB := &splitmix{state: m.rng}
		got := RunControlled(p, cfg, RunControl{Resume: m.snap}, rand.New(srcB))
		if got.BestFitness != ref.BestFitness {
			t.Errorf("resume from checkpoint %d (gen %d): best %v, want %v",
				i, m.snap.Generation, got.BestFitness, ref.BestFitness)
		}
		if got.Generations != ref.Generations || got.Evaluations != ref.Evaluations {
			t.Errorf("resume from gen %d: ran %d gens / %d evals, want %d / %d",
				m.snap.Generation, got.Generations, got.Evaluations, ref.Generations, ref.Evaluations)
		}
		if len(got.History) != len(ref.History) {
			t.Fatalf("resume from gen %d: history %d entries, want %d",
				m.snap.Generation, len(got.History), len(ref.History))
		}
		for g := range ref.History {
			if got.History[g] != ref.History[g] {
				t.Fatalf("resume from gen %d: history diverges at generation %d: %v != %v",
					m.snap.Generation, g+1, got.History[g], ref.History[g])
			}
		}
		for k := range ref.Best {
			if got.Best[k] != ref.Best[k] {
				t.Fatalf("resume from gen %d: best genome differs at locus %d", m.snap.Generation, k)
			}
		}
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	var snap *Snapshot
	rc := RunControl{
		CheckpointEvery: 2,
		OnCheckpoint: func(s *Snapshot) error {
			if snap == nil {
				snap = s
			}
			return nil
		},
	}
	RunControlled(oneMax{n: 6, k: 3}, Config{PopSize: 8, MaxGenerations: 20, Stagnation: 20}, rc,
		rand.New(rand.NewSource(8)))
	if snap == nil {
		t.Fatal("no checkpoint emitted")
	}
	// The engine kept running after the snapshot was taken; a shallow copy
	// would have been overwritten by later generations. Restoring from it
	// must still describe generation 2.
	if snap.Generation != 2 {
		t.Fatalf("first snapshot at generation %d, want 2", snap.Generation)
	}
	if len(snap.Population) != 8 || len(snap.Fitness) != 8 || len(snap.History) != 2 {
		t.Errorf("snapshot shapes wrong: pop=%d fit=%d hist=%d",
			len(snap.Population), len(snap.Fitness), len(snap.History))
	}
}

func TestRunControlledZeroValueMatchesRun(t *testing.T) {
	p := oneMax{n: 10, k: 3}
	cfg := Config{PopSize: 16, MaxGenerations: 40, Stagnation: 40}
	a := Run(p, cfg, rand.New(rand.NewSource(6)))
	b := RunControlled(p, cfg, RunControl{}, rand.New(rand.NewSource(6)))
	if a.BestFitness != b.BestFitness || a.Generations != b.Generations || a.Evaluations != b.Evaluations {
		t.Errorf("zero RunControl changed the run: %+v vs %+v", a, b)
	}
	if b.Partial || b.Reason != "" || b.Restarts != 0 {
		t.Errorf("zero RunControl produced control side effects: %+v", b)
	}
}
