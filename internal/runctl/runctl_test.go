package runctl

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"momosyn/internal/ga"
	"momosyn/internal/obs"
)

func TestSourceDeterministicAndRestorable(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("equal seeds diverged at draw %d", i)
		}
	}
	if c := NewSource(43); c.Uint64() == NewSource(42).Uint64() {
		t.Error("neighbouring seeds produced the same first draw")
	}

	// State/Restore must resume the exact stream position.
	a.Uint64()
	state := a.State()
	want := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}
	a.Restore(state)
	for i, w := range want {
		if got := a.Uint64(); got != w {
			t.Fatalf("restored stream diverged at draw %d: %d != %d", i, got, w)
		}
	}
}

func TestSourceDrivesMathRand(t *testing.T) {
	// The source must satisfy rand.Source64 and survive a round-trip
	// through rand.New without the wrapper keeping hidden state that a
	// Restore would miss.
	src := NewSource(7)
	rng := rand.New(src)
	rng.Intn(10)
	rng.Float64()
	state := src.State()
	want := []int{rng.Intn(1000), rng.Intn(1000), rng.Intn(1000)}
	src.Restore(state)
	rng2 := rand.New(src)
	for i, w := range want {
		if got := rng2.Intn(1000); got != w {
			t.Fatalf("rand.Rand over restored source diverged at draw %d: %d != %d", i, got, w)
		}
	}
}

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		System:      "demo",
		GenomeLen:   3,
		Seed:        11,
		Fingerprint: "opts",
		RNGState:    0xDEADBEEF,
		Snapshot: ga.Snapshot{
			Generation:  7,
			Stagnant:    2,
			Evaluations: 99,
			Restarts:    1,
			Population:  [][]int{{0, 1, 2}, {2, 1, 0}},
			Fitness:     []float64{1.5, math.Inf(1)}, // +Inf must survive encoding
			BestGenome:  []int{0, 1, 2},
			BestFitness: 1.5,
			History:     []float64{3, 2, 1.5},
			MutStats:    []ga.MutatorStats{{Attempts: 12, Accepted: 5, Improved: 2}},
		},
		Cache:  CacheCounters{Hits: 10, Misses: 5, Evictions: 1, Entries: 4, Capacity: 8},
		Faults: []EvalFault{{Genome: []int{9, 9, 9}, Err: "boom", Stack: "stack", Attempts: 2}},
		Metrics: []obs.MetricState{
			{Name: "synth.evaluations", Kind: "counter", Value: 99},
			{Name: "ga.mean_fitness", Kind: "gauge", Value: math.Inf(1)}, // +Inf must survive gob
			{Name: "synth.phase_seconds.dvs", Kind: "histogram", Count: 3, Sum: 0.25,
				Bounds: []float64{0.1, 1}, Counts: []uint64{2, 1, 0}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp := testCheckpoint()
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.SavedAt.IsZero() {
		t.Errorf("Save must stamp version and time: %+v", got)
	}
	if got.System != cp.System || got.Seed != cp.Seed || got.Fingerprint != cp.Fingerprint ||
		got.GenomeLen != cp.GenomeLen || got.RNGState != cp.RNGState {
		t.Errorf("identity fields mismatch: %+v", got)
	}
	s, w := got.Snapshot, cp.Snapshot
	if s.Generation != w.Generation || s.Stagnant != w.Stagnant || s.Evaluations != w.Evaluations ||
		s.Restarts != w.Restarts || s.BestFitness != w.BestFitness || len(s.Population) != 2 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
	if !math.IsInf(s.Fitness[1], 1) {
		t.Errorf("infinite fitness did not survive the round trip: %v", s.Fitness)
	}
	if got.Cache != cp.Cache {
		t.Errorf("cache counters mismatch: %+v", got.Cache)
	}
	if len(got.Faults) != 1 || got.Faults[0].Err != "boom" {
		t.Errorf("faults mismatch: %+v", got.Faults)
	}
	if len(s.MutStats) != 1 || s.MutStats[0] != w.MutStats[0] {
		t.Errorf("mutator stats mismatch: %+v", s.MutStats)
	}
	if len(got.Metrics) != 3 {
		t.Fatalf("metric state mismatch: %+v", got.Metrics)
	}
	if !math.IsInf(got.Metrics[1].Value, 1) {
		t.Errorf("infinite gauge did not survive the round trip: %+v", got.Metrics[1])
	}
	// Restoring the carried state must reproduce the totals.
	reg := obs.NewRegistry()
	reg.Restore(got.Metrics)
	if v := reg.Counter("synth.evaluations").Value(); v != 99 {
		t.Errorf("restored counter = %d, want 99", v)
	}
	if h := reg.Histogram("synth.phase_seconds.dvs", nil); h.Count() != 3 {
		t.Errorf("restored histogram count = %d, want 3", h.Count())
	}
}

func TestCheckpointAtomicOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp := testCheckpoint()
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	cp2 := testCheckpoint()
	cp2.Snapshot.Generation = 20
	if err := Save(path, cp2); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Snapshot.Generation != 20 {
		t.Errorf("second save not visible: generation %d", got.Snapshot.Generation)
	}
	// No temporary files may be left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("stray files after save: %v", entries)
	}
}

func TestLoadRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := map[string]string{
		"missing":    filepath.Join(dir, "nope.ckpt"),
		"empty":      write("empty", nil),
		"garbage":    write("garbage", []byte("this is not a checkpoint at all")),
		"truncated":  write("trunc", []byte(magic[:4])),
		"bad magic":  write("badmagic", append([]byte("XXXXX-XXXX\x01"), 1, 2, 3)),
		"badversion": write("badver", append([]byte(magic[:len(magic)-1]+"\x63"), 1, 2, 3)),
		"cutbody":    write("cutbody", []byte(magic)),
	}
	for name, p := range cases {
		if _, err := Load(p); err == nil {
			t.Errorf("%s: Load accepted an invalid file", name)
		}
	}
	// A valid checkpoint with an empty population is also rejected: it
	// cannot seed a resume.
	cp := testCheckpoint()
	cp.Snapshot.Population = nil
	p := filepath.Join(dir, "emptypop")
	if err := Save(p, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(p); err == nil || !strings.Contains(err.Error(), "empty population") {
		t.Errorf("empty population not rejected: %v", err)
	}
}

func TestSaveFailsCleanlyOnBadDirectory(t *testing.T) {
	err := Save(filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt"), testCheckpoint())
	if err == nil {
		t.Fatal("Save into a missing directory must fail")
	}
}

// panicky panics for genomes whose first allele is poison, counting calls.
type panicky struct {
	poison int
	calls  int
}

func (p *panicky) GenomeLen() int  { return 3 }
func (p *panicky) Alleles(int) int { return 10 }
func (p *panicky) Fitness(g []int) float64 {
	p.calls++
	if g[0] == p.poison {
		panic("poisoned genome")
	}
	return float64(g[0])
}

func TestGuardContainsPanics(t *testing.T) {
	inner := &panicky{poison: 5}
	g := NewGuard(inner, GuardConfig{})
	if got := g.Fitness([]int{1, 0, 0}); got != 1 {
		t.Fatalf("healthy genome fitness = %v, want 1", got)
	}
	if got := g.Fitness([]int{5, 0, 0}); !math.IsInf(got, 1) {
		t.Fatalf("poisoned genome fitness = %v, want +Inf", got)
	}
	faults := g.Faults()
	if len(faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(faults))
	}
	f := faults[0]
	if f.Err != "poisoned genome" || f.Attempts != 2 || len(f.Genome) != 3 || f.Genome[0] != 5 {
		t.Errorf("fault = %+v", f)
	}
	if f.Stack == "" || !strings.Contains(f.Stack, "Fitness") {
		t.Errorf("fault stack missing the evaluation frame:\n%s", f.Stack)
	}
	// Known-bad genomes are memoised: no further evaluation attempts.
	calls := inner.calls
	if got := g.Fitness([]int{5, 0, 0}); !math.IsInf(got, 1) {
		t.Fatalf("memoised bad genome fitness = %v", got)
	}
	if inner.calls != calls {
		t.Errorf("bad genome re-evaluated %d times after being marked", inner.calls-calls)
	}
	if len(g.Faults()) != 1 {
		t.Errorf("repeated lookups must not duplicate faults: %d", len(g.Faults()))
	}
}

// TestGuardFitnessAllocFree pins the clean path of the barrier: while no
// genome is marked bad, a guarded fitness call allocates nothing, and once
// one is, probing a healthy genome still does not.
func TestGuardFitnessAllocFree(t *testing.T) {
	inner := &panicky{poison: 5}
	g := NewGuard(inner, GuardConfig{})
	healthy := []int{1, 0, 0}
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Fitness(healthy) }); allocs != 0 {
		t.Errorf("clean Guard.Fitness allocates %.2f times per call", allocs)
	}
	_ = g.Fitness([]int{5, 0, 0})
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Fitness(healthy) }); allocs != 0 {
		t.Errorf("Guard.Fitness with a bad genome on record allocates %.2f times per call", allocs)
	}
	if got := g.Fitness(healthy); got != 1 {
		t.Errorf("healthy genome fitness = %v, want 1", got)
	}
}

func TestGuardRetrySucceedsWithoutFault(t *testing.T) {
	// A genome that panics once and then evaluates cleanly is an
	// environmental fluke: the retry covers it and no fault is recorded.
	first := true
	inner := &flaky{fail: func() bool { f := first; first = false; return f }}
	g := NewGuard(inner, GuardConfig{})
	if got := g.Fitness([]int{2, 0, 0}); got != 2 {
		t.Fatalf("fitness after retry = %v, want 2", got)
	}
	if len(g.Faults()) != 0 {
		t.Errorf("successful retry recorded a fault: %+v", g.Faults())
	}
}

type flaky struct{ fail func() bool }

func (p *flaky) GenomeLen() int  { return 3 }
func (p *flaky) Alleles(int) int { return 10 }
func (p *flaky) Fitness(g []int) float64 {
	if p.fail() {
		panic("transient")
	}
	return float64(g[0])
}

func TestGuardFaultBudget(t *testing.T) {
	inner := &panicky{poison: -1} // nothing is poisoned...
	g := NewGuard(inner, GuardConfig{FaultBudget: 2, OnBudgetExceeded: nil})
	var fired []error
	g.cfg.OnBudgetExceeded = func(err error) { fired = append(fired, err) }
	inner.poison = 0 // ...until every genome starting with 0 is
	for i := 0; i < 5; i++ {
		g.Fitness([]int{0, i, 0}) // five distinct faulting genomes
	}
	if len(fired) != 1 {
		t.Fatalf("OnBudgetExceeded fired %d times, want exactly once", len(fired))
	}
	if !strings.Contains(fired[0].Error(), "fault budget exceeded") {
		t.Errorf("budget error = %v", fired[0])
	}
	if len(g.Faults()) != 5 {
		t.Errorf("faults = %d, want 5 (recording continues past the budget)", len(g.Faults()))
	}
}

func TestGuardRestore(t *testing.T) {
	inner := &panicky{poison: 5}
	g := NewGuard(inner, GuardConfig{})
	g.Restore([]EvalFault{{Genome: []int{7, 0, 0}, Err: "old", Attempts: 2}})
	calls := inner.calls
	if got := g.Fitness([]int{7, 0, 0}); !math.IsInf(got, 1) {
		t.Fatalf("restored bad genome fitness = %v, want +Inf", got)
	}
	if inner.calls != calls {
		t.Error("restored bad genome was re-evaluated")
	}
	if len(g.Faults()) != 1 {
		t.Errorf("faults = %d, want the restored one", len(g.Faults()))
	}
}

func TestGuardWriteReport(t *testing.T) {
	inner := &panicky{poison: 5}
	g := NewGuard(inner, GuardConfig{})
	var sb strings.Builder
	g.WriteReport(&sb)
	if sb.Len() != 0 {
		t.Errorf("fault-free report must be empty, got %q", sb.String())
	}
	g.Fitness([]int{5, 1, 2})
	g.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{"1 genome(s) panicked", "[5 1 2]", "poisoned genome"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCacheCountersHitRate(t *testing.T) {
	if r := (CacheCounters{}).HitRate(); r != 0 {
		t.Errorf("zero counters hit rate = %v", r)
	}
	if r := (CacheCounters{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", r)
	}
}

func TestSaveStampsTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.ckpt")
	before := time.Now().Add(-time.Second)
	cp := testCheckpoint()
	if err := Save(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SavedAt.Before(before) {
		t.Errorf("SavedAt = %v, want recent", got.SavedAt)
	}
}
