package ga

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestOnGenerationObserverIsPassive: attaching an observer must not change
// the search trajectory — it runs outside the engine's random stream.
func TestOnGenerationObserverIsPassive(t *testing.T) {
	p := trap{n: 12}
	cfg := Config{PopSize: 24, MaxGenerations: 60, Stagnation: 30}
	plain := Run(p, cfg, rand.New(rand.NewSource(11)))

	var stats []GenerationStats
	observed := RunControlled(p, cfg, RunControl{
		OnGeneration: func(s GenerationStats) { stats = append(stats, s) },
	}, rand.New(rand.NewSource(11)))

	if plain.BestFitness != observed.BestFitness ||
		plain.Generations != observed.Generations ||
		plain.Evaluations != observed.Evaluations {
		t.Errorf("observer changed the run: %+v vs %+v", plain, observed)
	}
	if len(stats) != observed.Generations {
		t.Fatalf("observer saw %d generations, run reports %d", len(stats), observed.Generations)
	}
	for i, s := range stats {
		if s.Generation != i+1 {
			t.Fatalf("generation numbers not sequential: stats[%d].Generation = %d", i, s.Generation)
		}
		if s.BestFitness != observed.History[i] {
			t.Errorf("gen %d: observed best %v, history records %v", s.Generation, s.BestFitness, observed.History[i])
		}
		if s.Diversity < 0 || s.Diversity > 1 {
			t.Errorf("gen %d: diversity %v outside [0,1]", s.Generation, s.Diversity)
		}
		if s.MeanFitness < s.BestFitness {
			t.Errorf("gen %d: mean fitness %v below best %v", s.Generation, s.MeanFitness, s.BestFitness)
		}
	}
}

// infeasibleProblem marks genomes with a leading 1 as infeasible (+Inf).
type infeasibleProblem struct{ n int }

func (p infeasibleProblem) GenomeLen() int  { return p.n }
func (p infeasibleProblem) Alleles(int) int { return 2 }
func (p infeasibleProblem) Fitness(g []int) float64 {
	if g[0] == 1 {
		return math.Inf(1)
	}
	f := 0.0
	for _, v := range g {
		f += float64(v)
	}
	return f
}

// TestMeanFitnessExcludesInfeasible: the reported mean averages only the
// finite fitnesses and counts the rest as Infeasible.
func TestMeanFitnessExcludesInfeasible(t *testing.T) {
	var last GenerationStats
	RunControlled(infeasibleProblem{n: 6}, Config{PopSize: 16, MaxGenerations: 10, Stagnation: 10},
		RunControl{OnGeneration: func(s GenerationStats) { last = s }},
		rand.New(rand.NewSource(4)))
	if last.Generation == 0 {
		t.Fatal("observer never ran")
	}
	if math.IsInf(last.MeanFitness, 0) || math.IsNaN(last.MeanFitness) {
		t.Errorf("mean fitness %v not finite despite feasible individuals", last.MeanFitness)
	}
	if last.Infeasible < 0 || last.Infeasible > 16 {
		t.Errorf("infeasible count %d outside the population", last.Infeasible)
	}
}

// TestMutatorStatsAreConsistent: per-operator counters obey
// Improved <= Accepted <= Attempts and reflect actual invocations.
func TestMutatorStatsAreConsistent(t *testing.T) {
	p := oneMax{n: 10, k: 4}
	alwaysChange := func(g []int, rng *rand.Rand) bool {
		g[rng.Intn(len(g))] = rng.Intn(4)
		return true
	}
	neverChange := func(g []int, rng *rand.Rand) bool { return false }
	// 11 non-elite individuals over 200 generations give each mutator
	// about 44 attempts at improvementRate.
	res := Run(p, Config{PopSize: 12, MaxGenerations: 200, Stagnation: 200},
		rand.New(rand.NewSource(9)), alwaysChange, neverChange)
	if len(res.Mutators) != 2 {
		t.Fatalf("got stats for %d mutators, want 2", len(res.Mutators))
	}
	for i, m := range res.Mutators {
		if m.Attempts == 0 {
			t.Errorf("mutator %d never attempted in 200 generations", i)
		}
		if m.Accepted > m.Attempts || m.Improved > m.Accepted {
			t.Errorf("mutator %d counters inconsistent: %+v", i, m)
		}
	}
	if res.Mutators[0].Accepted != res.Mutators[0].Attempts {
		t.Errorf("always-changing mutator accepted %d of %d attempts",
			res.Mutators[0].Accepted, res.Mutators[0].Attempts)
	}
	if res.Mutators[1].Accepted != 0 {
		t.Errorf("never-changing mutator reports %d acceptances", res.Mutators[1].Accepted)
	}
}

// TestMutatorStatsSurviveResume: checkpointed runs carry the cumulative
// per-operator counters, so a resumed run's final stats equal the
// uninterrupted run's.
func TestMutatorStatsSurviveResume(t *testing.T) {
	p := trap{n: 10}
	cfg := Config{PopSize: 16, MaxGenerations: 200, Stagnation: 200}
	mut := func(g []int, rng *rand.Rand) bool {
		i := rng.Intn(len(g))
		if g[i] != 3 {
			g[i] = 3
			return true
		}
		return false
	}

	type mark struct {
		snap *Snapshot
		rng  uint64
	}
	var marks []mark
	src := &splitmix{}
	src.Seed(23)
	ref := RunControlled(p, cfg, RunControl{
		CheckpointEvery: 5,
		OnCheckpoint: func(s *Snapshot) error {
			marks = append(marks, mark{snap: s, rng: src.state})
			return nil
		},
	}, rand.New(src), mut)
	if len(marks) < 2 {
		t.Fatalf("reference run produced %d checkpoints, need at least 2", len(marks))
	}
	m := marks[0]
	if len(m.snap.MutStats) != 1 {
		t.Fatalf("checkpoint carries %d mutator stats, want 1", len(m.snap.MutStats))
	}

	resumed := RunControlled(p, cfg, RunControl{Resume: m.snap},
		rand.New(&splitmix{state: m.rng}), mut)
	if !reflect.DeepEqual(resumed.Mutators, ref.Mutators) {
		t.Errorf("resumed mutator stats %+v, uninterrupted run had %+v", resumed.Mutators, ref.Mutators)
	}
}
