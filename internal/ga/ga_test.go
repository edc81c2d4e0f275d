package ga

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// oneMax is a minimisation problem whose optimum is the all-max genome.
type oneMax struct{ n, k int }

func (p oneMax) GenomeLen() int  { return p.n }
func (p oneMax) Alleles(int) int { return p.k }
func (p oneMax) Fitness(g []int) float64 {
	miss := 0
	for _, v := range g {
		miss += (p.k - 1) - v
	}
	return float64(miss)
}

// trap is deceptive: locus value 0 is second best, k-1 is best, and the
// fitness couples adjacent loci so crossover matters.
type trap struct{ n int }

func (p trap) GenomeLen() int  { return p.n }
func (p trap) Alleles(int) int { return 4 }
func (p trap) Fitness(g []int) float64 {
	f := 0.0
	for i, v := range g {
		f += float64(3 - v)
		if i > 0 && g[i-1] != v {
			f += 0.5
		}
	}
	return f
}

func TestRunSolvesOneMax(t *testing.T) {
	p := oneMax{n: 20, k: 4}
	res := Run(p, Config{PopSize: 40, MaxGenerations: 200, Stagnation: 60}, rand.New(rand.NewSource(1)))
	if res.BestFitness != 0 {
		t.Errorf("best fitness = %v, want 0 (genome %v)", res.BestFitness, res.Best)
	}
	if res.Evaluations <= 0 || res.Generations <= 0 {
		t.Error("statistics must be populated")
	}
}

func TestRunSolvesCoupledTrap(t *testing.T) {
	p := trap{n: 16}
	res := Run(p, Config{PopSize: 60, MaxGenerations: 300, Stagnation: 80}, rand.New(rand.NewSource(7)))
	if res.BestFitness != 0 {
		t.Errorf("best fitness = %v, want 0", res.BestFitness)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	p := oneMax{n: 12, k: 3}
	cfg := Config{PopSize: 20, MaxGenerations: 50, Stagnation: 20}
	a := Run(p, cfg, rand.New(rand.NewSource(42)))
	b := Run(p, cfg, rand.New(rand.NewSource(42)))
	if a.BestFitness != b.BestFitness || a.Generations != b.Generations || a.Evaluations != b.Evaluations {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("best genomes differ at locus %d", i)
		}
	}
}

func TestRunStopsOnStagnation(t *testing.T) {
	// A constant fitness stagnates immediately.
	p := constProblem{n: 5}
	res := Run(p, Config{PopSize: 10, MaxGenerations: 1000, Stagnation: 7}, rand.New(rand.NewSource(3)))
	if res.Generations != 7 {
		t.Errorf("generations = %d, want exactly the stagnation limit 7", res.Generations)
	}
}

type constProblem struct{ n int }

func (p constProblem) GenomeLen() int        { return p.n }
func (p constProblem) Alleles(int) int       { return 2 }
func (p constProblem) Fitness([]int) float64 { return 1 }

func TestHistoryMonotoneNonIncreasing(t *testing.T) {
	p := oneMax{n: 15, k: 5}
	res := Run(p, Config{PopSize: 20, MaxGenerations: 100, Stagnation: 30}, rand.New(rand.NewSource(5)))
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best-so-far history increased at generation %d: %v -> %v",
				i, res.History[i-1], res.History[i])
		}
	}
}

func TestMutatorsAreApplied(t *testing.T) {
	p := oneMax{n: 10, k: 4}
	applied := 0
	perfect := func(g []int, rng *rand.Rand) bool {
		applied++
		for i := range g {
			g[i] = 3
		}
		return true
	}
	// 19 non-elite individuals over 200 generations give the mutator
	// about 76 chances at improvementRate.
	res := Run(p, Config{PopSize: 20, MaxGenerations: 200, Stagnation: 200},
		rand.New(rand.NewSource(2)), perfect)
	if applied == 0 {
		t.Fatal("mutator never ran")
	}
	if res.BestFitness != 0 {
		t.Errorf("perfect mutator must produce the optimum, got %v", res.BestFitness)
	}
}

func TestGenomesRespectAlleleBounds(t *testing.T) {
	p := boundsCheck{n: 30, t: t}
	Run(p, Config{PopSize: 16, MaxGenerations: 40, Stagnation: 15}, rand.New(rand.NewSource(9)))
}

// boundsCheck fails the test if any evaluated genome is out of range.
type boundsCheck struct {
	n int
	t *testing.T
}

func (p boundsCheck) GenomeLen() int { return p.n }
func (p boundsCheck) Alleles(i int) int {
	return 1 + i%5
}
func (p boundsCheck) Fitness(g []int) float64 {
	s := 0.0
	for i, v := range g {
		if v < 0 || v >= p.Alleles(i) {
			p.t.Fatalf("allele %d out of range at locus %d", v, i)
		}
		s += float64(v)
	}
	return s
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.PopSize != 32 || c.MaxGenerations != 200 || c.Stagnation != 40 {
		t.Errorf("unexpected defaults: %+v", c)
	}
	if got := mutationRate(100); got != 0.01 {
		t.Errorf("mutation rate = %v, want 1/genomeLen", got)
	}
	if got := mutationRate(0); got != 0.05 {
		t.Errorf("mutation rate of an empty genome = %v, want 0.05", got)
	}
	if got := c.offspring(); got != 16 {
		t.Errorf("offspring = %d, want PopSize/2", got)
	}
	if got := (Config{PopSize: 1}).WithDefaults().offspring(); got != 1 {
		t.Errorf("offspring floor = %d, want 1", got)
	}
}

func TestDiversity(t *testing.T) {
	if got := Diversity(nil); got != 0 {
		t.Errorf("empty diversity = %v", got)
	}
	g := [][]int{{1, 2}, {1, 2}, {3, 4}}
	if got := Diversity(g); got != 2.0/3.0 {
		t.Errorf("diversity = %v, want 2/3", got)
	}
	// Alleles past 16 bits and below zero are compared whole, and the
	// argument keeps its order.
	wide := [][]int{{65536}, {0}, {-1}, {65535}}
	if got := Diversity(wide); got != 1 {
		t.Errorf("diversity of four distinct wide alleles = %v, want 1", got)
	}
	if wide[0][0] != 65536 || wide[1][0] != 0 {
		t.Errorf("Diversity reordered its argument: %v", wide)
	}
}

// Property: the reported best fitness is never worse than any fitness the
// history recorded, and equals Fitness(Best).
func TestQuickBestConsistent(t *testing.T) {
	f := func(seed int64) bool {
		p := oneMax{n: 8, k: 3}
		res := Run(p, Config{PopSize: 10, MaxGenerations: 30, Stagnation: 10},
			rand.New(rand.NewSource(seed)))
		if p.Fitness(res.Best) != res.BestFitness {
			return false
		}
		for _, h := range res.History {
			if res.BestFitness > h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
