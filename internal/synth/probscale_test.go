package synth

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"momosyn/internal/ga"
	"momosyn/internal/runctl"
)

// fitnessLog records every fitness the engine asks for, in call order.
type fitnessLog struct {
	*problem
	genomes   [][]int
	fitnesses []float64
}

func (l *fitnessLog) Fitness(genome []int) float64 {
	f := l.problem.Fitness(genome)
	l.genomes = append(l.genomes, slices.Clone(genome))
	l.fitnesses = append(l.fitnesses, f)
	return f
}

// TestProbabilityScalingPin doubles every mode execution probability in
// Evaluator.Probs, which nothing validates, and runs the same GA with the
// original and the doubled vector. Doubling is exact in floating point, so
// every average power and every unlifted objective p̄·tp·areaTerm·transTerm
// must double exactly and the penalties must not move. The engine ranks
// linearly, so the trajectory must be identical: the same genomes asked
// for in the same order and the same result. Feasible fitnesses double
// exactly; infeasible ones carry the Ψ-independent lift PowerUpperBound on
// top of the doubled objective.
func TestProbabilityScalingPin(t *testing.T) {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		base := make([]float64, len(sys.App.Modes))
		doubled := make([]float64, len(sys.App.Modes))
		for m, mode := range sys.App.Modes {
			base[m] = mode.Prob
			doubled[m] = 2 * mode.Prob
		}
		ub := PowerUpperBound(sys)
		for _, useDVS := range []bool{false, true} {
			opts := streamOpts(useDVS, 1)
			run := func(probs []float64) (*fitnessLog, *ga.Result, *Evaluator) {
				eval := opts.newEvaluator(sys, probs)
				log := &fitnessLog{problem: &problem{codec: codec, eval: eval, cache: newFitnessCache[float64]()}}
				mutators := []ga.Mutator{codec.ShutdownMutation(), codec.AreaMutation(), codec.TimingMutation(), codec.TransitionMutation()}
				res := ga.Run(log, opts.GA, rand.New(runctl.NewSource(opts.Seed)), mutators...)
				return log, res, eval
			}
			logA, resA, evalA := run(base)
			logB, resB, evalB := run(doubled)

			if !slices.EqualFunc(logA.genomes, logB.genomes, slices.Equal) {
				t.Fatalf("%s dvs=%v: doubling Ψ changed the sequence of evaluated genomes", name, useDVS)
			}
			if !slices.Equal(resA.Best, resB.Best) || resA.Generations != resB.Generations || resA.Evaluations != resB.Evaluations {
				t.Fatalf("%s dvs=%v: doubling Ψ changed the GA result (gens %d/%d, evals %d/%d)",
					name, useDVS, resA.Generations, resB.Generations, resA.Evaluations, resB.Evaluations)
			}
			checked := make(map[string]bool)
			for i, genome := range logA.genomes {
				key := codec.Key(genome)
				if checked[key] {
					continue
				}
				checked[key] = true
				a, err := evalA.Evaluate(codec.Decode(genome))
				if err != nil {
					t.Fatal(err)
				}
				b, err := evalB.Evaluate(codec.Decode(genome))
				if err != nil {
					t.Fatal(err)
				}
				objA := a.AvgPower * a.TimingPenalty * a.AreaPenalty * a.TransPenalty
				objB := b.AvgPower * b.TimingPenalty * b.AreaPenalty * b.TransPenalty
				switch {
				case !same(b.AvgPower, 2*a.AvgPower):
					t.Fatalf("%s dvs=%v eval %d: power %v, want exactly 2×%v", name, useDVS, i, b.AvgPower, a.AvgPower)
				case !same(a.TimingPenalty, b.TimingPenalty) || !same(a.AreaPenalty, b.AreaPenalty) || !same(a.TransPenalty, b.TransPenalty):
					t.Fatalf("%s dvs=%v eval %d: penalties moved with Ψ", name, useDVS, i)
				case !same(objB, 2*objA):
					t.Fatalf("%s dvs=%v eval %d: objective %v, want exactly 2×%v", name, useDVS, i, objB, objA)
				case a.Feasible() != b.Feasible():
					t.Fatalf("%s dvs=%v eval %d: feasibility moved with Ψ", name, useDVS, i)
				case a.Feasible() && !same(logB.fitnesses[i], 2*logA.fitnesses[i]):
					t.Fatalf("%s dvs=%v eval %d: feasible fitness %v, want exactly 2×%v", name, useDVS, i, logB.fitnesses[i], logA.fitnesses[i])
				case !a.Feasible() && !same(logB.fitnesses[i], objB+ub):
					t.Fatalf("%s dvs=%v eval %d: infeasible fitness %v, want %v + lift %v", name, useDVS, i, logB.fitnesses[i], objB, ub)
				}
			}
		}
	}
}
