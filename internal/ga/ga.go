// Package ga provides the genetic-algorithm engine driving the outer
// optimisation loop of the multi-mode co-synthesis: a steady-state GA over
// integer strings with linear-rank fitness scaling, tournament mating
// selection, two-point crossover, offspring insertion, allele mutation and
// pluggable problem-specific improvement mutations (paper Fig. 4).
//
// Fitness is minimised. All randomness flows through an injected
// *rand.Rand, so runs are reproducible given a seed.
package ga

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
)

// Problem defines the search space and objective. Genomes are integer
// strings; locus i takes alleles in [0, Alleles(i)).
type Problem interface {
	// GenomeLen returns the number of loci.
	GenomeLen() int
	// Alleles returns the number of admissible alleles at locus i (>= 1).
	Alleles(i int) int
	// Fitness evaluates a genome; lower is better. It must be
	// deterministic for a given genome.
	Fitness(genome []int) float64
}

// Mutator is a problem-specific improvement operator. It may rewrite the
// genome in place and reports whether it changed anything (triggering
// re-evaluation). The engine decides which individuals to pass in.
type Mutator func(genome []int, rng *rand.Rand) bool

// Config sizes the engine's budget. Zero (or negative) values select the
// defaults noted per field, which WithDefaults fills in. The operator
// settings are fixed at the paper's Fig. 4 values: linear ranking at 1.8,
// mating tournaments of 2, PopSize/2 offspring (at least one) per
// generation, a per-locus mutation rate of 1/GenomeLen and an improvement
// probability of 0.02 per mutator and individual.
type Config struct {
	// PopSize is the population size (default 32).
	PopSize int
	// MaxGenerations bounds the run (default 200).
	MaxGenerations int
	// Stagnation stops the run after this many generations without
	// improvement of the best individual (default 40), the paper's
	// convergence criterion of elapsed iterations without an improved
	// individual.
	Stagnation int
}

const (
	// selectionPressure sets the linear-ranking slope: the best individual
	// is picked selectionPressure times more often than the median.
	selectionPressure = 1.8
	// tournamentSize is the mating tournament size.
	tournamentSize = 2
	// improvementRate is the probability that each improvement mutator is
	// applied to each non-elite individual per generation (the paper's
	// shut-down strategy, scaled by population size).
	improvementRate = 0.02
)

// WithDefaults returns c with every unset budget field replaced by the
// engine default. Run applies it, so a caller that keys or displays a
// budget applies it first to name the budget the engine will run.
func (c Config) WithDefaults() Config {
	if c.PopSize <= 0 {
		c.PopSize = 32
	}
	if c.MaxGenerations <= 0 {
		c.MaxGenerations = 200
	}
	if c.Stagnation <= 0 {
		c.Stagnation = 40
	}
	return c
}

// offspring is the number of children produced and inserted per
// generation: half the population, at least one.
func (c Config) offspring() int {
	return max(c.PopSize/2, 1)
}

// mutationRate is the per-locus probability of a random allele change
// applied to offspring: 1/genomeLen (0.05 for an empty genome).
func mutationRate(genomeLen int) float64 {
	if genomeLen > 0 {
		return 1 / float64(genomeLen)
	}
	return 0.05
}

// MutatorStats is the cumulative effectiveness record of one improvement
// mutator, indexed like the mutators passed to Run: Attempts counts
// invocations, Accepted counts invocations that changed the genome, and
// Improved counts changes that lowered the individual's fitness.
type MutatorStats struct {
	Attempts int
	Accepted int
	Improved int
}

// GenerationStats is the engine state reported to RunControl.OnGeneration
// after each completed generation. Everything is a copy; observers may
// retain it.
type GenerationStats struct {
	// Generation is the 1-based number of the generation just completed.
	Generation  int
	Stagnant    int
	Evaluations int
	Restarts    int
	// BestFitness is the best-so-far fitness; BestGenome is a copy of that
	// individual.
	BestFitness float64
	BestGenome  []int
	// MeanFitness averages the finite fitnesses of the population (+Inf when
	// every individual is infeasible); Infeasible counts the non-finite ones.
	MeanFitness float64
	Infeasible  int
	// Diversity is the fraction of distinct genomes in the population.
	Diversity float64
	// Mutators are the cumulative per-operator improvement-mutation stats,
	// in the order the mutators were passed to the engine.
	Mutators []MutatorStats
}

// Result reports the outcome of a run.
type Result struct {
	Best        []int
	BestFitness float64
	Generations int
	Evaluations int
	// History records the best fitness after every generation.
	History []float64
	// Mutators holds the final per-operator improvement-mutation stats, in
	// the order the mutators were passed in.
	Mutators []MutatorStats
	// Partial is set when the run stopped before its own termination
	// criteria: the context was cancelled, its deadline passed, or a
	// checkpoint write failed. Best is then the best-so-far individual.
	Partial bool
	// Reason explains why a partial run stopped ("canceled", "deadline
	// exceeded", a fault-budget message, ...). Empty for complete runs.
	Reason string
	// Restarts counts stall-watchdog diversity injections (see
	// RunControl.StallWindow).
	Restarts int
}

// Snapshot captures the resumable engine state at a generation boundary.
// It is deep-copied from the engine, so holding one across generations is
// safe. Population order is best-first (the engine keeps it sorted).
type Snapshot struct {
	// Generation is the number of generations completed.
	Generation int
	// Stagnant is the convergence counter (generations without
	// improvement of the best individual).
	Stagnant    int
	Evaluations int
	Restarts    int
	Population  [][]int
	Fitness     []float64
	BestGenome  []int
	BestFitness float64
	History     []float64
	// MutStats carries the cumulative per-operator improvement-mutation
	// stats across a resume, so convergence traces continue seamlessly.
	// May be shorter than the mutator list of the resumed run (older
	// checkpoints): missing entries restart at zero.
	MutStats []MutatorStats
}

// RunControl adds run-control behaviour to a run without changing Config
// semantics: cancellation, checkpoint emission, resume, and a stall
// watchdog. The zero value is a plain uncontrolled run.
type RunControl struct {
	// Context, when non-nil, is polled at every generation boundary; on
	// cancellation or deadline the run stops and returns the best-so-far
	// result with Partial set — never an error, never a lost run.
	Context context.Context
	// Resume, when non-nil, restores the engine from the snapshot instead
	// of initialising a fresh population. The caller must pass the same
	// Problem, Config and random stream position for the resumed run to
	// reproduce the uninterrupted one.
	Resume *Snapshot
	// CheckpointEvery emits a snapshot through OnCheckpoint every that
	// many generations (0 disables checkpointing). A final snapshot is
	// also emitted when the run stops, whatever the reason.
	CheckpointEvery int
	// OnCheckpoint persists a snapshot. A returned error stops the run at
	// this boundary with Partial set, so a full disk cannot silently run
	// on unprotected.
	OnCheckpoint func(*Snapshot) error
	// StallWindow, when positive, arms the stall watchdog: after that many
	// consecutive generations without improvement (and before the
	// Stagnation criterion ends the run) the worst half of the population
	// is re-randomised to re-inject diversity. It fires again every
	// further StallWindow stalled generations.
	StallWindow int
	// OnGeneration, when non-nil, observes the engine after every completed
	// generation. It must only read: the stats are copies, and the observer
	// runs outside the engine's random stream, so attaching one never
	// changes the search trajectory.
	OnGeneration func(GenerationStats)
}

type individual struct {
	genome  []int
	fitness float64
}

type engine struct {
	p        Problem
	cfg      Config
	rate     float64 // mutationRate of the genome length
	rng      *rand.Rand
	muts     []Mutator
	pop      []individual
	evals    int
	mutStats []MutatorStats
	// spare holds the genomes of replaced individuals, which the next
	// generation's children are bred into instead of fresh slices.
	spare [][]int
	// genomes is diversity's scratch: the population's genomes, sorted.
	genomes [][]int
}

// Run executes the GA and returns the best genome found. Improvement
// mutators are applied, each with probability improvementRate per
// individual per generation, to non-elite individuals.
func Run(p Problem, cfg Config, rng *rand.Rand, mutators ...Mutator) *Result {
	return RunControlled(p, cfg, RunControl{}, rng, mutators...)
}

// RunControlled executes the GA under the given run control: it polls the
// context at generation boundaries, emits checkpoints, optionally resumes
// from a snapshot, and runs the stall watchdog. With a zero RunControl it
// behaves exactly like Run, consuming the identical random stream.
func RunControlled(p Problem, cfg Config, rc RunControl, rng *rand.Rand, mutators ...Mutator) *Result {
	cfg = cfg.WithDefaults()
	ctx := rc.Context
	if ctx == nil {
		ctx = context.Background()
	}
	e := &engine{p: p, cfg: cfg, rate: mutationRate(p.GenomeLen()), rng: rng, muts: mutators}
	e.mutStats = make([]MutatorStats, len(mutators))

	res := &Result{}
	var best individual
	stagnant := 0
	gen := 0
	if rc.Resume != nil && len(rc.Resume.Population) > 0 {
		e.restore(rc.Resume)
		gen = rc.Resume.Generation
		stagnant = rc.Resume.Stagnant
		best = individual{
			genome:  append([]int(nil), rc.Resume.BestGenome...),
			fitness: rc.Resume.BestFitness,
		}
		res.History = append(res.History, rc.Resume.History...)
		res.Restarts = rc.Resume.Restarts
	} else {
		e.initPopulation()
		best = e.cloneBest()
	}

	lastCheckpoint := -1
	for ; gen < cfg.MaxGenerations && stagnant < cfg.Stagnation; gen++ {
		if err := ctx.Err(); err != nil {
			res.Partial = true
			res.Reason = cancelReason(ctx)
			break
		}
		e.generation()
		// best's genome is the run's own copy; nothing else holds it.
		if top := e.pop[0]; top.fitness < best.fitness-1e-15 {
			best.genome = append(best.genome[:0], top.genome...)
			best.fitness = top.fitness
			stagnant = 0
		} else {
			stagnant++
		}
		res.History = append(res.History, best.fitness)
		if rc.StallWindow > 0 && stagnant > 0 && stagnant%rc.StallWindow == 0 && stagnant < cfg.Stagnation {
			e.injectDiversity()
			res.Restarts++
		}
		if rc.OnGeneration != nil {
			rc.OnGeneration(e.generationStats(gen+1, stagnant, best, res))
		}
		if rc.CheckpointEvery > 0 && rc.OnCheckpoint != nil && (gen+1)%rc.CheckpointEvery == 0 {
			lastCheckpoint = gen + 1
			if err := rc.OnCheckpoint(e.snapshot(gen+1, stagnant, best, res)); err != nil {
				res.Partial = true
				res.Reason = "checkpoint failed: " + err.Error()
				gen++
				break
			}
		}
	}
	res.Best = best.genome
	res.BestFitness = best.fitness
	res.Generations = gen
	res.Evaluations = e.evals
	if len(e.mutStats) > 0 {
		res.Mutators = append([]MutatorStats(nil), e.mutStats...)
	}
	// A closing checkpoint captures the exact stop state, whatever ended
	// the run, so a resume continues from the last completed generation.
	if rc.OnCheckpoint != nil && rc.CheckpointEvery > 0 && gen != lastCheckpoint {
		if err := rc.OnCheckpoint(e.snapshot(gen, stagnant, best, res)); err != nil && !res.Partial {
			res.Partial = true
			res.Reason = "checkpoint failed: " + err.Error()
		}
	}
	return res
}

// cancelReason renders the context's cancellation cause for Result.Reason.
func cancelReason(ctx context.Context) string {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, context.DeadlineExceeded):
		return "deadline exceeded"
	case cause == nil, errors.Is(cause, context.Canceled):
		return "canceled"
	default:
		return cause.Error()
	}
}

// genomeSpace is the search space Problem and MultiProblem share: integer
// strings whose locus i takes alleles in [0, Alleles(i)).
type genomeSpace interface {
	GenomeLen() int
	Alleles(i int) int
}

// randomGenome draws a genome uniformly over the space. It, crossover and
// mutate are the genetic operators of both Run and RunNSGA2.
func randomGenome(s genomeSpace, rng *rand.Rand) []int {
	g := make([]int, s.GenomeLen())
	for i := range g {
		g[i] = rng.Intn(s.Alleles(i))
	}
	return g
}

// crossover performs two-point crossover of the parents into child's
// storage (nil allocates; it must not alias a parent), returning one child
// (the second is implicitly explored by later generations).
func crossover(child, a, b []int, rng *rand.Rand) []int {
	n := len(a)
	child = append(child[:0], a...)
	if n < 2 {
		return child
	}
	p1, p2 := rng.Intn(n), rng.Intn(n)
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	copy(child[p1:p2+1], b[p1:p2+1])
	return child
}

// mutate re-draws each gene with probability rate, in place.
//
//mm:noalloc
func mutate(s genomeSpace, g []int, rate float64, rng *rand.Rand) {
	for i := range g {
		if rng.Float64() < rate {
			g[i] = rng.Intn(s.Alleles(i))
		}
	}
}

func (e *engine) eval(g []int) float64 {
	e.evals++
	return e.p.Fitness(g)
}

func (e *engine) initPopulation() {
	e.pop = make([]individual, e.cfg.PopSize)
	for i := range e.pop {
		g := randomGenome(e.p, e.rng)
		e.pop[i] = individual{genome: g, fitness: e.eval(g)}
	}
	e.sortPop()
}

// snapshot deep-copies the engine state after `gen` completed generations.
func (e *engine) snapshot(gen, stagnant int, best individual, res *Result) *Snapshot {
	s := &Snapshot{
		Generation:  gen,
		Stagnant:    stagnant,
		Evaluations: e.evals,
		Restarts:    res.Restarts,
		BestGenome:  append([]int(nil), best.genome...),
		BestFitness: best.fitness,
		History:     append([]float64(nil), res.History...),
		Population:  make([][]int, len(e.pop)),
		Fitness:     make([]float64, len(e.pop)),
	}
	for i, ind := range e.pop {
		s.Population[i] = append([]int(nil), ind.genome...)
		s.Fitness[i] = ind.fitness
	}
	if len(e.mutStats) > 0 {
		s.MutStats = append([]MutatorStats(nil), e.mutStats...)
	}
	return s
}

// restore loads a snapshot's population without re-evaluating it.
func (e *engine) restore(s *Snapshot) {
	e.pop = make([]individual, len(s.Population))
	for i := range s.Population {
		e.pop[i] = individual{
			genome:  append([]int(nil), s.Population[i]...),
			fitness: s.Fitness[i],
		}
	}
	e.evals = s.Evaluations
	// Carry over as many per-mutator stats as both sides know about; an
	// older checkpoint without them restarts the counters at zero.
	for i := 0; i < len(e.mutStats) && i < len(s.MutStats); i++ {
		e.mutStats[i] = s.MutStats[i]
	}
	e.sortPop()
}

// generationStats assembles the observer report for the generation just
// completed. Everything it touches is already computed or copied, so the
// observer cannot perturb the search.
func (e *engine) generationStats(gen, stagnant int, best individual, res *Result) GenerationStats {
	sum := 0.0
	finite := 0
	for _, ind := range e.pop {
		if !math.IsInf(ind.fitness, 0) && !math.IsNaN(ind.fitness) {
			sum += ind.fitness
			finite++
		}
	}
	mean := math.Inf(1)
	if finite > 0 {
		mean = sum / float64(finite)
	}
	return GenerationStats{
		Generation:  gen,
		Stagnant:    stagnant,
		Evaluations: e.evals,
		Restarts:    res.Restarts,
		BestFitness: best.fitness,
		BestGenome:  append([]int(nil), best.genome...),
		MeanFitness: mean,
		Infeasible:  len(e.pop) - finite,
		Diversity:   e.diversity(),
		Mutators:    append([]MutatorStats(nil), e.mutStats...),
	}
}

// injectDiversity re-randomises the worst half of the population (the
// stall-watchdog restart), keeping the elite half intact so the best-so-far
// trajectory never regresses.
func (e *engine) injectDiversity() {
	for i := len(e.pop) / 2; i < len(e.pop); i++ {
		g := randomGenome(e.p, e.rng)
		e.pop[i] = individual{genome: g, fitness: e.eval(g)}
	}
	e.sortPop()
}

// sortPop orders the population best-first (ascending fitness) with a
// stable sort, so ties keep their order and the result is deterministic.
func (e *engine) sortPop() {
	slices.SortStableFunc(e.pop, func(a, b individual) int {
		switch {
		case a.fitness < b.fitness:
			return -1
		case b.fitness < a.fitness:
			return 1
		}
		return 0
	})
}

func (e *engine) cloneBest() individual {
	b := e.pop[0]
	return individual{genome: append([]int(nil), b.genome...), fitness: b.fitness}
}

// rankWeights returns linear-ranking selection weights, best first.
func (e *engine) rankWeights() []float64 {
	n := len(e.pop)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		// Baker's linear ranking: weight of rank i (0 = best).
		w[i] = selectionPressure - (2*selectionPressure-2)*float64(i)/math.Max(1, float64(n-1))
	}
	return w
}

// selectParent runs a tournament over rank weights: draw tournamentSize
// individuals, keep the one with the highest selection weight (= best
// rank).
//
//mm:noalloc
func (e *engine) selectParent(weights []float64) int {
	best := e.rng.Intn(len(e.pop))
	for k := 1; k < tournamentSize; k++ {
		c := e.rng.Intn(len(e.pop))
		if weights[c] > weights[best] {
			best = c
		}
	}
	return best
}

// generation produces offspring, inserts them replacing the worst
// individuals, and applies the improvement mutators.
//
// Children are bred into the genomes of the individuals the previous
// generation replaced, so a steady-state generation allocates no genome.
// The population never shares a genome slice (initPopulation, restore and
// injectDiversity give every individual its own, and the run's best is a
// copy), so a replaced individual's genome is free once it is replaced.
func (e *engine) generation() {
	weights := e.rankWeights()
	n := e.cfg.offspring()
	offspring := make([]individual, 0, n)
	for len(offspring) < n {
		pa := e.selectParent(weights)
		pb := e.selectParent(weights)
		var buf []int
		if k := len(e.spare); k > 0 {
			buf, e.spare = e.spare[k-1], e.spare[:k-1]
		}
		child := crossover(buf, e.pop[pa].genome, e.pop[pb].genome, e.rng)
		mutate(e.p, child, e.rate, e.rng)
		offspring = append(offspring, individual{genome: child, fitness: e.eval(child)})
	}
	// Offspring insertion: replace the tail (worst) of the population.
	last := len(e.pop) - 1
	for i, child := range offspring {
		e.spare = append(e.spare, e.pop[last-i].genome)
		e.pop[last-i] = child
	}
	e.sortPop()

	// Improvement mutations: each mutator hits each non-elite individual
	// with probability improvementRate.
	for mi, mut := range e.muts {
		for i := 1; i < len(e.pop); i++ {
			if e.rng.Float64() >= improvementRate {
				continue
			}
			e.mutStats[mi].Attempts++
			if mut(e.pop[i].genome, e.rng) {
				e.mutStats[mi].Accepted++
				before := e.pop[i].fitness
				e.pop[i].fitness = e.eval(e.pop[i].genome)
				if e.pop[i].fitness < before {
					e.mutStats[mi].Improved++
				}
			}
		}
	}
	e.sortPop()
}

// diversity returns the fraction of distinct genomes in the current
// population.
func (e *engine) diversity() float64 {
	e.genomes = e.genomes[:0]
	for i := range e.pop {
		e.genomes = append(e.genomes, e.pop[i].genome)
	}
	return distinct(e.genomes)
}

// Diversity returns the fraction of distinct genomes in a population.
func Diversity(genomes [][]int) float64 {
	return distinct(slices.Clone(genomes))
}

// distinct is Diversity over a slice of genomes it may reorder: it sorts
// them and counts the runs of equal ones.
func distinct(genomes [][]int) float64 {
	if len(genomes) == 0 {
		return 0
	}
	slices.SortFunc(genomes, slices.Compare)
	n := 1
	for i := 1; i < len(genomes); i++ {
		if !slices.Equal(genomes[i-1], genomes[i]) {
			n++
		}
	}
	return float64(n) / float64(len(genomes))
}
