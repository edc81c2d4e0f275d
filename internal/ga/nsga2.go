package ga

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// MultiProblem is a multi-objective search problem over integer strings.
// All objectives are minimised.
type MultiProblem interface {
	GenomeLen() int
	Alleles(i int) int
	// Objectives evaluates a genome into its objective vector. It must be
	// deterministic and always return the same length.
	Objectives(genome []int) []float64
}

// ParetoPoint is one non-dominated solution of a multi-objective run.
type ParetoPoint struct {
	Genome     []int
	Objectives []float64
}

// ParetoResult is the outcome of RunNSGA2: the first non-dominated front
// of the final population, sorted by the first objective.
type ParetoResult struct {
	Front       []ParetoPoint
	Generations int
	Evaluations int
}

// Dominates reports whether objective vector a Pareto-dominates b: no
// worse in every component and strictly better in at least one.
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		if a[i] > b[i]+1e-15 {
			return false
		}
		if a[i] < b[i]-1e-15 {
			better = true
		}
	}
	return better
}

type mindividual struct {
	genome   []int
	objs     []float64
	rank     int
	crowding float64
}

// RunNSGA2 runs an elitist non-dominated-sorting genetic algorithm
// (NSGA-II) over the problem: mu+lambda survival by (front rank, crowding
// distance), binary tournaments for mating, two-point crossover and
// uniform allele mutation — the discrete-genome counterpart of Deb's
// original formulation. It powers the power/area design-space exploration
// extension of the co-synthesis.
//
// Optional seed genomes are injected into the initial population (useful
// for anchoring the extremes of the trade-off, e.g. the all-software
// mapping); the remainder is random.
//
// Cancelling ctx stops the evolution at the next generation boundary; the
// front of the population evolved so far is still returned. A nil ctx runs
// to completion.
func RunNSGA2(ctx context.Context, p MultiProblem, cfg Config, rng *rand.Rand, seeds ...[]int) *ParetoResult {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	rate := mutationRate(p.GenomeLen())
	evals := 0
	eval := func(g []int) []float64 {
		evals++
		return p.Objectives(g)
	}

	pop := make([]mindividual, cfg.PopSize)
	for i := range pop {
		var g []int
		if i < len(seeds) && len(seeds[i]) == p.GenomeLen() {
			g = append([]int(nil), seeds[i]...)
		} else {
			g = randomGenome(p, rng)
		}
		pop[i] = mindividual{genome: g, objs: eval(g)}
	}
	rankAndCrowd(pop)

	gen := 0
	for ; gen < cfg.MaxGenerations; gen++ {
		if ctx.Err() != nil {
			break
		}
		// Offspring via binary tournaments on (rank, crowding).
		offspring := make([]mindividual, 0, cfg.PopSize)
		for len(offspring) < cfg.PopSize {
			pa := pop[tournament2(pop, rng)]
			pb := pop[tournament2(pop, rng)]
			child := crossover(nil, pa.genome, pb.genome, rng)
			mutate(p, child, rate, rng)
			offspring = append(offspring, mindividual{genome: child, objs: eval(child)})
		}
		// mu + lambda environmental selection.
		union := append(pop, offspring...)
		rankAndCrowd(union)
		sort.SliceStable(union, func(i, j int) bool {
			if union[i].rank != union[j].rank {
				return union[i].rank < union[j].rank
			}
			return union[i].crowding > union[j].crowding
		})
		pop = append([]mindividual(nil), union[:cfg.PopSize]...)
	}

	var front []ParetoPoint
	rankAndCrowd(pop)
	for _, ind := range pop {
		if ind.rank == 0 {
			front = append(front, ParetoPoint{
				Genome:     append([]int(nil), ind.genome...),
				Objectives: append([]float64(nil), ind.objs...),
			})
		}
	}
	// Deduplicate identical objective vectors to keep the front readable.
	front = dedupeFront(front)
	sort.Slice(front, func(i, j int) bool { return front[i].Objectives[0] < front[j].Objectives[0] })
	return &ParetoResult{Front: front, Generations: gen, Evaluations: evals}
}

func tournament2(pop []mindividual, rng *rand.Rand) int {
	a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
	if pop[a].rank != pop[b].rank {
		if pop[a].rank < pop[b].rank {
			return a
		}
		return b
	}
	if pop[a].crowding >= pop[b].crowding {
		return a
	}
	return b
}

// rankAndCrowd performs fast non-dominated sorting and crowding-distance
// assignment in place.
func rankAndCrowd(pop []mindividual) {
	n := len(pop)
	dominatedBy := make([][]int, n)
	domCount := make([]int, n)
	for i := range pop {
		pop[i].rank = -1
		pop[i].crowding = 0
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case Dominates(pop[i].objs, pop[j].objs):
				dominatedBy[i] = append(dominatedBy[i], j)
				domCount[j]++
			case Dominates(pop[j].objs, pop[i].objs):
				dominatedBy[j] = append(dominatedBy[j], i)
				domCount[i]++
			}
		}
	}
	var front []int
	for i := 0; i < n; i++ {
		if domCount[i] == 0 {
			pop[i].rank = 0
			front = append(front, i)
		}
	}
	for rank := 0; len(front) > 0; rank++ {
		crowd(pop, front)
		var next []int
		for _, i := range front {
			for _, j := range dominatedBy[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		front = next
	}
}

// crowd assigns the crowding distance within one front.
func crowd(pop []mindividual, front []int) {
	if len(front) == 0 {
		return
	}
	m := len(pop[front[0]].objs)
	for k := 0; k < m; k++ {
		sort.Slice(front, func(i, j int) bool {
			return pop[front[i]].objs[k] < pop[front[j]].objs[k]
		})
		lo, hi := pop[front[0]].objs[k], pop[front[len(front)-1]].objs[k]
		pop[front[0]].crowding = math.Inf(1)
		pop[front[len(front)-1]].crowding = math.Inf(1)
		span := hi - lo
		if span <= 0 {
			continue
		}
		for i := 1; i < len(front)-1; i++ {
			d := (pop[front[i+1]].objs[k] - pop[front[i-1]].objs[k]) / span
			pop[front[i]].crowding += d
		}
	}
}

func dedupeFront(front []ParetoPoint) []ParetoPoint {
	seen := make(map[string]bool)
	out := front[:0]
	for _, pt := range front {
		key := ""
		for _, o := range pt.Objectives {
			key += " " + strconv.FormatFloat(o, 'g', 12, 64)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, pt)
	}
	return out
}
