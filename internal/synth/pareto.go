package synth

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/runctl"
)

// ParetoPoint is one non-dominated implementation of the power/area
// design-space exploration: its probability-weighted average power and the
// worst-case fraction of hardware area it occupies.
type ParetoPoint struct {
	Mapping model.Mapping
	// Power is the Eq. (1) average power (timing- and transition-feasible
	// candidates only reach the front).
	Power float64
	// AreaFrac is max over hardware PEs and modes of usedArea/availableArea.
	AreaFrac float64
	Feasible bool
}

// ParetoOptions configures the multi-objective exploration.
type ParetoOptions struct {
	UseDVS bool
	GA     ga.Config
	Seed   int64
	// Weights are the non-area penalty weights (timing, transition); the
	// area dimension is an objective here, not a penalty.
	Weights Weights
	// Context, when non-nil, cancels the exploration at the next generation
	// boundary; the front evolved so far is still returned.
	Context context.Context
}

// multiProblem adapts the evaluator to the NSGA-II engine with two
// objectives: (1) average power, lifted above the feasible upper bound for
// timing/transition-infeasible candidates, and (2) the worst-case hardware
// area fraction. The area constraint itself is dropped — the front shows
// what each extra cell of silicon buys, extending the paper's single-
// objective formulation into an architectural exploration in the spirit of
// the authors' LOPOCOS work.
type multiProblem struct {
	codec *Codec
	eval  *Evaluator
	cache *fitnessCache[[]float64]
	// mapping is the decode buffer of uncached evaluations.
	mapping model.Mapping
}

func (p *multiProblem) GenomeLen() int    { return p.codec.Len() }
func (p *multiProblem) Alleles(i int) int { return p.codec.Alleles(i) }

func (p *multiProblem) Objectives(genome []int) []float64 {
	return p.cache.lookup(p.codec.Key(genome), func() []float64 { return p.objectives(genome) })
}

func (p *multiProblem) objectives(genome []int) []float64 {
	p.mapping = p.codec.decodeInto(p.mapping, genome)
	ev, err := p.eval.evaluate(p.mapping)
	if err != nil {
		return []float64{math.Inf(1), math.Inf(1)}
	}
	power := ev.AvgPower * ev.TimingPenalty * ev.TransPenalty
	if ev.TimingPenalty > 1 || ev.TransPenalty > 1 || ev.Unroutable > 0 {
		if p.eval.ub <= 0 {
			p.eval.ub = PowerUpperBound(p.eval.Sys)
		}
		power += p.eval.ub
	}
	return []float64{power, areaFrac(p.eval.Sys, ev)}
}

// extremeGenomes builds the software-leaning and hardware-leaning anchor
// genomes for the exploration.
func extremeGenomes(sys *model.System, codec *Codec) (allSW, allHW []int) {
	allSW = make([]int, codec.Len())
	allHW = make([]int, codec.Len())
	for k := 0; k < codec.Len(); k++ {
		for i, pe := range codec.CandidatesAt(k) {
			if sys.Arch.PE(pe).Class.IsSoftware() {
				allSW[k] = i
				break
			}
		}
		for i, pe := range codec.CandidatesAt(k) {
			if sys.Arch.PE(pe).Class.IsHardware() {
				allHW[k] = i
				break
			}
		}
	}
	return allSW, allHW
}

// areaFrac returns the worst-case hardware utilisation of the candidate.
func areaFrac(s *model.System, ev *Evaluation) float64 {
	worst := 0.0
	for m := range ev.Alloc.UsedArea {
		for pe, used := range ev.Alloc.UsedArea[m] {
			if a := s.Arch.PE(model.PEID(pe)).Area; a > 0 {
				if f := float64(used) / float64(a); f > worst {
					worst = f
				}
			}
		}
	}
	return worst
}

// Pareto explores the power/area trade-off of the system with NSGA-II and
// returns the non-dominated front, cheapest-power first. Unlike
// Synthesize, hardware area is not a constraint but the second objective;
// points with AreaFrac > 1 describe hypothetical larger dies.
func Pareto(sys *model.System, opts ParetoOptions) ([]ParetoPoint, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	codec, err := NewCodec(sys)
	if err != nil {
		return nil, err
	}
	w := opts.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	// Area violations must not be penalised: area is an objective here.
	w.Area = 0
	eval := NewEvaluator(sys, opts.UseDVS)
	eval.Weights = w
	prob := &multiProblem{codec: codec, eval: eval, cache: newFitnessCache[[]float64]()}
	// Anchor the area extremes: an all-software mapping (zero silicon) and
	// a hardware-greedy mapping (every task on a hardware candidate where
	// one exists).
	allSW, allHW := extremeGenomes(sys, codec)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	res := ga.RunNSGA2(ctx, prob, opts.GA, rand.New(runctl.NewSource(opts.Seed)), allSW, allHW)

	ub := PowerUpperBound(sys)
	var out []ParetoPoint
	for _, pt := range res.Front {
		mapping := codec.Decode(pt.Genome)
		out = append(out, ParetoPoint{
			Mapping:  mapping,
			Power:    pt.Objectives[0],
			AreaFrac: pt.Objectives[1],
			Feasible: pt.Objectives[0] <= ub,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Power < out[j].Power })
	return out, nil
}
