package synth

import (
	"fmt"
	"math/rand"
	"time"

	"momosyn/internal/dvs"
	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/sched"
)

// FNV-1a parameters (FNV-0 offset basis and 64-bit prime), inlined so
// mappingHash needs no hash.Hash64 allocation. The byte sequence hashed is
// identical to writing byte(mode) then, per PE, the two little-endian low
// bytes through hash/fnv, so seeds are unchanged.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mappingHash derives a deterministic refinement seed from a mapping and
// mode index.
//
//mm:noalloc
func mappingHash(m model.Mapping, mode int) uint64 {
	h := uint64(fnvOffset64)
	h ^= uint64(byte(mode))
	h *= fnvPrime64
	for _, row := range m {
		for _, pe := range row {
			h ^= uint64(byte(pe))
			h *= fnvPrime64
			h ^= uint64(byte(int(pe) >> 8))
			h *= fnvPrime64
		}
	}
	return h
}

// Weights tune the penalty aggressiveness of the mapping fitness
// FM = p̄ · tp · areaTerm · transitionTerm (paper section 4.1).
type Weights struct {
	// Area is wA: weight of the percentage area violation.
	Area float64
	// Transition is wR: weight of the relative transition-time excess.
	Transition float64
	// Timing scales the relative lateness in the timing penalty tp.
	Timing float64
}

// DefaultWeights returns penalty weights that reliably drive the GA out of
// infeasible regions without flattening the power landscape.
func DefaultWeights() Weights {
	return Weights{Area: 0.5, Transition: 2, Timing: 20}
}

// Evaluation is one fully evaluated implementation candidate: mapping, core
// allocation, per-mode schedule/voltage selection, power breakdown and
// penalty terms.
type Evaluation struct {
	Mapping   model.Mapping
	Alloc     *Allocation
	Schedules []*sched.Schedule

	// ModePowers is indexed by ModeID.
	ModePowers []energy.ModePower
	// AvgPower is Eq. (1) under the evaluation probabilities.
	AvgPower float64

	// Lateness is the per-mode summed deadline violation (seconds).
	Lateness []float64
	// Unroutable counts communications between unconnected PEs.
	Unroutable int
	// TransTimes is indexed parallel to App.Transitions.
	TransTimes []float64

	// Penalty terms (>= 1; all 1 for feasible candidates).
	TimingPenalty, AreaPenalty, TransPenalty float64
	// Fitness is the minimised objective FM.
	Fitness float64
}

// Feasible reports whether the candidate violates no constraint.
//
//mm:noalloc
func (ev *Evaluation) Feasible() bool {
	return ev.TimingPenalty <= 1 && ev.AreaPenalty <= 1 && ev.TransPenalty <= 1 && ev.Unroutable == 0
}

// Evaluator computes fitnesses of multi-mode mappings for a fixed system.
// Probs overrides the mode execution probabilities used in the objective —
// the probability-neglecting baseline passes the uniform distribution; nil
// uses the specification's probabilities.
type Evaluator struct {
	Sys     *model.System
	UseDVS  bool
	Weights Weights
	// DVSSoftwareOnly disables the hardware-core transformation, scaling
	// software processors only (the prior-work DVS the paper extends).
	DVSSoftwareOnly bool
	// NoReplicaCores disables the replica-core allocation for parallel
	// low-mobility tasks (paper Fig. 4 line 5). Ablation switch.
	NoReplicaCores bool
	// RefineIterations > 0 enables stochastic schedule refinement
	// (sched.Refine) with that many priority perturbations per mode. The
	// refinement RNG is derived from the mapping so evaluation stays
	// deterministic and cacheable.
	RefineIterations int
	// Probs, when non-nil, replaces the per-mode execution probabilities in
	// the average-power objective. Length must equal the number of modes.
	Probs []float64
	// Obs, when active, receives per-phase wall-clock timings and
	// per-evaluation trace spans. Instrumentation is purely observational:
	// it reads the clock but never any randomness, so attaching it cannot
	// change an evaluation's result.
	Obs *obs.Run

	// timings accumulates the phase breakdown over all Evaluate calls.
	timings obs.Timings
	// ub caches PowerUpperBound of the system.
	ub float64
}

// Timings returns the cumulative phase breakdown of every instrumented
// Evaluate call; all-zero when Obs was never active.
func (e *Evaluator) Timings() obs.Timings { return e.timings }

// recordEval folds one evaluation's phase breakdown into the cumulative
// timings, the phase histograms, and (when tracing) the event stream.
func (e *Evaluator) recordEval(t obs.Timings) {
	t.Evaluations = 1
	e.timings.Add(t)
	r := e.Obs
	r.ObservePhase(obs.PhaseMobility, t.Mobility)
	r.ObservePhase(obs.PhaseCoreAlloc, t.CoreAlloc)
	if t.Refine > 0 {
		r.ObservePhase(obs.PhaseRefine, t.Refine)
	} else {
		r.ObservePhase(obs.PhaseListSched, t.ListSched)
		r.ObservePhase(obs.PhaseCommMap, t.CommMap)
	}
	if t.DVS > 0 {
		r.ObservePhase(obs.PhaseDVS, t.DVS)
	}
	r.Registry().Counter("synth.evaluations").Inc()
	if r.Tracing() {
		r.EmitEval(obs.EvalEvent{
			Seq:         r.NextSeq(),
			MobilityNs:  t.Mobility.Nanoseconds(),
			CoreAllocNs: t.CoreAlloc.Nanoseconds(),
			ListSchedNs: t.ListSched.Nanoseconds(),
			CommMapNs:   t.CommMap.Nanoseconds(),
			DVSNs:       t.DVS.Nanoseconds(),
			RefineNs:    t.Refine.Nanoseconds(),
			TotalNs:     t.Total().Nanoseconds(),
		})
	}
}

// PowerUpperBound returns a bound no feasible implementation's average
// power exceeds: the static power of every component powered in every mode
// plus, per mode, the worst implementation energy of every task and the
// slowest-link energy of every communication. Infeasible candidates are
// ranked above this bound so that no constraint violation can be traded
// for dynamic-power savings.
//
//mm:noalloc
func PowerUpperBound(s *model.System) float64 {
	staticAll := 0.0
	for _, pe := range s.Arch.PEs {
		staticAll += pe.StaticPower
	}
	for _, cl := range s.Arch.CLs {
		staticAll += cl.StaticPower
	}
	total := staticAll
	for _, mode := range s.App.Modes {
		e := 0.0
		for _, task := range mode.Graph.Tasks {
			worst := 0.0
			for _, im := range s.Lib.Type(task.Type).Impls {
				if v := im.Energy(); v > worst {
					worst = v
				}
			}
			e += worst
		}
		for _, edge := range mode.Graph.Edges {
			worst := 0.0
			for _, cl := range s.Arch.CLs {
				if v := cl.PowerActive * energy.CommTime(edge.Bytes, cl); v > worst {
					worst = v
				}
			}
			e += worst
		}
		// Unweighted sum over modes dominates any probability mixture, so
		// the bound holds for every evaluation probability vector.
		total += e / mode.Period
	}
	return total
}

// NewEvaluator returns an evaluator with default weights.
func NewEvaluator(sys *model.System, useDVS bool) *Evaluator {
	return Options{UseDVS: useDVS}.newEvaluator(sys, nil)
}

// prob returns the evaluation probability of the mode.
//
//mm:noalloc
func (e *Evaluator) prob(mode model.ModeID) float64 {
	if e.Probs != nil {
		return e.Probs[mode]
	}
	return e.Sys.App.Mode(mode).Prob
}

// Evaluate runs the full inner loop for the mapping: mobility analysis,
// core allocation, per-mode communication mapping and scheduling, optional
// voltage scaling, and the fitness computation of paper Fig. 4.
func (e *Evaluator) Evaluate(mapping model.Mapping) (*Evaluation, error) {
	s := e.Sys
	nModes := len(s.App.Modes)
	timed := e.Obs.Active()
	var span obs.Timings
	var mark time.Time

	// Lines 04-05: mobilities and hardware core implementation.
	if timed {
		mark = time.Now()
	}
	mob := make([]*sched.Mobility, nModes)
	for m := 0; m < nModes; m++ {
		mm, err := sched.ComputeMobility(s, model.ModeID(m), mapping)
		if err != nil {
			return nil, fmt.Errorf("synth: mode %d: %w", m, err)
		}
		mob[m] = mm
	}
	if timed {
		span.Mobility = time.Since(mark)
		mark = time.Now()
	}
	alloc := AllocateCoresWith(s, mapping, mob, e.NoReplicaCores)
	if timed {
		span.CoreAlloc = time.Since(mark)
	}

	ev := &Evaluation{
		Mapping:    mapping,
		Alloc:      alloc,
		Schedules:  make([]*sched.Schedule, nModes),
		ModePowers: make([]energy.ModePower, nModes),
		Lateness:   make([]float64, nModes),
		TransTimes: make([]float64, len(s.App.Transitions)),
	}

	// Lines 09-13: per-mode inner loop.
	activePE := make([]bool, len(s.Arch.PEs))
	for m := 0; m < nModes; m++ {
		mode := s.App.Mode(model.ModeID(m))
		var sc *sched.Schedule
		var err error
		switch {
		case e.RefineIterations > 0:
			rng := rand.New(rand.NewSource(int64(mappingHash(mapping, m))))
			if timed {
				mark = time.Now()
			}
			sc, err = sched.Refine(s, model.ModeID(m), mapping, alloc, mob[m], e.RefineIterations, rng)
			if timed {
				span.Refine += time.Since(mark)
			}
		case timed:
			mark = time.Now()
			var comm time.Duration
			sc, comm, err = sched.ListScheduleTimed(s, model.ModeID(m), mapping, alloc, mob[m])
			span.ListSched += time.Since(mark)
			span.CommMap += comm
		default:
			sc, err = sched.ListSchedule(s, model.ModeID(m), mapping, alloc, mob[m])
		}
		if err != nil {
			return nil, fmt.Errorf("synth: mode %q: %w", mode.Name, err)
		}
		if e.UseDVS {
			if timed {
				mark = time.Now()
			}
			dvs.ScaleWith(s, sc, dvs.Config{SoftwareOnly: e.DVSSoftwareOnly})
			if timed {
				span.DVS += time.Since(mark)
			}
		}
		ev.Schedules[m] = sc
		ev.Lateness[m] = sc.Lateness(s)
		ev.Unroutable += sc.Unroutable

		for pe := range activePE {
			activePE[pe] = mapping.UsesPE(model.ModeID(m), model.PEID(pe))
		}
		usedCL := sc.UsedCLs(s.Arch)
		ev.ModePowers[m] = energy.ModePower{
			DynamicEnergy: sc.DynamicEnergy(),
			Period:        mode.Period,
			StaticPower:   energy.StaticPower(s.Arch, activePE, usedCL),
		}
	}

	// Average power under the evaluation probabilities.
	for m := 0; m < nModes; m++ {
		ev.AvgPower += ev.ModePowers[m].Total() * e.prob(model.ModeID(m))
	}

	// Line 08 + section 4.1: penalties. FM = p̄·tp·areaTerm·transTerm for
	// feasible candidates; infeasible ones are additionally lifted above
	// the feasible power upper bound so that constraint violations can
	// never be traded against dynamic-power savings.
	e.penalties(ev)
	ev.Fitness = ev.AvgPower * ev.TimingPenalty * ev.AreaPenalty * ev.TransPenalty
	if !ev.Feasible() {
		if e.ub <= 0 {
			e.ub = PowerUpperBound(s)
		}
		ev.Fitness += e.ub
	}
	if timed {
		e.recordEval(span)
	}
	return ev, nil
}

// penalties fills the timing, area and transition penalty terms.
//
//mm:noalloc
func (e *Evaluator) penalties(ev *Evaluation) {
	s := e.Sys
	w := e.Weights

	// Timing penalty tp: relative lateness summed over modes, plus a large
	// surcharge per unroutable communication.
	rel := 0.0
	for m, late := range ev.Lateness {
		rel += late / s.App.Mode(model.ModeID(m)).Period
	}
	ev.TimingPenalty = 1 + w.Timing*rel + 10*w.Timing*float64(ev.Unroutable)

	// Area penalty per the paper: used-vs-available percentage excess.
	areaSum := 0.0
	for pe, viol := range ev.Alloc.Violation {
		if viol <= 0 {
			continue
		}
		amax := float64(s.Arch.PE(model.PEID(pe)).Area)
		areaSum += float64(viol) / (amax * 0.01)
	}
	ev.AreaPenalty = 1 + w.Area*areaSum

	// Transition penalty: relative excess over tTmax for violating
	// transitions. (The paper multiplies wR·Π tT/tTmax over violating
	// transitions; we use the equivalent monotone additive form that is 1
	// when no transition is violated.) ev.TransTimes is presized by
	// Evaluate. The excesses are summed in model.TransitionLess order, so
	// a specification's transition order cannot round the sum differently.
	trs := s.App.Transitions
	for i, tr := range trs {
		ev.TransTimes[i] = ev.Alloc.TransitionTime(s, tr)
	}
	transSum := 0.0
	prev := -1
	for range trs {
		next := -1
		for i := range trs {
			if (prev < 0 || transAfter(trs, i, prev)) && (next < 0 || transAfter(trs, next, i)) {
				next = i
			}
		}
		if tr, t := trs[next], ev.TransTimes[next]; tr.MaxTime > 0 && t > tr.MaxTime {
			transSum += t/tr.MaxTime - 1
		}
		prev = next
	}
	ev.TransPenalty = 1 + w.Transition*transSum
}

// transAfter reports whether transition i comes after transition j in
// model.TransitionLess order, breaking ties between equal transitions by
// index.
//
//mm:noalloc
func transAfter(trs []model.Transition, i, j int) bool {
	if trs[i] != trs[j] {
		return model.TransitionLess(trs[j], trs[i])
	}
	return i > j
}

// Reweighted returns the Eq. (1) average power of an already evaluated
// candidate under a different probability vector (nil = the
// specification's true probabilities). This is how a candidate optimised
// while neglecting probabilities is judged under the real usage profile.
//
//mm:noalloc
func (ev *Evaluation) Reweighted(s *model.System, probs []float64) float64 {
	total := 0.0
	for m := range ev.ModePowers {
		p := s.App.Mode(model.ModeID(m)).Prob
		if probs != nil {
			p = probs[m]
		}
		total += ev.ModePowers[m].Total() * p
	}
	return total
}

// UniformProbs returns the uniform distribution over the system's modes —
// the probabilities used by the probability-neglecting baseline.
func UniformProbs(s *model.System) []float64 {
	n := len(s.App.Modes)
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = 1 / float64(n)
	}
	return probs
}
