package synth

import (
	"fmt"
	"slices"
	"time"

	"momosyn/internal/dvs"
	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/sched"
)

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
//
// An Evaluator owns the working memory of its evaluations (mobilities, core
// allocation, per-mode schedules, scheduler state), sized on the first
// evaluation and reused by every later one. The *Evaluation that Evaluate
// returns is a copy the caller owns: later evaluations do not change it.
// An Evaluator is not safe for concurrent use; give every goroutine its
// own (Synthesize does, so concurrent runs share nothing).
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
	// scratch is the working memory every evaluation overwrites.
	scratch evalScratch
}

// evalScratch holds everything one evaluation writes. The evaluation in ev
// points into the other buffers.
type evalScratch struct {
	mobs       []sched.Mobility
	mobPtrs    []*sched.Mobility // &mobs[m], the form AllocateCores takes
	alloc      Allocation
	allocator  allocator
	scheduler  sched.Scheduler
	schedules  []sched.Schedule
	schedPtrs  []*sched.Schedule
	modePowers []energy.ModePower
	lateness   []float64
	transTimes []float64
	activePE   []bool
	usedCL     []bool
	ev         Evaluation
}

// size shapes the scratch for the system; only the first evaluation
// allocates.
func (x *evalScratch) size(s *model.System) {
	nModes := len(s.App.Modes)
	x.mobs = grow(x.mobs, nModes)
	x.mobPtrs = grow(x.mobPtrs, nModes)
	for m := range x.mobs {
		x.mobPtrs[m] = &x.mobs[m]
	}
	x.schedules = grow(x.schedules, nModes)
	x.schedPtrs = grow(x.schedPtrs, nModes)
	x.modePowers = grow(x.modePowers, nModes)
	x.lateness = grow(x.lateness, nModes)
	x.transTimes = grow(x.transTimes, len(s.App.Transitions))
	x.activePE = grow(x.activePE, len(s.Arch.PEs))
	x.usedCL = grow(x.usedCL, len(s.Arch.CLs))
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
	r.ObservePhase(obs.PhaseListSched, t.ListSched)
	r.ObservePhase(obs.PhaseCommMap, t.CommMap)
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
// voltage scaling, and the fitness computation of paper Fig. 4. The result
// is the caller's: it shares no memory with the evaluator, so holding
// several results of one evaluator is safe. Its Mapping is the argument.
func (e *Evaluator) Evaluate(mapping model.Mapping) (*Evaluation, error) {
	ev, err := e.evaluate(mapping)
	if err != nil {
		return nil, err
	}
	return ev.clone(), nil
}

// clone returns a deep copy of the evaluation; the mapping is shared.
func (ev *Evaluation) clone() *Evaluation {
	c := *ev
	c.Alloc = ev.Alloc.clone()
	c.Schedules = make([]*sched.Schedule, len(ev.Schedules))
	for m, sc := range ev.Schedules {
		c.Schedules[m] = sc.Clone()
	}
	c.ModePowers = slices.Clone(ev.ModePowers)
	c.Lateness = slices.Clone(ev.Lateness)
	c.TransTimes = slices.Clone(ev.TransTimes)
	return &c
}

// evaluate is Evaluate into the evaluator's scratch: the returned
// evaluation and everything it points to except the mapping belong to the
// evaluator and are overwritten by the next call. The GA fitness paths
// read what they need from it and keep nothing.
//
//mm:noalloc
func (e *Evaluator) evaluate(mapping model.Mapping) (*Evaluation, error) {
	s := e.Sys
	x := &e.scratch
	x.size(s)
	nModes := len(s.App.Modes)
	timed := e.Obs.Active()
	var span obs.Timings
	var mark time.Time

	// Lines 04-05: mobilities and hardware core implementation.
	if timed {
		mark = time.Now()
	}
	for m := 0; m < nModes; m++ {
		if err := x.mobs[m].Compute(s, model.ModeID(m), mapping); err != nil {
			return nil, mobilityError(m, err)
		}
	}
	if timed {
		span.Mobility = time.Since(mark)
		mark = time.Now()
	}
	x.allocator.allocate(s, mapping, x.mobPtrs, e.NoReplicaCores, &x.alloc)
	if timed {
		span.CoreAlloc = time.Since(mark)
	}

	ev := &x.ev
	*ev = Evaluation{
		Mapping:    mapping,
		Alloc:      &x.alloc,
		Schedules:  x.schedPtrs,
		ModePowers: x.modePowers,
		Lateness:   x.lateness,
		TransTimes: x.transTimes,
	}

	// Lines 09-13: per-mode inner loop.
	for m := 0; m < nModes; m++ {
		mode := s.App.Mode(model.ModeID(m))
		sc := &x.schedules[m]
		if timed {
			mark = time.Now()
		}
		comm, err := x.scheduler.Run(s, model.ModeID(m), mapping, &x.alloc, x.mobPtrs[m], sc, timed)
		if err != nil {
			return nil, scheduleError(mode, err)
		}
		if timed {
			span.ListSched += time.Since(mark)
			span.CommMap += comm
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

		for pe := range x.activePE {
			x.activePE[pe] = mapping.UsesPE(model.ModeID(m), model.PEID(pe))
		}
		sc.MarkUsedCLs(x.usedCL)
		ev.ModePowers[m] = energy.ModePower{
			DynamicEnergy: sc.DynamicEnergy(),
			Period:        mode.Period,
			StaticPower:   energy.StaticPower(s.Arch, x.activePE, x.usedCL),
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

// mobilityError wraps a mobility failure of mode m.
func mobilityError(m int, err error) error {
	return fmt.Errorf("synth: mode %d: %w", m, err)
}

// scheduleError wraps a scheduling failure of the mode.
func scheduleError(mode *model.Mode, err error) error {
	return fmt.Errorf("synth: mode %q: %w", mode.Name, err)
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
	// evaluate. The excesses are summed in model.TransitionLess order, so
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
