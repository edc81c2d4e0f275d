package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/verify"
)

// mutationNames are the reporting labels of the four improvement mutations,
// in the order Synthesize passes them to the engine.
var mutationNames = [...]string{"shutdown", "area", "timing", "transition"}

// MutationName labels improvement-mutation slot i as it appears in
// Result.GA.Mutators and in trace events, for CLI reporting.
func MutationName(i int) string {
	if i >= 0 && i < len(mutationNames) {
		return mutationNames[i]
	}
	return fmt.Sprintf("mutator%d", i)
}

// FitnessCacheCap bounds the fitness cache of one synthesis run. Beyond
// this many distinct genomes the oldest entries are evicted FIFO; the run
// keeps going at full correctness (fitness is deterministic), it merely
// re-evaluates. The bound and the hit/miss/evict counters in Result.Cache
// replace the old silent insert-stop at the same size.
const FitnessCacheCap = 1 << 20

// Options configures one synthesis run.
type Options struct {
	// UseDVS enables voltage scaling in the inner loop (software PEs and,
	// via the Fig. 5 transformation, hardware cores).
	UseDVS bool
	// NeglectProbabilities makes the optimisation assume the uniform mode
	// distribution (the baseline the paper compares against); the final
	// result is still reported under the true probabilities.
	NeglectProbabilities bool
	// Weights are the penalty weights; zero value selects DefaultWeights.
	Weights Weights
	// DVSSoftwareOnly restricts voltage scaling to software processors,
	// reproducing the prior-work DVS of [10] (ablation switch).
	DVSSoftwareOnly bool
	// NoReplicaCores disables replica-core allocation (ablation switch).
	NoReplicaCores bool
	// NoImprovementMutations disables the four problem-specific mutation
	// operators of paper section 4.1 (ablation switch).
	NoImprovementMutations bool
	// RefineIterations > 0 enables per-mode stochastic schedule refinement
	// in the inner loop (slower, occasionally tighter schedules).
	RefineIterations int
	// GA tunes the genetic engine; zero values select engine defaults.
	GA ga.Config
	// Seed seeds the run's RNG.
	Seed int64

	// Context, when non-nil, bounds the run: on cancellation or deadline
	// the engine stops at the next generation boundary and Synthesize
	// returns the best-so-far implementation with Result.Partial set —
	// graceful degradation instead of a lost run.
	Context context.Context
	// CheckpointPath, when set, persists the engine state to this file
	// every CheckpointEvery generations (atomic write-rename) and once
	// more when the run stops, so a killed run can be resumed.
	CheckpointPath string
	// CheckpointEvery is the generation interval between checkpoints
	// (default 10 when CheckpointPath is set).
	CheckpointEvery int
	// CheckpointSave, when non-nil, replaces the default checkpoint writer
	// (runctl.Save). The serve layer uses it to thread its injectable
	// filesystem underneath and, in fleet mode, to fence checkpoint writes
	// behind the lease epoch; like Obs it never changes the search
	// trajectory, so it is excluded from the checkpoint fingerprint. A
	// returned error stops the run at the current generation boundary
	// with the best-so-far result.
	CheckpointSave func(path string, cp *runctl.Checkpoint) error
	// Resume restores the run from CheckpointPath instead of starting
	// fresh. The spec, seed and options must match the checkpointed run;
	// the resumed run then converges to the same result as an
	// uninterrupted one.
	Resume bool
	// FaultBudget is the number of distinct genomes whose evaluation may
	// panic before the run aborts cleanly with a fault report (default
	// 64). Each faulting genome is retried once, then marked infeasible.
	FaultBudget int
	// StallWindow, when positive, re-randomises the worst half of the
	// population after that many generations without improvement (the
	// stall watchdog); Result.GA.Restarts counts the injections.
	StallWindow int

	// Certify runs the independent internal/verify certifier on the final
	// (or best-partial) implementation and surfaces the report in
	// Result.Certification. Certification never changes the search
	// trajectory, so resuming a checkpointed run with a different Certify
	// setting is valid.
	Certify bool
	// CertifyOptions tunes the certifier; zero value selects its defaults.
	CertifyOptions verify.Options

	// Obs, when active, records run telemetry: per-phase timing histograms,
	// GA convergence gauges and (when a trace sink is attached) the JSONL
	// event stream. Like Certify it never changes the search trajectory, so
	// it is excluded from the checkpoint fingerprint: resuming a run with
	// tracing toggled is valid and yields the identical result.
	Obs *obs.Run

	// evalHook, when set, runs before every uncached fitness evaluation
	// (test seam for fault injection).
	evalHook func(genome []int)
}

// fingerprint pins the options that shape the search trajectory, so a
// checkpoint refuses to resume under a different configuration.
func (o Options) fingerprint() string {
	return fmt.Sprintf("dvs=%v neglect=%v swonly=%v norep=%v nomut=%v refine=%d ga=%+v w=%+v stall=%d",
		o.UseDVS, o.NeglectProbabilities, o.DVSSoftwareOnly, o.NoReplicaCores,
		o.NoImprovementMutations, o.RefineIterations, o.GA, o.Weights, o.StallWindow)
}

// Result is the outcome of one synthesis run.
type Result struct {
	// Best is the best implementation found, evaluated under the TRUE mode
	// execution probabilities (even when the optimisation neglected them).
	Best *Evaluation
	// ObjectivePower is the Eq. (1) power under the probabilities the
	// optimiser actually used (equals Best.AvgPower unless
	// NeglectProbabilities was set).
	ObjectivePower float64
	// GA reports the engine statistics of the run.
	GA *ga.Result
	// Elapsed is the wall-clock optimisation time (the paper's "CPU time"
	// column).
	Elapsed time.Duration
	// Partial mirrors GA.Partial: the run was interrupted (cancellation,
	// deadline, fault budget, checkpoint failure) and Best is the
	// best-so-far implementation. GA.Reason says why.
	Partial bool
	// Cache reports fitness-cache effectiveness over the run.
	Cache runctl.CacheCounters
	// Faults lists the genomes whose evaluation panicked; they were marked
	// infeasible and the run continued.
	Faults []runctl.EvalFault
	// Certification is the independent certifier's report on Best; nil
	// unless Options.Certify was set.
	Certification *verify.Report
	// Timings is the cumulative phase breakdown of the run (all-zero unless
	// Options.Obs was active).
	Timings obs.Timings
}

// fitnessCache memoises a deterministic function of the genome, keyed by
// Codec.Key, for the GA problems of Synthesize and Pareto. It holds at most
// FitnessCacheCap entries, evicting the oldest first, and counts hits,
// misses and evictions.
type fitnessCache[V any] struct {
	m map[string]V
	// order is the FIFO insertion queue backing eviction; head indexes the
	// oldest resident entry.
	order []string
	head  int
	stats runctl.CacheCounters
}

func newFitnessCache[V any]() *fitnessCache[V] {
	return &fitnessCache[V]{m: make(map[string]V)}
}

// lookup returns the cached value of the key, or computes and inserts it,
// evicting the oldest entry when the cache is full.
func (c *fitnessCache[V]) lookup(key string, compute func() V) V {
	if v, ok := c.m[key]; ok {
		c.stats.Hits++
		return v
	}
	c.stats.Misses++
	v := compute()
	if len(c.m) >= FitnessCacheCap {
		delete(c.m, c.order[c.head])
		c.order[c.head] = "" // release the key for GC
		c.head++
		c.stats.Evictions++
	}
	c.m[key] = v
	c.order = append(c.order, key)
	return v
}

// counters captures the cache statistics at this instant.
func (c *fitnessCache[V]) counters() runctl.CacheCounters {
	s := c.stats
	s.Entries = len(c.m)
	s.Capacity = FitnessCacheCap
	return s
}

// problem adapts the evaluator to the GA engine through the fitness cache.
type problem struct {
	codec *Codec
	eval  *Evaluator
	cache *fitnessCache[float64]
	hook  func(genome []int)
	// mapping is the decode buffer of uncached evaluations.
	mapping model.Mapping
}

func (p *problem) GenomeLen() int    { return p.codec.Len() }
func (p *problem) Alleles(i int) int { return p.codec.Alleles(i) }

func (p *problem) Fitness(genome []int) float64 {
	return p.cache.lookup(p.codec.Key(genome), func() float64 {
		if p.hook != nil {
			p.hook(genome)
		}
		p.mapping = p.codec.decodeInto(p.mapping, genome)
		ev, err := p.eval.evaluate(p.mapping)
		if err != nil {
			return math.Inf(1)
		}
		return ev.Fitness
	})
}

// Synthesize runs the complete co-synthesis of Fig. 4: the outer GA over
// multi-mode mapping strings (with the four improvement mutations) around
// the inner scheduling/DVS loop, and returns the best implementation
// evaluated under the true mode execution probabilities.
//
// With Options.Context the run is cancellable; with Options.CheckpointPath
// it is resumable; panicking evaluations are contained and reported in
// Result.Faults. See docs/RUNCTL.md.
//
// Synthesize is safe for concurrent use: every run owns its RNG, evaluator,
// fitness cache and engine state, and the synth, ga and dvs packages hold
// no mutable package-level state. Concurrent runs with the same seed and
// specification produce bit-identical results, which is what lets mmserved
// execute jobs on a worker pool and mmbench evaluate table rows in
// parallel without perturbing published numbers. Runs sharing a checkpoint
// path or an obs.Run are the one exception — give each run its own.
func Synthesize(sys *model.System, opts Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	codec, err := NewCodec(sys)
	if err != nil {
		return nil, err
	}
	var probs []float64
	if opts.NeglectProbabilities {
		probs = UniformProbs(sys)
	}
	run := opts.Obs
	eval := opts.newEvaluator(sys, probs)
	eval.Obs = run
	prob := &problem{codec: codec, eval: eval, cache: newFitnessCache[float64](), hook: opts.evalHook}

	// Every run draws from a serialisable source, so a checkpoint can store
	// and restore the stream position exactly and a checkpointed run gives
	// the same answer as a plain one.
	src := runctl.NewSource(opts.Seed)
	rng := rand.New(src)

	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)

	guard := runctl.NewGuard(prob, runctl.GuardConfig{
		FaultBudget:      opts.FaultBudget,
		OnBudgetExceeded: func(err error) { cancel(err) },
	})

	rc := ga.RunControl{Context: ctx, StallWindow: opts.StallWindow}
	if opts.CheckpointPath != "" {
		every := opts.CheckpointEvery
		if every <= 0 {
			every = 10
		}
		rc.CheckpointEvery = every
		saveCheckpoint := opts.CheckpointSave
		if saveCheckpoint == nil {
			saveCheckpoint = runctl.Save
		}
		rc.OnCheckpoint = func(s *ga.Snapshot) error {
			return saveCheckpoint(opts.CheckpointPath, &runctl.Checkpoint{
				System:      sys.App.Name,
				GenomeLen:   codec.Len(),
				Seed:        opts.Seed,
				Fingerprint: opts.fingerprint(),
				RNGState:    src.State(),
				Snapshot:    *s,
				Cache:       prob.cache.counters(),
				Faults:      guard.Faults(),
				Metrics:     run.Export(),
			})
		}
	}
	if opts.Resume {
		if opts.CheckpointPath == "" {
			return nil, fmt.Errorf("synth: Resume requires CheckpointPath")
		}
		cp, err := runctl.Load(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if err := checkResumable(cp, sys, codec, opts); err != nil {
			return nil, err
		}
		src.Restore(cp.RNGState)
		snap := cp.Snapshot
		rc.Resume = &snap
		guard.Restore(cp.Faults)
		prob.cache.stats = runctl.CacheCounters{
			Hits: cp.Cache.Hits, Misses: cp.Cache.Misses, Evictions: cp.Cache.Evictions,
		}
		// Telemetry continues from the interrupted run's totals.
		run.RestoreMetrics(cp.Metrics)
	}

	var mutators []ga.Mutator
	if !opts.NoImprovementMutations {
		mutators = []ga.Mutator{
			codec.ShutdownMutation(),
			codec.AreaMutation(),
			codec.TimingMutation(),
			codec.TransitionMutation(),
		}
	}
	if run.Active() {
		rc.OnGeneration = observeGenerations(run, opts.newEvaluator(sys, probs), codec, prob.cache)
	}
	resumedFrom := 0
	if rc.Resume != nil {
		resumedFrom = rc.Resume.Generation
	}
	run.EmitRunStart(obs.RunStartEvent{
		System:      sys.App.Name,
		Seed:        opts.Seed,
		ResumedFrom: resumedFrom,
		DVS:         opts.UseDVS,
		Neglect:     opts.NeglectProbabilities,
	})
	start := time.Now()
	res := ga.RunControlled(guard, opts.GA, rc, rng, mutators...)
	elapsed := time.Since(start)

	best, err := safeEvaluate(eval, codec.Decode(res.Best))
	if err != nil {
		return nil, err
	}
	objective := best.AvgPower
	if opts.NeglectProbabilities {
		// Report the final candidate under the true usage profile.
		best, err = safeEvaluate(opts.newEvaluator(sys, nil), best.Mapping)
		if err != nil {
			return nil, err
		}
	}
	out := &Result{
		Best:           best,
		ObjectivePower: objective,
		GA:             res,
		Elapsed:        elapsed,
		Partial:        res.Partial,
		Cache:          prob.cache.counters(),
		Faults:         guard.Faults(),
		Timings:        eval.Timings(),
	}
	if opts.Certify {
		// Best is always reported under the true probabilities, so the
		// certifier checks against the specification's distribution.
		var certStart time.Time
		if run.Active() {
			certStart = time.Now()
		}
		out.Certification = CertifyEvaluation(sys, best, nil, opts.CertifyOptions)
		if run.Active() {
			d := time.Since(certStart)
			out.Timings.Certify = d
			run.ObservePhase(obs.PhaseCertify, d)
			run.EmitSpan("certify", d)
		}
	}
	run.EmitRunEnd(obs.RunEndEvent{
		Generations: res.Generations,
		Evaluations: res.Evaluations,
		BestFitness: obs.Float(res.BestFitness),
		AvgPower:    obs.Float(best.AvgPower),
		Feasible:    best.Feasible(),
		Partial:     res.Partial,
		Reason:      res.Reason,
		ElapsedNs:   elapsed.Nanoseconds(),
	})
	return out, nil
}

// observeGenerations builds the per-generation observer: it refreshes the
// convergence gauges and, when tracing, emits one generation event with the
// best individual's power/penalty breakdown. The breakdown comes from a
// re-evaluation by quiet, an evaluator without instrumentation (memoised on
// the best genome), outside the engine's random stream, so observation
// perturbs neither the search nor the phase statistics.
func observeGenerations(run *obs.Run, quiet *Evaluator, codec *Codec, cache *fitnessCache[float64]) func(ga.GenerationStats) {
	reg := run.Registry()
	var lastKey string
	var lastEv *Evaluation
	return func(s ga.GenerationStats) {
		c := cache.counters()
		reg.Gauge("ga.generation").Set(float64(s.Generation))
		reg.Gauge("ga.best_fitness").Set(s.BestFitness)
		reg.Gauge("ga.mean_fitness").Set(s.MeanFitness)
		reg.Gauge("ga.diversity").Set(s.Diversity)
		reg.Gauge("ga.stagnant").Set(float64(s.Stagnant))
		reg.Gauge("ga.restarts").Set(float64(s.Restarts))
		reg.Gauge("cache.entries").Set(float64(c.Entries))
		reg.Gauge("cache.hit_rate").Set(c.HitRate())
		if !run.Tracing() {
			return
		}
		ev := obs.GenerationEvent{
			Gen:            s.Generation,
			BestFitness:    obs.Float(s.BestFitness),
			MeanFitness:    obs.Float(s.MeanFitness),
			Infeasible:     s.Infeasible,
			Evaluations:    s.Evaluations,
			Stagnant:       s.Stagnant,
			Restarts:       s.Restarts,
			Diversity:      s.Diversity,
			CacheHits:      c.Hits,
			CacheMisses:    c.Misses,
			CacheEvictions: c.Evictions,
			CacheHitRate:   c.HitRate(),
		}
		for i, m := range s.Mutators {
			ev.Mutations = append(ev.Mutations, obs.MutationStats{
				Name: MutationName(i), Attempts: m.Attempts, Accepted: m.Accepted, Improved: m.Improved,
			})
		}
		if key := codec.Key(s.BestGenome); key != lastKey || lastEv == nil {
			if be, err := safeEvaluate(quiet, codec.Decode(s.BestGenome)); err == nil {
				lastKey, lastEv = key, be
			}
		}
		if lastEv != nil {
			ev.AvgPower = obs.Float(lastEv.AvgPower)
			ev.TimingPenalty = obs.Float(lastEv.TimingPenalty)
			ev.AreaPenalty = obs.Float(lastEv.AreaPenalty)
			ev.TransPenalty = obs.Float(lastEv.TransPenalty)
			ev.Unroutable = lastEv.Unroutable
			ev.Feasible = lastEv.Feasible()
		}
		run.EmitGeneration(ev)
	}
}

// newEvaluator builds the evaluator of a run under these options; probs
// overrides the objective's mode probabilities (nil: the specification's).
// The evaluator carries no instrumentation; the caller attaches Obs.
func (o Options) newEvaluator(sys *model.System, probs []float64) *Evaluator {
	w := o.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	return &Evaluator{
		Sys: sys, UseDVS: o.UseDVS, Weights: w, Probs: probs,
		DVSSoftwareOnly:  o.DVSSoftwareOnly,
		NoReplicaCores:   o.NoReplicaCores,
		RefineIterations: o.RefineIterations,
	}
}

// checkResumable verifies a checkpoint belongs to this (spec, seed,
// options) triple before the engine trusts its population.
func checkResumable(cp *runctl.Checkpoint, sys *model.System, codec *Codec, opts Options) error {
	if cp.System != sys.App.Name {
		return fmt.Errorf("synth: checkpoint is for system %q, not %q", cp.System, sys.App.Name)
	}
	if cp.GenomeLen != codec.Len() {
		return fmt.Errorf("synth: checkpoint genome length %d does not match specification (%d tasks)",
			cp.GenomeLen, codec.Len())
	}
	if cp.Seed != opts.Seed {
		return fmt.Errorf("synth: checkpoint was written with seed %d, run uses seed %d", cp.Seed, opts.Seed)
	}
	if fp := opts.fingerprint(); cp.Fingerprint != fp {
		return fmt.Errorf("synth: checkpoint options %q do not match run options %q", cp.Fingerprint, fp)
	}
	return nil
}

// safeEvaluate evaluates the final mapping behind a recover barrier: after
// a partial run the best-so-far genome could in principle be one whose
// evaluation faults, and the closing report must survive that.
func safeEvaluate(eval *Evaluator, m model.Mapping) (ev *Evaluation, err error) {
	defer func() {
		if r := recover(); r != nil {
			ev, err = nil, fmt.Errorf("synth: final evaluation panicked: %v", r)
		}
	}()
	return eval.Evaluate(m)
}

// Exhaustive enumerates every mapping of the system and returns the best
// evaluation by fitness. It is exponential in the number of tasks and is
// intended for the paper's small motivational examples and for validating
// the GA on tiny instances. Cancelling ctx aborts the enumeration with the
// context's error; a nil ctx enumerates to completion.
func Exhaustive(ctx context.Context, sys *model.System, useDVS bool, probs []float64) (*Evaluation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	codec, err := NewCodec(sys)
	if err != nil {
		return nil, err
	}
	space := 1
	for k := 0; k < codec.Len(); k++ {
		space *= codec.Alleles(k)
		if space > 50_000_000 {
			return nil, fmt.Errorf("synth: exhaustive search space too large (>5e7 mappings)")
		}
	}
	eval := Options{UseDVS: useDVS}.newEvaluator(sys, probs)
	genome := make([]int, codec.Len())
	var mapping model.Mapping
	var best *Evaluation
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mapping = codec.decodeInto(mapping, genome)
		ev, err := eval.evaluate(mapping)
		if err != nil {
			return nil, err
		}
		if best == nil || ev.Fitness < best.Fitness {
			// The scratch evaluation and the decode buffer are reused by
			// the next candidate; keep copies of both.
			best = ev.clone()
			best.Mapping = mapping.Clone()
		}
		// Odometer increment.
		k := 0
		for k < len(genome) {
			genome[k]++
			if genome[k] < codec.Alleles(k) {
				break
			}
			genome[k] = 0
			k++
		}
		if k == len(genome) {
			break
		}
	}
	return best, nil
}
