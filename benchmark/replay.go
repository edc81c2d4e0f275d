package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/dvs"
	"momosyn/internal/energy"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/sched"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// engineLayers is the traced engine run. It runs one cell per spec
// untraced and the same cells with an obs run attached (their CPU-time
// difference is the tracing overhead), then replays decoded mappings through the public
// layer functions in Evaluate's order, runs the GA on a constant-cost
// problem of each spec's genome shape, and times the spec reader.
func engineLayers(c runConfig, w engineWorkload, texts []specText, specs []loadedSpec, cells []cell, powers map[int]float64) (map[string]metric, tally, error) {
	var t tally
	tr := &spans{}
	vals := map[string]float64{}

	// The first round: one cell per spec.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	untraced := engineRuns(w, specs, cells, order, powers, &t, nil, nil)
	run := obs.NewRun(obs.NewRegistry(), nil)
	traced := engineRuns(w, specs, cells, order, powers, &t, run, tr)
	var untracedCPU, tracedCPU, gaWall, evalPhases time.Duration
	var hits, lookups uint64
	var timings obs.Timings
	var evals, gens []float64
	for _, r := range untraced {
		untracedCPU += r.cpu
	}
	for _, r := range traced {
		tracedCPU += r.cpu
		timings.Add(r.res.Timings)
		gaWall += r.elapsed
		evalPhases += r.res.Timings.Total() - r.res.Timings.Certify
		hits += r.res.Cache.Hits
		lookups += r.res.Cache.Hits + r.res.Cache.Misses
		evals = append(evals, float64(r.evals))
		gens = append(gens, float64(r.gens))
	}
	vals["obs.trace_overhead_frac"] = ratio((tracedCPU - untracedCPU).Seconds(), untracedCPU.Seconds())
	nRuns := float64(len(traced))
	vals["synth.phase.mobility_s"] = ratio(timings.Mobility.Seconds(), nRuns)
	vals["synth.phase.core_alloc_s"] = ratio(timings.CoreAlloc.Seconds(), nRuns)
	vals["synth.phase.list_sched_s"] = ratio(timings.ListSched.Seconds(), nRuns)
	vals["synth.phase.comm_map_s"] = ratio(timings.CommMap.Seconds(), nRuns)
	vals["synth.phase.dvs_s"] = ratio(timings.DVS.Seconds(), nRuns)
	vals["synth.phase.refine_s"] = ratio(timings.Refine.Seconds(), nRuns)
	vals["synth.cache_hit_frac"] = ratio(float64(hits), float64(lookups))
	vals["ga.residual_frac"] = ratio((gaWall - evalPhases).Seconds(), gaWall.Seconds())
	vals["ga.evals_per_run"] = mean(evals)
	vals["ga.generations_per_run"] = mean(gens)
	vals["verify.certify_ms"] = tr.meanMS("verify.certify")

	// Replay each cell's best mapping plus a seeded codec sample.
	rng := rand.New(rand.NewSource(c.seed))
	var evalAllocs uint64
	var evalCount int
	for _, r := range traced {
		ls := specs[cells[r.cell].spec]
		mappings := []model.Mapping{r.res.Best.Mapping}
		for i := 0; i < replaySamples; i++ {
			mappings = append(mappings, ls.codec.Decode(randomGenome(ls.codec, rng)))
		}
		id := fmt.Sprintf("%s/seed%d", ls.name, cells[r.cell].seed)
		replayMappings(id, ls, w.dvs, mappings, tr, &t)
		a, n := evaluateAllocs(ls, mappings)
		evalAllocs += a
		evalCount += n
	}
	vals["synth.allocs_per_eval"] = ratio(float64(evalAllocs), float64(evalCount))
	for _, name := range []string{"sched.mobility", "sched.listsched", "synth.alloc", "dvs.scale", "synth.evaluate"} {
		vals[name+"_us"] = tr.meanUS(name)
	}
	scale, scaleCalls := tr.total("dvs.scale")
	vals["dvs.scale_calls"] = float64(scaleCalls)
	var layerSum time.Duration
	for _, name := range []string{"sched.mobility", "sched.listsched", "synth.alloc", "dvs.scale"} {
		d, _ := tr.total(name)
		layerSum += d
	}
	vals["dvs.share"] = ratio(scale.Seconds(), layerSum.Seconds())

	// GA engine overhead: the same engine and configuration on a problem
	// of each spec's genome shape whose fitness costs the same for every
	// genome, so the time per generation is the engine's own.
	var gaTime time.Duration
	var gaGens int
	for i, ls := range specs {
		_, end := tr.begin(ls.name, "ga.Run", 0)
		res := ga.Run(flatProblem{ls.codec}, bench.DefaultGA(), rand.New(rand.NewSource(c.seed+int64(i))))
		gaTime += end()
		gaGens += res.Generations
	}
	vals["ga.gen_us"] = ratio(micros(gaTime), float64(gaGens))

	timeSpecio(texts, specs, tr)
	vals["specio.read_us"] = tr.meanUS("specio.Read")
	vals["specio.canonical_us"] = tr.meanUS("specio.Canonical")
	vals["fail_frac"] = t.failFrac()

	where, err := tr.write(c.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, c.seed))
	if err != nil {
		return nil, t, err
	}
	fmt.Fprintf(c.report, "benchmark: traced %d runs (overhead %+.3f), replayed %d mappings; spans in %s\n",
		len(traced), vals["obs.trace_overhead_frac"], evalCount, where)
	return layerMetrics(vals), t, nil
}

// randomGenome draws one genome uniformly over the codec's alleles.
func randomGenome(codec *synth.Codec, rng *rand.Rand) []int {
	g := make([]int, codec.Len())
	for k := range g {
		g[k] = rng.Intn(codec.Alleles(k))
	}
	return g
}

// replayMappings runs each mapping through the public layer functions in
// Evaluate's order — mobility per mode, core allocation, then per mode
// list scheduling and (with DVS) voltage scaling — with a span around
// every call, recomputes the Eq. 1 power from the layer outputs, and
// checks it against Evaluator.Evaluate on the same mapping.
func replayMappings(id string, ls loadedSpec, useDVS bool, mappings []model.Mapping, tr *spans, t *tally) {
	s := ls.sys
	nModes := len(s.App.Modes)
	for i, mapping := range mappings {
		trace := fmt.Sprintf("%s/replay%d", id, i)
		root, endRoot := tr.begin(trace, "replay", 0)
		power, rerr := replayPower(s, mapping, useDVS, nModes, trace, root, tr)
		endRoot()

		_, end := tr.begin(trace, "synth.evaluate", 0)
		ev, err := ls.eval.Evaluate(mapping)
		end()
		switch {
		case err != nil || rerr != nil:
			t.check((err == nil) == (rerr == nil), "%s: replay error %v, Evaluate error %v", trace, rerr, err)
		case math.Float64bits(power) != math.Float64bits(ev.AvgPower):
			t.fail("%s: replayed power %v, Evaluate power %v", trace, power, ev.AvgPower)
		default:
			t.ok()
		}
	}
}

func replayPower(s *model.System, mapping model.Mapping, useDVS bool, nModes int, trace string, root int64, tr *spans) (float64, error) {
	mob := make([]*sched.Mobility, nModes)
	for m := 0; m < nModes; m++ {
		_, end := tr.begin(trace, "sched.mobility", root)
		mm, err := sched.ComputeMobility(s, model.ModeID(m), mapping)
		end()
		if err != nil {
			return 0, err
		}
		mob[m] = mm
	}
	_, end := tr.begin(trace, "synth.alloc", root)
	alloc := synth.AllocateCoresWith(s, mapping, mob, false)
	end()

	power := 0.0
	activePE := make([]bool, len(s.Arch.PEs))
	for m := 0; m < nModes; m++ {
		mode := s.App.Mode(model.ModeID(m))
		_, end := tr.begin(trace, "sched.listsched", root)
		sc, err := sched.ListSchedule(s, model.ModeID(m), mapping, alloc, mob[m])
		end()
		if err != nil {
			return 0, err
		}
		if useDVS {
			_, end := tr.begin(trace, "dvs.scale", root)
			dvs.ScaleWith(s, sc, dvs.Config{})
			end()
		}
		for pe := range activePE {
			activePE[pe] = mapping.UsesPE(model.ModeID(m), model.PEID(pe))
		}
		mp := energy.ModePower{
			DynamicEnergy: sc.DynamicEnergy(),
			Period:        mode.Period,
			StaticPower:   energy.StaticPower(s.Arch, activePE, sc.UsedCLs(s.Arch)),
		}
		power += mp.Total() * mode.Prob
	}
	return power, nil
}

// evaluateAllocs counts the heap allocations of Evaluate over the
// mappings; the loop does nothing else, so the count is Evaluate's own.
func evaluateAllocs(ls loadedSpec, mappings []model.Mapping) (uint64, int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range mappings {
		_, _ = ls.eval.Evaluate(m) // errors were checked by the replay
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, len(mappings)
}

// flatProblem has a spec's genome shape and a fitness whose cost does not
// depend on the genome.
type flatProblem struct{ codec *synth.Codec }

func (p flatProblem) GenomeLen() int    { return p.codec.Len() }
func (p flatProblem) Alleles(i int) int { return p.codec.Alleles(i) }
func (p flatProblem) Fitness(g []int) float64 {
	sum := 0
	for _, v := range g {
		sum += v
	}
	return float64(sum)
}

// timeSpecio times the spec reader and the canonical form on every spec.
func timeSpecio(texts []specText, specs []loadedSpec, tr *spans) {
	const reps = 5
	for r := 0; r < reps; r++ {
		for i, st := range texts {
			_, end := tr.begin(st.name, "specio.Read", 0)
			_, _ = specio.ReadBytes(st.text) // the set-up already read it once
			end()
			_, end = tr.begin(st.name, "specio.Canonical", 0)
			_, _ = specio.Canonical(specs[i].sys) // a pure function of a valid system
			end()
		}
	}
}
