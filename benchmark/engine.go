package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/perf"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
	"momosyn/internal/verify"
)

// engineWorkload is one of the two in-process synthesis workloads.
type engineWorkload struct {
	name string
	dvs  bool
	// specs are perf.ResolveSpecs names.
	specs []string
	// cells is the number of distinct (spec, seed) cells a run covers,
	// assigned to the specs round-robin. Many distinct cells keep the run
	// median from depending on which GA seeds the workload seed drew.
	cells int
}

// engine-nodvs: the whole mul suite with DVS off. Scheduling, core
// allocation, the fitness cache and the GA do all the work and dvs none,
// so it is the no-change control for a DVS change. Its GA configuration
// is the mmperf baseline's, so the two can be compared.
var engineNoDVS = engineWorkload{name: "engine-nodvs", dvs: false, specs: []string{"muls"}, cells: 24}

// engine-dvs: the paper's Table 2/3 configuration (DVS on) on the
// smartphone and the two muls whose run time DVS dominates most while a
// run stays short, so dvs.ScaleWith is the largest phase.
var engineDVS = engineWorkload{name: "engine-dvs", dvs: true, specs: []string{"smartphone", "mul9", "mul11"}, cells: 18}

// minRepeats is how many cells a run repeats at least, so that every run
// compares repeated powers; the rest of the run time repeats more.
const minRepeats = 4

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. A set-up takes milliseconds, so many repetitions cost about a
// second and keep the median steady.
const setupReps = 101

// replaySamples is the number of random mappings (drawn through the
// codec) replayed per cell in addition to the cell's best mapping.
const replaySamples = 24

// specText is one benchmark specification rendered as the text a user
// would submit or store.
type specText struct {
	name string
	text []byte
}

// cell is one (spec, GA seed) pair of a pass.
type cell struct {
	spec int // index into the spec texts
	seed int64
}

// engineInputs builds the workload's inputs from its seed: the spec texts
// (loaded through perf.ResolveSpecs, rendered by specio.Write) and the
// fixed (spec, seed) cell list every pass runs.
func engineInputs(w engineWorkload, seed int64) ([]specText, []cell, error) {
	resolved, err := perf.ResolveSpecs(w.specs)
	if err != nil {
		return nil, nil, err
	}
	texts, err := renderSpecs(resolved)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cells := make([]cell, w.cells)
	for k := range cells {
		cells[k] = cell{spec: k % len(texts), seed: 1 + rng.Int63n(1<<31)}
	}
	return texts, cells, nil
}

func renderSpecs(resolved []perf.Spec) ([]specText, error) {
	texts := make([]specText, len(resolved))
	for i, sp := range resolved {
		var buf bytes.Buffer
		if err := specio.Write(&buf, sp.Sys); err != nil {
			return nil, fmt.Errorf("render %s: %w", sp.Name, err)
		}
		texts[i] = specText{name: sp.Name, text: buf.Bytes()}
	}
	return texts, nil
}

// loadedSpec is a specification ready to synthesise.
type loadedSpec struct {
	name  string
	sys   *model.System
	eval  *synth.Evaluator
	codec *synth.Codec
}

// loadSpecs is the engine set-up: read and validate every spec text and
// build its evaluator and genome codec.
func loadSpecs(texts []specText, useDVS bool) ([]loadedSpec, error) {
	out := make([]loadedSpec, len(texts))
	for i, st := range texts {
		sys, err := specio.ReadBytes(st.text)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", st.name, err)
		}
		if err := sys.Validate(); err != nil {
			return nil, fmt.Errorf("validate %s: %w", st.name, err)
		}
		codec, err := synth.NewCodec(sys)
		if err != nil {
			return nil, fmt.Errorf("codec %s: %w", st.name, err)
		}
		out[i] = loadedSpec{name: st.name, sys: sys, eval: synth.NewEvaluator(sys, useDVS), codec: codec}
	}
	return out, nil
}

// runRecord is one synthesis run of a pass.
type runRecord struct {
	cell    int
	cpu     time.Duration // the Synthesize call, certification included
	wall    time.Duration // the same call in wall time
	evals   int
	gens    int
	power   float64
	res     *synth.Result
	elapsed time.Duration // the engine's own GA time
}

// engineRuns runs the cells with the given indices, in order, and checks
// each result: it must be certified, its power must equal every earlier
// repetition's, and re-evaluating its saved best mapping must reproduce
// that power and certify again. With run non-nil the syntheses carry that
// instrumentation run and tr receives a span per call.
func engineRuns(w engineWorkload, specs []loadedSpec, cells []cell, order []int, powers map[int]float64, t *tally, run *obs.Run, tr *spans) []runRecord {
	recs := make([]runRecord, 0, len(order))
	for _, ci := range order {
		c := cells[ci]
		ls := specs[c.spec]
		id := fmt.Sprintf("%s/seed%d", ls.name, c.seed)
		opts := synth.Options{UseDVS: w.dvs, GA: bench.DefaultGA(), Seed: c.seed, Certify: true, Obs: run}
		runtime.GC() // every run starts from a collected heap
		var end func() time.Duration
		if tr != nil {
			_, end = tr.begin(id, "synth.Synthesize", 0)
		}
		start, wallStart := cpuTime(), time.Now()
		res, err := synth.Synthesize(ls.sys, opts)
		cpu, wall := cpuTime()-start, time.Since(wallStart)
		if end != nil {
			end()
		}
		if err != nil {
			t.fail("%s: synthesize: %v", id, err)
			continue
		}
		if res.Partial || res.Certification == nil || !res.Certification.Certified() {
			t.fail("%s: result not certified (partial=%v)", id, res.Partial)
			continue
		}
		t.ok()
		power := res.Best.AvgPower
		if prev, seen := powers[ci]; seen {
			t.check(math.Float64bits(prev) == math.Float64bits(power),
				"%s: power %v differs from an earlier repetition's %v", id, power, prev)
		} else {
			powers[ci] = power
		}
		if err := reanswer(ls, res.Best.Mapping, power, tr, id); err != nil {
			t.fail("%s: %v", id, err)
		} else {
			t.ok()
		}
		recs = append(recs, runRecord{cell: ci, cpu: cpu, wall: wall, evals: res.GA.Evaluations,
			gens: res.GA.Generations, power: power, res: res, elapsed: res.Elapsed})
	}
	return recs
}

// reanswer answers an already solved cell again from its saved best
// mapping, as mmsynth -mapping does: evaluate it and certify the result,
// which must reproduce the synthesised power.
func reanswer(ls loadedSpec, mapping model.Mapping, power float64, tr *spans, id string) error {
	var end func() time.Duration
	if tr != nil {
		_, end = tr.begin(id, "reanswer", 0)
	}
	ev, err := ls.eval.Evaluate(mapping)
	var rep *verify.Report
	if err == nil {
		var endCert func() time.Duration
		if tr != nil {
			_, endCert = tr.begin(id, "verify.certify", 0)
		}
		rep = synth.CertifyEvaluation(ls.sys, ev, nil, verify.Options{})
		if endCert != nil {
			endCert()
		}
	}
	if end != nil {
		end()
	}
	switch {
	case err != nil:
		return fmt.Errorf("re-evaluating the best mapping: %w", err)
	case math.Float64bits(ev.AvgPower) != math.Float64bits(power):
		return fmt.Errorf("re-evaluated power %v, synthesis reported %v", ev.AvgPower, power)
	case !rep.Certified():
		return fmt.Errorf("re-evaluated best mapping not certified")
	}
	return nil
}

func runEngine(c runConfig, w engineWorkload) (map[string]metric, tally, error) {
	var t tally
	texts, cells, err := engineInputs(w, c.seed)
	if err != nil {
		return nil, t, err
	}
	// The set-up is made setupReps times, each from a collected heap, and
	// timed in its thread's CPU time like the other short engine calls;
	// setup_s is the median.
	var specs []loadedSpec
	var setupTimes []float64
	runtime.LockOSThread()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := threadCPUTime()
		specs, err = loadSpecs(texts, w.dvs)
		if err != nil {
			runtime.UnlockOSThread()
			return nil, t, err
		}
		setupTimes = append(setupTimes, (threadCPUTime() - start).Seconds())
	}
	runtime.UnlockOSThread()
	setupS := median(setupTimes)
	powers := make(map[int]float64)
	if c.trace {
		return engineLayers(c, w, texts, specs, cells, powers)
	}

	// Every cell once, then round again from the first cell until the run
	// time is spent, repeating at least minRepeats cells; the repeated
	// cells' powers are compared.
	var recs []runRecord
	start := time.Now()
	for i := 0; i < len(cells)+minRepeats || time.Since(start) < c.seconds; i++ {
		recs = append(recs, engineRuns(w, specs, cells, []int{i % len(cells)}, powers, &t, nil, nil)...)
	}
	window := time.Since(start)

	// Every cell counts once, so the figures do not depend on how many
	// repetitions the run time allowed, which are of the first cells only:
	// a cell's synthesis time is the mean over its runs.
	type cellTimes struct {
		cpu, wall time.Duration
		runs      int
		evals     int
	}
	per := make([]cellTimes, len(cells))
	for _, r := range recs {
		ct := &per[r.cell]
		if ct.runs == 0 {
			ct.evals = r.evals
		}
		ct.cpu += r.cpu
		ct.wall += r.wall
		ct.runs++
	}
	var cpus []float64
	var evals, cpuSum, wallSum float64
	for _, ct := range per {
		if ct.runs == 0 {
			continue // the cell failed, which the tally records
		}
		cpu := ct.cpu.Seconds() / float64(ct.runs)
		cpus = append(cpus, cpu)
		cpuSum += cpu
		wallSum += ct.wall.Seconds() / float64(ct.runs)
		evals += float64(ct.evals)
	}
	var cellPowers []float64
	for ci := range cells {
		if p, ok := powers[ci]; ok {
			cellPowers = append(cellPowers, p*1e3)
		}
	}
	// Every figure is CPU time; the report line adds the wall-time
	// evaluation rate, which hypervisor steal on a shared host makes too
	// unsteady for a bounded figure (README.md).
	synthP50, n := percentile(cpus, 0.5)
	m := e2eMetrics(map[string]float64{
		"setup_s":      setupS,
		"synth_s_p50":  synthP50,
		"evals_per_s":  ratio(evals, cpuSum),
		"power_mw_geo": geomean(cellPowers),
		"jobs_per_s":   ratio(float64(len(cpus)), cpuSum),
		"peak_rss_mb":  peakRSSMB(),
	})
	fmt.Fprintf(c.report, "benchmark: %d runs of %d cells in %.1fs; synth_s_p50 over n=%d cells; evals per wall s %.1f; fail_frac %.4f\n",
		len(recs), len(cells), window.Seconds(), n, ratio(evals, wallSum), t.failFrac())
	return m, t, nil
}
