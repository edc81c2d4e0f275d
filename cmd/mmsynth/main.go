// Command mmsynth synthesises an energy-efficient implementation of a
// multi-mode system specification: task mapping, hardware core allocation,
// communication mapping, scheduling and (optionally) voltage scaling, per
// the DATE 2003 methodology of Schmitz, Al-Hashimi and Eles.
//
//	mmgen -seed 7 | mmsynth -dvs
//	mmsynth -spec smartphone.spec -dvs -v
//	mmsynth -spec big.spec -checkpoint run.ckpt -timeout 10m
//	mmsynth -spec big.spec -checkpoint run.ckpt -resume
//
// Long runs are interruptible: SIGINT/SIGTERM stop the optimisation at the
// next generation boundary, print the best-so-far implementation, write a
// final checkpoint (when -checkpoint is set) and exit 0. See docs/RUNCTL.md.
//
// With -certify the final implementation is re-checked by the independent
// internal/verify certifier (see docs/VERIFY.md); a result the certifier
// refuses makes the run exit 4.
//
// Exit codes: 0 success (including interrupted best-so-far runs), 1 runtime
// failure, 2 usage error, 3 completed run whose best implementation is
// infeasible, 4 certification failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"momosyn/internal/bench"
	"momosyn/internal/ga"
	"momosyn/internal/gantt"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
	"momosyn/internal/verify"
	"momosyn/internal/verify/faultinj"
)

// closeObs flushes instrumentation (trace, metrics snapshot, profiles)
// before any exit path. mmsynth exits via os.Exit, which skips defers, so
// every exit calls this explicitly; main replaces it when -trace/-metrics/
// -pprof are in use.
var closeObs = func() error { return nil }

func main() {
	def := bench.DefaultGA()
	var (
		specPath  = flag.String("spec", "", "specification file (default: stdin)")
		useDVS    = flag.Bool("dvs", false, "enable dynamic voltage scaling")
		neglect   = flag.Bool("neglect-probabilities", false, "optimise assuming uniform mode probabilities (baseline)")
		seed      = flag.Int64("seed", 1, "optimisation seed")
		pop       = flag.Int("pop", def.PopSize, "GA population size")
		gens      = flag.Int("gens", def.MaxGenerations, "GA generation limit")
		stag      = flag.Int("stagnation", def.Stagnation, "GA stagnation limit")
		verbose   = flag.Bool("v", false, "print the per-mode schedules")
		save      = flag.String("save", "", "write the best task mapping to this file")
		useMap    = flag.String("mapping", "", "evaluate a saved mapping instead of synthesising")
		showGantt = flag.Bool("gantt", false, "print text Gantt charts of the per-mode schedules")
		svgPrefix = flag.String("svg", "", "write one SVG Gantt chart per mode to PREFIX-<mode>.svg")

		checkpoint  = flag.String("checkpoint", "", "persist engine state to this file for crash recovery")
		ckptEvery   = flag.Int("checkpoint-every", 10, "generations between checkpoints")
		resume      = flag.Bool("resume", false, "resume the run stored in -checkpoint (same spec, seed and flags required)")
		timeout     = flag.Duration("timeout", 0, "optimisation deadline (e.g. 10m); on expiry the best-so-far result is reported")
		stall       = flag.Int("stall", 0, "stall watchdog: re-randomise the worst half after this many generations without improvement (0 = off)")
		faultBudget = flag.Int("fault-budget", 64, "distinct panicking genomes tolerated before the run aborts")
		certify     = flag.Bool("certify", false, "independently certify the final implementation; refused certification exits 4")

		tracePath   = flag.String("trace", "", "write a JSONL run-trace event stream to this file (see docs/OBSERVABILITY.md)")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the run's duration")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		fatalUsage(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *resume && *checkpoint == "" {
		fatalUsage(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *useMap != "" && (*resume || *checkpoint != "") {
		fatalUsage(fmt.Errorf("-mapping cannot be combined with -checkpoint/-resume"))
	}
	if *ckptEvery <= 0 {
		fatalUsage(fmt.Errorf("-checkpoint-every must be positive"))
	}
	run, closer, err := obs.Setup(obs.SetupConfig{
		TracePath:      *tracePath,
		MetricsPath:    *metricsPath,
		PprofAddr:      *pprofAddr,
		CPUProfilePath: *cpuProfile,
		MemProfilePath: *memProfile,
	})
	if err != nil {
		fatal(err)
	}
	closeObs = closer

	var in io.Reader = os.Stdin
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	sys, warns, err := specio.ReadWarn(in)
	if err != nil {
		fatal(err)
	}
	for _, w := range warns {
		fmt.Fprintln(os.Stderr, "mmsynth:", w)
	}

	var res *synth.Result
	if *useMap != "" {
		f, err := os.Open(*useMap)
		if err != nil {
			fatal(err)
		}
		mapping, err := specio.ReadMapping(f, sys)
		f.Close()
		if err != nil {
			fatal(err)
		}
		e := synth.NewEvaluator(sys, *useDVS)
		e.Obs = run
		ev, err := e.Evaluate(mapping)
		if err != nil {
			fatal(err)
		}
		res = &synth.Result{Best: ev, ObjectivePower: ev.AvgPower, GA: &ga.Result{}}
	} else {
		ctx, stop := runctl.NotifyContext(context.Background())
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		var err error
		res, err = synth.Synthesize(sys, synth.Options{
			UseDVS:               *useDVS,
			NeglectProbabilities: *neglect,
			GA:                   ga.Config{PopSize: *pop, MaxGenerations: *gens, Stagnation: *stag},
			Seed:                 *seed,
			Context:              ctx,
			CheckpointPath:       *checkpoint,
			CheckpointEvery:      *ckptEvery,
			Resume:               *resume,
			FaultBudget:          *faultBudget,
			StallWindow:          *stall,
			Obs:                  run,
		})
		if err != nil {
			fatal(err)
		}
	}
	if *save != "" && res.Best != nil {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := specio.WriteMapping(f, sys, res.Best.Mapping); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote mapping to %s\n", *save)
	}
	report(os.Stdout, sys, res, *verbose)
	if res.Best != nil && *showGantt {
		fmt.Println()
		for m := range sys.App.Modes {
			if err := gantt.WriteText(os.Stdout, sys, model.ModeID(m), res.Best.Schedules[m], 100); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	}
	if res.Best != nil && *svgPrefix != "" {
		for m, mode := range sys.App.Modes {
			path := fmt.Sprintf("%s-%s.svg", *svgPrefix, mode.Name)
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := gantt.WriteSVG(f, sys, model.ModeID(m), res.Best.Schedules[m]); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	// Interrupted runs exit 0: the user asked the run to stop and got the
	// best-so-far answer. Only a COMPLETED run whose best implementation
	// violates constraints signals infeasibility.
	exit := 0
	if !res.Partial && (res.Best == nil || !res.Best.Feasible()) {
		exit = 3
	}
	if *certify {
		// MMSYNTH_FAULT_INJECT corrupts the result before certification —
		// the test hook proving a refused certification reaches exit 4.
		if class := os.Getenv("MMSYNTH_FAULT_INJECT"); class != "" && res.Best != nil {
			if _, err := faultinj.Apply(class, sys, res.Best); err != nil {
				fatal(err)
			}
		}
		rep := synth.CertifyEvaluation(sys, res.Best, nil, verify.Options{})
		fmt.Printf("\ncertification: %s\n", rep)
		if !rep.Certified() {
			exit = 4
		}
	}
	if err := closeObs(); err != nil {
		fmt.Fprintln(os.Stderr, "mmsynth:", err)
		if exit == 0 {
			exit = 1
		}
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// report renders the run outcome. It must never assume a complete result:
// interrupted or heavily faulted runs can carry a nil Best or a nil GA
// block, and the closing report is exactly when those runs most need
// readable output.
func report(w io.Writer, sys *model.System, res *synth.Result, verbose bool) {
	fmt.Fprintf(w, "system      : %s (%d modes, %d tasks)\n",
		sys.App.Name, len(sys.App.Modes), sys.App.TotalTasks())
	if res == nil {
		fmt.Fprintf(w, "status      : no result\n")
		return
	}
	if res.Partial {
		reason := ""
		if res.GA != nil {
			reason = res.GA.Reason
		}
		fmt.Fprintf(w, "status      : partial (%s) — best-so-far result below\n", reason)
	}
	if res.GA != nil {
		fmt.Fprintf(w, "optimisation: %d generations, %d evaluations, %v\n",
			res.GA.Generations, res.GA.Evaluations, res.Elapsed.Round(1e6))
		if res.GA.Restarts > 0 {
			fmt.Fprintf(w, "watchdog    : %d diversity-injection restart(s)\n", res.GA.Restarts)
		}
	}
	if res.Cache.Hits+res.Cache.Misses > 0 {
		fmt.Fprintf(w, "fitness cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d/%d entries\n",
			res.Cache.Hits, res.Cache.Misses, 100*res.Cache.HitRate(),
			res.Cache.Evictions, res.Cache.Entries, res.Cache.Capacity)
	}
	// Instrumentation-only detail: printed only when -trace/-metrics/-pprof
	// attached a run, so the uninstrumented report stays byte-identical.
	if res.Timings.Evaluations > 0 {
		if res.GA != nil && len(res.GA.Mutators) > 0 {
			fmt.Fprintf(w, "mutations   :")
			for i, m := range res.GA.Mutators {
				fmt.Fprintf(w, " %s %d/%d/%d", synth.MutationName(i), m.Improved, m.Accepted, m.Attempts)
			}
			fmt.Fprintf(w, " (improved/accepted/attempted)\n")
		}
		t := res.Timings
		fmt.Fprintf(w, "phase times : mobility %v, core-alloc %v, list-sched %v (comm-map %v), dvs %v, certify %v over %d evaluations\n",
			t.Mobility.Round(1e6), t.CoreAlloc.Round(1e6), t.ListSched.Round(1e6),
			t.CommMap.Round(1e6), t.DVS.Round(1e6), t.Certify.Round(1e6), t.Evaluations)
	}
	if len(res.Faults) > 0 {
		fmt.Fprintf(w, "eval faults : %d genome(s) panicked during evaluation and were marked infeasible\n", len(res.Faults))
		for i, f := range res.Faults {
			fmt.Fprintf(w, "  fault %d: attempts=%d panic: %s\n", i+1, f.Attempts, f.Err)
		}
	}
	best := res.Best
	if best == nil {
		fmt.Fprintf(w, "no evaluated implementation available (run stopped before the first evaluation)\n")
		return
	}
	fmt.Fprintf(w, "average power: %s (Eq. 1, true probabilities)\n", fmtPower(best.AvgPower))
	fmt.Fprintf(w, "feasible    : %v\n", best.Feasible())

	fmt.Fprintf(w, "\n%-16s %10s %12s %12s %10s\n", "mode", "prob", "dynamic", "static", "weighted")
	for m, mode := range sys.App.Modes {
		mp := best.ModePowers[m]
		fmt.Fprintf(w, "%-16s %10.4f %12s %12s %10s\n",
			mode.Name, mode.Prob,
			fmtPower(mp.Dynamic()), fmtPower(mp.StaticPower),
			fmtPower(mp.Total()*mode.Prob))
	}

	fmt.Fprintf(w, "\nhardware cores:\n")
	for _, pe := range sys.Arch.PEs {
		if !pe.Class.IsHardware() {
			continue
		}
		names := coreNames(sys, best, pe.ID)
		fmt.Fprintf(w, "  %-8s area %4d/%4d cells: %s\n",
			pe.Name, maxUsed(best, pe.ID), pe.Area, names)
	}

	fmt.Fprintf(w, "\ntask mapping:\n")
	for m, mode := range sys.App.Modes {
		fmt.Fprintf(w, "  %s:", mode.Name)
		for ti, task := range mode.Graph.Tasks {
			fmt.Fprintf(w, " %s->%s", task.Name, sys.Arch.PE(best.Mapping[m][ti]).Name)
		}
		fmt.Fprintln(w)
	}

	if !verbose {
		return
	}
	fmt.Fprintf(w, "\nschedules:\n")
	for m, mode := range sys.App.Modes {
		sc := best.Schedules[m]
		fmt.Fprintf(w, "  mode %s (period %s, makespan %s):\n",
			mode.Name, specio.FormatTime(mode.Period), specio.FormatTime(sc.Makespan))
		order := make([]int, len(sc.Tasks))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return sc.Tasks[order[a]].Start < sc.Tasks[order[b]].Start })
		for _, ti := range order {
			slot := sc.Tasks[ti]
			pe := sys.Arch.PE(slot.PE)
			volt := ""
			if slot.VoltIdx >= 0 && pe.DVS {
				volt = fmt.Sprintf(" @%gV", pe.Levels[slot.VoltIdx])
			}
			fmt.Fprintf(w, "    %-14s [%10s %10s] on %s%s  E=%s\n",
				mode.Graph.Task(model.TaskID(ti)).Name,
				specio.FormatTime(slot.Start), specio.FormatTime(slot.Finish),
				pe.Name, volt, fmtEnergy(slot.Energy))
		}
	}
}

// fmtPower renders watts compactly for reports (fixed digits, unlike the
// spec writer's loss-free form).
func fmtPower(w float64) string {
	switch {
	case w >= 1:
		return fmt.Sprintf("%.4gW", w)
	case w >= 1e-3:
		return fmt.Sprintf("%.4gmW", w*1e3)
	default:
		return fmt.Sprintf("%.4guW", w*1e6)
	}
}

func fmtEnergy(j float64) string {
	switch {
	case j >= 1e-3:
		return fmt.Sprintf("%.3gmJ", j*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3guJ", j*1e6)
	default:
		return fmt.Sprintf("%.3gnJ", j*1e9)
	}
}

// coreNames lists the task types with at least one core instance on the PE
// in any mode, with instance counts.
func coreNames(sys *model.System, ev *synth.Evaluation, pe model.PEID) string {
	out := ""
	for _, tt := range sys.Lib.Types {
		max := 0
		for m := range sys.App.Modes {
			if n := ev.Alloc.Instances(model.ModeID(m), pe, tt.ID); n > max {
				max = n
			}
		}
		if max == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += tt.Name
		if max > 1 {
			out += fmt.Sprintf("x%d", max)
		}
	}
	if out == "" {
		return "(none)"
	}
	return out
}

func maxUsed(ev *synth.Evaluation, pe model.PEID) int {
	max := 0
	for m := range ev.Alloc.UsedArea {
		if a := ev.Alloc.UsedArea[m][pe]; a > max {
			max = a
		}
	}
	return max
}

// fatal reports a runtime failure (exit 1): I/O errors, malformed specs,
// synthesis errors.
func fatal(err error) {
	_ = closeObs() // flush whatever trace/metrics exist before dying
	fmt.Fprintln(os.Stderr, "mmsynth:", err)
	os.Exit(1)
}

// fatalUsage reports a command-line usage error (exit 2), matching the
// flag package's own exit code for unparsable flags.
func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "mmsynth:", err)
	flag.Usage()
	os.Exit(2)
}
