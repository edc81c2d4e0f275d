// Command mmbench regenerates the experimental results of the DATE 2003
// multi-mode co-synthesis paper: Tables 1 and 2 (twelve generated
// benchmarks, without and with DVS), Table 3 (the smart-phone real-life
// example) and the motivational figures 2, 3 and 5.
//
//	mmbench -table 1 -reps 5
//	mmbench -table all -reps 40      # the paper's full protocol (slow)
//	mmbench -figures
//
// SIGINT/SIGTERM interrupt the experiment gracefully: in-flight synthesis
// runs stop at their next generation boundary, already-printed rows stand,
// and remaining cells report partial best-so-far numbers. An interrupted
// invocation still exits 0.
//
// With -certify every repetition's result is re-checked by the independent
// internal/verify certifier before it can enter a table; a refused
// certification aborts the experiment with exit code 4 (see docs/VERIFY.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"momosyn/internal/bench"
	"momosyn/internal/dvs"
	"momosyn/internal/energy"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/sched"
	"momosyn/internal/synth"
)

// closeObs flushes instrumentation before any exit path; mmbench exits via
// os.Exit, which skips defers, so fatal and main call it explicitly.
var closeObs = func() error { return nil }

func main() {
	def := bench.DefaultGA()
	var (
		table    = flag.String("table", "", "which table to regenerate: 1, 2, 3 or all")
		figures  = flag.Bool("figures", false, "reproduce the motivational figures 2, 3 and 5")
		ablation = flag.Bool("ablation", false, "ablation study of the design choices on the smart phone")
		reps     = flag.Int("reps", 5, "optimisation runs averaged per cell (paper: 40)")
		seed     = flag.Int64("seed", 1, "base seed")
		pop      = flag.Int("pop", def.PopSize, "GA population size")
		gens     = flag.Int("gens", def.MaxGenerations, "GA generation limit")
		stag     = flag.Int("stagnation", def.Stagnation, "GA stagnation limit")
		parallel = flag.Int("parallel", 4, "concurrent synthesis runs across the whole table (rows fan out onto a worker pool; printed output is identical to -parallel 1)")
		certify  = flag.Bool("certify", false, "independently certify every repetition's result; a refused certification exits 4")

		progress    = flag.Bool("progress", false, "print a stderr heartbeat after each benchmark row")
		tracePath   = flag.String("trace", "", "write a JSONL run-trace event stream (bench_row events) to this file")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the run's duration")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole experiment to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

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

	ctx, stop := runctl.NotifyContext(context.Background())
	defer stop()

	cfg := bench.HarnessConfig{
		Reps:     *reps,
		BaseSeed: *seed,
		Parallel: *parallel,
		GA:       ga.Config{PopSize: *pop, MaxGenerations: *gens, Stagnation: *stag},
		Context:  ctx,
		Certify:  *certify,
		Obs:      run,
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	if *figures {
		if err := runFigures(); err != nil {
			fatal(err)
		}
	}
	if *ablation {
		if err := runAblation(cfg); err != nil {
			fatal(err)
		}
	}
	switch *table {
	case "":
		if !*figures && !*ablation {
			flag.Usage()
			os.Exit(1)
		}
	case "1":
		must(bench.Table1(cfg, os.Stdout))
	case "2":
		must(bench.Table2(cfg, os.Stdout))
	case "3":
		must(bench.Table3(cfg, os.Stdout))
	case "all":
		fmt.Println("== Table 1: mul1-mul12, considering execution probabilities (w/o DVS) ==")
		must(bench.Table1(cfg, os.Stdout))
		fmt.Println("\n== Table 2: mul1-mul12, with DVS ==")
		must(bench.Table2(cfg, os.Stdout))
		fmt.Println("\n== Table 3: smart phone ==")
		must(bench.Table3(cfg, os.Stdout))
	default:
		fatal(fmt.Errorf("unknown table %q", *table))
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "mmbench: interrupted (%v) — reported numbers are partial best-so-far results\n",
			context.Cause(ctx))
	}
	if err := closeObs(); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
}

func must(rows []bench.Row, err error) {
	if err != nil {
		fatal(err)
	}
	_ = rows
}

// runFigures reproduces the paper's worked examples with exact arithmetic.
func runFigures() error {
	fmt.Println("== Figure 2: mode execution probabilities (motivational example 1) ==")
	sys, err := bench.Figure2System()
	if err != nil {
		return err
	}
	ev := synth.NewEvaluator(sys, false)
	evB, err := ev.Evaluate(bench.Figure2MappingB(sys))
	if err != nil {
		return err
	}
	evC, err := ev.Evaluate(bench.Figure2MappingC(sys))
	if err != nil {
		return err
	}
	fmt.Printf("mapping 2b (probability-neglecting optimum): %8.4f mWs  (paper: 26.7158)\n", evB.AvgPower*1e3)
	fmt.Printf("mapping 2c (probability-aware optimum):      %8.4f mWs  (paper: 15.7423)\n", evC.AvgPower*1e3)
	fmt.Printf("reduction: %.1f%% (paper: 41%%)\n", energy.RelativeReduction(evB.AvgPower, evC.AvgPower))

	fmt.Println("\n== Figure 3: multiple task implementations (motivational example 2) ==")
	sys3, err := bench.Figure3System()
	if err != nil {
		return err
	}
	ev3 := synth.NewEvaluator(sys3, false)
	shared, err := ev3.Evaluate(bench.Figure3MappingShared(sys3))
	if err != nil {
		return err
	}
	dup, err := ev3.Evaluate(bench.Figure3MappingDuplicated(sys3))
	if err != nil {
		return err
	}
	fmt.Printf("mapping 3b (hardware sharing, no shut-down): %8.4f mW\n", shared.AvgPower*1e3)
	fmt.Printf("mapping 3c (duplicated type, PE1 shut down): %8.4f mW\n", dup.AvgPower*1e3)
	fmt.Printf("duplicating the shared task type saves %.1f%%\n",
		energy.RelativeReduction(shared.AvgPower, dup.AvgPower))

	fmt.Println("\n== Figure 5: DVS transformation for hardware cores ==")
	slots := []sched.TaskSlot{
		{Task: 0, Core: 0, Start: 0, Finish: 4, Power: 1e-3},
		{Task: 1, Core: 0, Start: 4, Finish: 6, Power: 2e-3},
		{Task: 2, Core: 1, Start: 1, Finish: 4, Power: 4e-3},
		{Task: 3, Core: 1, Start: 4, Finish: 5, Power: 8e-3},
		{Task: 4, Core: 1, Start: 5, Finish: 6, Power: 16e-3},
	}
	fmt.Println("5 hardware tasks on 2 cores fold into sequential virtual tasks:")
	for i, seg := range dvs.Transform(slots) {
		fmt.Printf("  segment %d: [%g, %g)  combined power %.0f mW  tasks %v\n",
			i, seg.Start, seg.End, seg.Power*1e3, seg.Active)
	}
	fmt.Println()
	return nil
}

// runAblation removes one methodology ingredient at a time and reports the
// power cost of each removal, on the smart phone and on mul11 (which has a
// DVS-enabled ASIC, so the hardware-DVS ablation is informative).
func runAblation(cfg bench.HarnessConfig) error {
	phone, err := bench.SmartPhone()
	if err != nil {
		return err
	}
	mul11, err := bench.MulSystem(11)
	if err != nil {
		return err
	}
	for _, subject := range []struct {
		name string
		sys  *model.System
	}{{"smart phone", phone}, {"mul11 (DVS ASIC)", mul11}} {
		fmt.Printf("== Ablation study: %s, DVS enabled ==\n", subject.name)
		fmt.Printf("%-28s | %13s | %12s |\n", "variant", "avg power", "delta")
		if _, err := bench.AblationStudy(subject.sys, true, cfg, os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// fatal maps failures to the exit-code contract: a result the certifier
// refused exits 4, every other runtime failure exits 1.
func fatal(err error) {
	_ = closeObs() // flush whatever trace/metrics exist before dying
	fmt.Fprintln(os.Stderr, "mmbench:", err)
	if errors.Is(err, bench.ErrCertification) {
		os.Exit(4)
	}
	os.Exit(1)
}
