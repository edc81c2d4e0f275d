// Command mmsim synthesises an implementation of a multi-mode system and
// validates it by discrete-event simulation: a random usage trace is
// generated from the OMSM's transition structure (long-run mode
// residencies converge to the specified execution probabilities), played
// against the implementation's per-mode schedules, and the measured
// average power is compared with the analytical Eq. (1) prediction.
//
//	mmgen -smartphone | mmsim -dvs -horizon 3600
//
// With -certify the implementation is re-checked by the independent
// internal/verify certifier before simulation; a refused certification
// exits 4 (see docs/VERIFY.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"momosyn/internal/bench"
	"momosyn/internal/ga"
	"momosyn/internal/obs"
	"momosyn/internal/sim"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
	"momosyn/internal/verify"
)

// closeObs flushes instrumentation before any exit path; mmsim exits via
// os.Exit, which skips defers, so fatal and main call it explicitly.
var closeObs = func() error { return nil }

func main() {
	def := bench.DefaultGA()
	var (
		specPath  = flag.String("spec", "", "specification file (default: stdin)")
		useDVS    = flag.Bool("dvs", false, "enable dynamic voltage scaling")
		neglect   = flag.Bool("neglect-probabilities", false, "baseline synthesis (uniform probabilities)")
		seed      = flag.Int64("seed", 1, "seed for synthesis and trace")
		horizon   = flag.Float64("horizon", 3600, "simulated operational time in seconds")
		dwell     = flag.Float64("dwell", 5, "mean mode dwell time in seconds")
		pop       = flag.Int("pop", def.PopSize, "GA population size")
		gens      = flag.Int("gens", def.MaxGenerations, "GA generation limit")
		useMap    = flag.String("mapping", "", "simulate a saved mapping instead of synthesising")
		useTrace  = flag.String("trace", "", "replay a recorded trace file instead of generating one")
		saveTrace = flag.String("save-trace", "", "record the generated trace to this file")
		certify   = flag.Bool("certify", false, "independently certify the implementation before simulating; refused certification exits 4")

		// -trace already means usage-trace replay here, so the run-trace
		// event stream gets its own flag name.
		runTrace    = flag.String("run-trace", "", "write a JSONL run-trace event stream of the synthesis to this file")
		metricsPath = flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the run's duration")
	)
	flag.Parse()

	run, closer, err := obs.Setup(obs.SetupConfig{
		TracePath:   *runTrace,
		MetricsPath: *metricsPath,
		PprofAddr:   *pprofAddr,
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
		fmt.Fprintln(os.Stderr, "mmsim:", w)
	}

	var impl *synth.Evaluation
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
		impl, err = e.Evaluate(mapping)
		if err != nil {
			fatal(err)
		}
	} else {
		res, err := synth.Synthesize(sys, synth.Options{
			UseDVS:               *useDVS,
			NeglectProbabilities: *neglect,
			GA:                   ga.Config{PopSize: *pop, MaxGenerations: *gens},
			Seed:                 *seed,
			Obs:                  run,
		})
		if err != nil {
			fatal(err)
		}
		impl = res.Best
	}
	if *certify {
		rep := synth.CertifyEvaluation(sys, impl, nil, verify.Options{})
		fmt.Printf("certification   : %s\n", rep)
		if !rep.Certified() {
			_ = closeObs()
			os.Exit(4)
		}
	}

	var trace sim.Trace
	if *useTrace != "" {
		f, err := os.Open(*useTrace)
		if err != nil {
			fatal(err)
		}
		trace, err = sim.ReadTrace(f, sys.App)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		trace, err = sim.GenerateTrace(sys.App, sim.TraceConfig{
			Horizon: *horizon, MeanDwell: *dwell, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fatal(err)
		}
		if err := sim.WriteTrace(f, sys.App, trace); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	out, err := sim.Run(sys, impl, trace)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("system          : %s (%d modes)\n", sys.App.Name, len(sys.App.Modes))
	fmt.Printf("trace           : %d mode visits over %.1f s (%d switches)\n",
		len(trace), out.Duration, out.TransitionCount)
	fmt.Printf("reconfiguration : %.3f s total", out.TransitionTime)
	if out.DeadlineViolations > 0 {
		fmt.Printf("  (%d transition-time violations!)", out.DeadlineViolations)
	}
	fmt.Println()
	fmt.Printf("\n%-12s %8s %10s %14s\n", "mode", "Ψ spec", "realised", "hyper-periods")
	for i, m := range sys.App.Modes {
		fmt.Printf("%-12s %8.3f %10.3f %14d\n", m.Name, m.Prob, out.Residency[i], out.HyperPeriods[i])
	}

	simulated := out.AveragePower()
	predTrace := sim.PredictedPower(sys, impl, out.Residency)
	fmt.Printf("\nsimulated average power        : %10.6f mW\n", simulated*1e3)
	fmt.Printf("Eq.(1) @ realised residencies  : %10.6f mW (%+.2f%%)\n",
		predTrace*1e3, (simulated-predTrace)/predTrace*100)
	fmt.Printf("Eq.(1) @ specified probabilities: %9.6f mW (synthesis objective)\n",
		impl.AvgPower*1e3)
	fmt.Printf("energy split: dynamic %.3f J, static %.3f J\n", out.DynamicEnergy, out.StaticEnergy)
	if err := closeObs(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	_ = closeObs() // flush whatever trace/metrics exist before dying
	fmt.Fprintln(os.Stderr, "mmsim:", err)
	os.Exit(1)
}
