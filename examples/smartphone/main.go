// Smartphone runs the paper's real-life benchmark end to end: the
// eight-mode smart phone (GSM phone + MP3 player + digital camera) on a
// DVS-enabled GPP with two ASICs, reproducing the four cells of paper
// Table 3 — synthesis with and without DVS, each with and without
// consideration of the mode execution probabilities.
//
//	go run ./examples/smartphone             # quick (1 run per cell)
//	go run ./examples/smartphone -reps 10    # smoother averages
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/model"
	"momosyn/internal/synth"
)

func main() {
	reps := flag.Int("reps", 3, "synthesis runs averaged per table cell")
	flag.Parse()

	sys, err := bench.SmartPhone()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Smart phone OMSM (paper Fig. 1a):")
	for _, m := range sys.App.Modes {
		fmt.Printf("  %-12s prob %.2f  period %4.0f ms  %2d tasks %3d edges\n",
			m.Name, m.Prob, m.Period*1e3, len(m.Graph.Tasks), len(m.Graph.Edges))
	}
	fmt.Printf("architecture: ")
	for i, pe := range sys.Arch.PEs {
		if i > 0 {
			fmt.Print(" + ")
		}
		fmt.Print(pe.Name)
		if pe.DVS {
			fmt.Print("(DVS)")
		}
	}
	fmt.Printf(" on %s\n\n", sys.Arch.CLs[0].Name)

	cfg := bench.DefaultGA()
	cell := func(useDVS, neglect bool) (float64, time.Duration) {
		sum, dur := 0.0, time.Duration(0)
		for r := 0; r < *reps; r++ {
			res, err := synth.Synthesize(sys, synth.Options{
				UseDVS:               useDVS,
				NeglectProbabilities: neglect,
				GA:                   cfg,
				Seed:                 int64(1 + r*7919),
			})
			if err != nil {
				log.Fatal(err)
			}
			sum += res.Best.AvgPower
			dur += res.Elapsed
		}
		return sum / float64(*reps), dur / time.Duration(*reps)
	}

	fmt.Printf("Table 3 (averaged over %d runs per cell):\n", *reps)
	fmt.Printf("%-22s | %12s %8s | %12s %8s | %7s\n",
		"Smart phone", "w/o prob.", "CPU", "with prob.", "CPU", "Reduc.")
	for _, useDVS := range []bool{false, true} {
		pn, tn := cell(useDVS, true)
		pp, tp := cell(useDVS, false)
		name := "w/o DVS"
		if useDVS {
			name = "with DVS"
		}
		fmt.Printf("%-22s | %9.4f mW %7.1fs | %9.4f mW %7.1fs | %6.2f%%\n",
			name, pn*1e3, tn.Seconds(), pp*1e3, tp.Seconds(), (pn-pp)/pn*100)
	}

	// Show where the proposed DVS implementation spends its power.
	res, err := synth.Synthesize(sys, synth.Options{UseDVS: true, GA: cfg, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nBest DVS implementation: %.4f mW average, feasible=%v\n",
		res.Best.AvgPower*1e3, res.Best.Feasible())
	fmt.Println("hardware cores allocated:")
	for _, pe := range sys.Arch.PEs {
		if !pe.Class.IsHardware() {
			continue
		}
		fmt.Printf("  %s:", pe.Name)
		for _, tt := range sys.Lib.Types {
			n := 0
			for m := range sys.App.Modes {
				if k := res.Best.Alloc.Instances(model.ModeID(m), pe.ID, tt.ID); k > n {
					n = k
				}
			}
			if n > 0 {
				fmt.Printf(" %s", tt.Name)
				if n > 1 {
					fmt.Printf("x%d", n)
				}
			}
		}
		fmt.Println()
	}
}
