package synth

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"momosyn/internal/ga"
)

// canonicalReport renders everything observable about a synthesis result —
// mapping, bit-exact powers, schedule slots, engine statistics — except the
// wall-clock time. Two runs are "the same" exactly when these strings are
// byte-identical.
func canonicalReport(res *Result) string {
	var b strings.Builder
	ev := res.Best
	fmt.Fprintf(&b, "fitness=%016x objective=%016x avg=%016x\n",
		math.Float64bits(ev.Fitness), math.Float64bits(res.ObjectivePower), math.Float64bits(ev.AvgPower))
	for m, mp := range ev.ModePowers {
		fmt.Fprintf(&b, "mode %d power=%016x\n", m, math.Float64bits(mp.Total()))
	}
	for m := range ev.Mapping {
		fmt.Fprintf(&b, "map %d:", m)
		for _, pe := range ev.Mapping[m] {
			fmt.Fprintf(&b, " %d", pe)
		}
		fmt.Fprintln(&b)
	}
	for _, sc := range ev.Schedules {
		fmt.Fprintf(&b, "sched mode=%d makespan=%016x\n", sc.Mode, math.Float64bits(sc.Makespan))
		for _, slot := range sc.Tasks {
			fmt.Fprintf(&b, "  task=%d pe=%d core=%d start=%016x finish=%016x\n",
				slot.Task, slot.PE, slot.Core, math.Float64bits(slot.Start), math.Float64bits(slot.Finish))
		}
	}
	fmt.Fprintf(&b, "ga gen=%d evals=%d best=%016x\n",
		res.GA.Generations, res.GA.Evaluations, math.Float64bits(res.GA.BestFitness))
	for _, h := range res.GA.History {
		fmt.Fprintf(&b, "hist %016x\n", math.Float64bits(h))
	}
	return b.String()
}

// TestSynthesizeDeterministic is the regression behind the detrand
// analyzer: the same seed and specification must reproduce the synthesis
// byte for byte, or checkpoint/resume and the paper tables are unsound.
func TestSynthesizeDeterministic(t *testing.T) {
	sys := testSystem(t)
	opts := Options{
		UseDVS: true,
		GA:     ga.Config{PopSize: 16, MaxGenerations: 25, Stagnation: 10},
		Seed:   42,
	}
	first, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := canonicalReport(first), canonicalReport(second)
	if a != b {
		t.Fatalf("same seed, different synthesis:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}
