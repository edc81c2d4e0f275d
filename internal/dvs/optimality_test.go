package dvs

import (
	"math"
	"testing"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// TestGreedyNearBruteForceOptimum anchors the greedy voltage-selection
// heuristic against the exhaustively enumerated optimum on a chain of
// three tasks with a shared deadline — small enough to try every discrete
// level combination. The greedy result must stay within 5% of the optimal
// energy (on most instances it matches exactly).
func TestGreedyNearBruteForceOptimum(t *testing.T) {
	levels := []float64{1.8, 2.5, 3.3}
	const vmax, vt = 3.3, 0.8
	times := []float64{10e-3, 6e-3, 14e-3}
	powers := []float64{5e-3, 9e-3, 3e-3}

	for _, laxity := range []float64{1.0, 1.3, 1.7, 2.4, 4.0} {
		serial := 0.0
		for _, tm := range times {
			serial += tm
		}
		period := serial * laxity

		b := model.NewBuilder("opt")
		b.AddPE(model.PE{
			Name: "cpu", Class: model.GPP, DVS: true,
			Vmax: vmax, Vt: vt, Levels: levels,
		})
		b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6}, "cpu")
		names := []string{"a", "b", "c"}
		for i := range names {
			b.AddType("t"+names[i], model.ImplSpec{PE: "cpu", Time: times[i], Power: powers[i]})
		}
		b.BeginMode("m", 1, period)
		for i, n := range names {
			b.AddTask(n, "t"+names[i], 0)
		}
		b.AddEdge("a", "b", 0)
		b.AddEdge("b", "c", 0)
		sys, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		mapping := model.NewMapping(sys.App)
		for ti := range mapping[0] {
			mapping[0][ti] = 0
		}
		sc, err := sched.ListSchedule(sys, 0, mapping, sched.SingleCores{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ScaleWith(sys, sc, Config{})
		if late := sc.Lateness(sys); late > 1e-9 {
			t.Fatalf("laxity %v: greedy scaling violated the deadline", laxity)
		}
		got := sc.DynamicEnergy()

		// Brute force: all 3^3 level assignments whose summed scaled times
		// fit the period.
		best := math.Inf(1)
		for i := 0; i < len(levels); i++ {
			for j := 0; j < len(levels); j++ {
				for k := 0; k < len(levels); k++ {
					lv := []int{i, j, k}
					total, e := 0.0, 0.0
					for x := 0; x < 3; x++ {
						total += energy.ScaledTime(times[x], levels[lv[x]], vmax, vt)
						e += energy.TaskEnergy(powers[x], times[x], levels[lv[x]], vmax)
					}
					if total <= period+1e-12 && e < best {
						best = e
					}
				}
			}
		}
		if got > best*1.05+1e-15 {
			t.Errorf("laxity %v: greedy energy %.6g > 1.05 x optimum %.6g", laxity, got, best)
		}
		if got < best-1e-15 {
			t.Errorf("laxity %v: greedy energy %.6g below the enumerated optimum %.6g (enumeration bug?)",
				laxity, got, best)
		}
	}
}
