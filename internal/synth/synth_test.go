package synth

import (
	"math"
	"math/rand"
	"testing"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// testSystem builds a two-mode system over a GPP and an ASIC with a shared
// task type plus mode-private types, matching the structures the synthesis
// must reason about (sharing, shut-down, area limits).
func testSystem(t *testing.T) *model.System {
	t.Helper()
	b := model.NewBuilder("synthtest")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8, StaticPower: 1e-4})
	b.AddPE(model.PE{Name: "hw", Class: model.ASIC, Vmax: 3.3, Vt: 0.8, Area: 400, StaticPower: 5e-4})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6, StaticPower: 1e-5}, "cpu", "hw")
	b.AddType("shared",
		model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 4e-3},
		model.ImplSpec{PE: "hw", Time: 1e-3, Power: 0.2e-3, Area: 150},
	)
	b.AddType("swonly", model.ImplSpec{PE: "cpu", Time: 5e-3, Power: 2e-3})
	b.AddType("hwable",
		model.ImplSpec{PE: "cpu", Time: 8e-3, Power: 3e-3},
		model.ImplSpec{PE: "hw", Time: 0.5e-3, Power: 0.3e-3, Area: 300},
	)
	b.BeginMode("m0", 0.8, 0.1)
	b.AddTask("a", "shared", 0)
	b.AddTask("b", "swonly", 0)
	b.AddEdge("a", "b", 500)
	b.BeginMode("m1", 0.2, 0.1)
	b.AddTask("a", "shared", 0)
	b.AddTask("c", "hwable", 0)
	b.AddTask("d", "hwable", 0)
	b.AddEdge("a", "c", 500)
	b.AddEdge("a", "d", 500)
	b.AddTransition("m0", "m1", 0.02)
	b.AddTransition("m1", "m0", 0.02)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestCodecRoundTrip(t *testing.T) {
	sys := testSystem(t)
	codec, err := NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	if codec.Len() != 5 {
		t.Fatalf("genome length = %d, want 5", codec.Len())
	}
	// swonly has one candidate, the others two.
	wantAlleles := []int{2, 1, 2, 2, 2}
	for k := 0; k < codec.Len(); k++ {
		if codec.Alleles(k) != wantAlleles[k] {
			t.Errorf("alleles(%d) = %d, want %d", k, codec.Alleles(k), wantAlleles[k])
		}
	}
	genome := []int{1, 0, 0, 1, 0}
	m := codec.Decode(genome)
	if err := m.Validate(sys); err != nil {
		t.Fatalf("decoded mapping invalid: %v", err)
	}
	back := codec.Encode(m)
	for k := range genome {
		if back[k] != genome[k] {
			t.Fatalf("round trip mismatch at locus %d: %v vs %v", k, back, genome)
		}
	}
	if codec.Key(genome) == codec.Key(back[:4]) {
		t.Error("different-length genomes must not collide")
	}
}

func TestCodecSetPE(t *testing.T) {
	sys := testSystem(t)
	codec, _ := NewCodec(sys)
	genome := make([]int, codec.Len())
	if !codec.SetPE(genome, 0, 1) {
		t.Fatal("shared type must accept the hw PE")
	}
	if codec.PEAt(genome, 0) != 1 {
		t.Error("SetPE did not take effect")
	}
	if codec.SetPE(genome, 1, 1) {
		t.Error("swonly must reject the hw PE")
	}
}

func TestAllocationMandatoryCores(t *testing.T) {
	sys := testSystem(t)
	m := model.NewMapping(sys.App)
	// Everything software except task c (hwable) in mode 1.
	m[0][0], m[0][1] = 0, 0
	m[1][0], m[1][1], m[1][2] = 0, 1, 0
	mob := mobilities(t, sys, m)
	alloc := AllocateCoresWith(sys, m, mob, false)
	if got := alloc.Instances(1, 1, 2); got != 1 {
		t.Errorf("hwable instances in mode 1 = %d, want 1", got)
	}
	if got := alloc.Instances(0, 1, 2); got != 1 {
		t.Errorf("ASIC cores persist across modes, got %d", got)
	}
	if !alloc.AreaFeasible() {
		t.Error("single 300-cell core fits the 400-cell ASIC")
	}
	if alloc.UsedArea[0][1] != 300 {
		t.Errorf("used area = %d, want 300", alloc.UsedArea[0][1])
	}
}

func TestAllocationReplicaCores(t *testing.T) {
	// Enlarge the ASIC so both parallel hwable tasks get their own core.
	sys := testSystem(t)
	sys.Arch.PEs[1].Area = 700
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1] = 0, 0
	m[1][0], m[1][1], m[1][2] = 0, 1, 1 // c and d parallel on hw
	mob := mobilities(t, sys, m)
	alloc := AllocateCoresWith(sys, m, mob, false)
	if got := alloc.Instances(1, 1, 2); got != 2 {
		t.Errorf("parallel tasks with area available: %d cores, want 2", got)
	}
	// With the small ASIC there is area for only one core: no replica.
	sys.Arch.PEs[1].Area = 400
	alloc = AllocateCoresWith(sys, m, mob, false)
	if got := alloc.Instances(1, 1, 2); got != 1 {
		t.Errorf("tight area: %d cores, want 1", got)
	}
	if !alloc.AreaFeasible() {
		t.Error("mandatory core fits; replicas must never overflow")
	}
}

func TestAllocationAreaViolation(t *testing.T) {
	sys := testSystem(t)
	sys.Arch.PEs[1].Area = 200 // hwable core (300) cannot fit
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1] = 0, 0
	m[1][0], m[1][1], m[1][2] = 0, 1, 0
	mob := mobilities(t, sys, m)
	alloc := AllocateCoresWith(sys, m, mob, false)
	if alloc.AreaFeasible() {
		t.Fatal("mandatory core exceeding area must violate")
	}
	if alloc.Violation[1] != 100 {
		t.Errorf("violation = %d cells, want 100", alloc.Violation[1])
	}
}

func TestFPGAAllocationAndTransitions(t *testing.T) {
	b := model.NewBuilder("fpga")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(model.PE{
		Name: "fpga", Class: model.FPGA, Vmax: 3.3, Vt: 0.8,
		Area: 300, ReconfigTime: 5e-3,
	})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6}, "cpu", "fpga")
	b.AddType("x",
		model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 1e-3},
		model.ImplSpec{PE: "fpga", Time: 1e-3, Power: 0.1e-3, Area: 200},
	)
	b.AddType("y",
		model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 1e-3},
		model.ImplSpec{PE: "fpga", Time: 1e-3, Power: 0.1e-3, Area: 200},
	)
	b.BeginMode("m0", 0.5, 0.1)
	b.AddTask("a", "x", 0)
	b.BeginMode("m1", 0.5, 0.1)
	b.AddTask("b", "y", 0)
	b.AddTransition("m0", "m1", 4e-3) // tighter than one reconfiguration
	b.AddTransition("m1", "m0", 20e-3)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewMapping(sys.App)
	m[0][0], m[1][0] = 1, 1 // both on the FPGA; cores swap between modes
	mob := mobilities(t, sys, m)
	alloc := AllocateCoresWith(sys, m, mob, false)
	// Per-mode working sets fit (200 <= 300) even though the union (400)
	// would not: that is the FPGA advantage.
	if !alloc.AreaFeasible() {
		t.Error("per-mode FPGA working sets must fit")
	}
	// m0 -> m1 swaps in core y: one reconfiguration = 5 ms > 4 ms limit.
	tt0 := alloc.TransitionTime(sys, sys.App.Transitions[0])
	if math.Abs(tt0-5e-3) > 1e-12 {
		t.Errorf("transition time = %v, want 5ms", tt0)
	}
	ev := NewEvaluator(sys, false)
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransPenalty <= 1 {
		t.Error("violated transition limit must be penalised")
	}
	if res.Feasible() {
		t.Error("candidate with transition violation is infeasible")
	}
	// Keeping mode 1 on the CPU avoids the swap: no penalty.
	m[1][0] = 0
	res, err = ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransPenalty != 1 {
		t.Errorf("no swap: penalty = %v, want 1", res.TransPenalty)
	}
}

func mobilities(t *testing.T, sys *model.System, m model.Mapping) []*sched.Mobility {
	t.Helper()
	mob := make([]*sched.Mobility, len(sys.App.Modes))
	for i := range mob {
		mm, err := sched.ComputeMobility(sys, model.ModeID(i), m)
		if err != nil {
			t.Fatal(err)
		}
		mob[i] = mm
	}
	return mob
}

func TestEvaluatorShutdownAccounting(t *testing.T) {
	sys := testSystem(t)
	ev := NewEvaluator(sys, false)
	m := model.NewMapping(sys.App)
	// Mode 0 entirely on the CPU; mode 1 uses the ASIC.
	m[0][0], m[0][1] = 0, 0
	m[1][0], m[1][1], m[1][2] = 0, 1, 1
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	cpu, hw, bus := sys.Arch.PEs[0], sys.Arch.PEs[1], sys.Arch.CLs[0]
	if got, want := res.ModePowers[0].StaticPower, cpu.StaticPower; math.Abs(got-want) > 1e-15 {
		t.Errorf("mode 0 static = %v, want CPU only %v", got, want)
	}
	want := cpu.StaticPower + hw.StaticPower + bus.StaticPower
	if got := res.ModePowers[1].StaticPower; math.Abs(got-want) > 1e-15 {
		t.Errorf("mode 1 static = %v, want all components %v", got, want)
	}
}

func TestEvaluatorTimingPenalty(t *testing.T) {
	sys := testSystem(t)
	sys.App.Modes[0].Period = 12e-3 // a(10)+b(5) serial on cpu: late
	ev := NewEvaluator(sys, false)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1] = 0, 0
	m[1][0], m[1][1], m[1][2] = 0, 0, 0
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimingPenalty <= 1 {
		t.Error("late schedule must carry a timing penalty")
	}
	if res.Feasible() {
		t.Error("late candidate reported feasible")
	}
	// Fitness must exceed the feasible upper bound so no feasible solution
	// loses to this one.
	if res.Fitness <= PowerUpperBound(sys) {
		t.Errorf("infeasible fitness %v not lifted above bound %v", res.Fitness, PowerUpperBound(sys))
	}
}

func TestPowerUpperBoundDominatesFeasible(t *testing.T) {
	sys := testSystem(t)
	ub := PowerUpperBound(sys)
	codec, _ := NewCodec(sys)
	ev := NewEvaluator(sys, false)
	genome := make([]int, codec.Len())
	// Enumerate all 16 mappings; every feasible one must stay below ub.
	for {
		res, err := ev.Evaluate(codec.Decode(genome))
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible() && res.AvgPower > ub {
			t.Fatalf("feasible power %v above bound %v", res.AvgPower, ub)
		}
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
}

func TestReweighted(t *testing.T) {
	sys := testSystem(t)
	ev := NewEvaluator(sys, false)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1] = 0, 0
	m[1][0], m[1][1], m[1][2] = 0, 0, 0
	res, err := ev.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reweighted(sys, nil); math.Abs(got-res.AvgPower) > 1e-15 {
		t.Errorf("Reweighted(nil) = %v, want AvgPower %v", got, res.AvgPower)
	}
	uni := res.Reweighted(sys, UniformProbs(sys))
	manual := 0.5*res.ModePowers[0].Total() + 0.5*res.ModePowers[1].Total()
	if math.Abs(uni-manual) > 1e-15 {
		t.Errorf("Reweighted(uniform) = %v, want %v", uni, manual)
	}
}

func TestShutdownMutationEvacuatesPE(t *testing.T) {
	sys := testSystem(t)
	codec, _ := NewCodec(sys)
	mut := codec.ShutdownMutation()
	rng := rand.New(rand.NewSource(1))
	// Start with the shared task on hw in both modes.
	genome := codec.Encode(func() model.Mapping {
		m := model.NewMapping(sys.App)
		m[0][0], m[0][1] = 1, 0
		m[1][0], m[1][1], m[1][2] = 1, 1, 1
		return m
	}())
	changedOnce := false
	for i := 0; i < 50; i++ {
		g := append([]int(nil), genome...)
		if !mut(g, rng) {
			continue
		}
		changedOnce = true
		m := codec.Decode(g)
		if err := m.Validate(sys); err != nil {
			t.Fatalf("mutated mapping invalid: %v", err)
		}
		// The victim PE must be fully evacuated in the chosen mode: one of
		// the two modes no longer uses some PE it used before.
		freed := false
		for mi := range m {
			for pe := model.PEID(0); pe < 2; pe++ {
				before := codec.Decode(genome).UsesPE(model.ModeID(mi), pe)
				after := m.UsesPE(model.ModeID(mi), pe)
				if before && !after {
					freed = true
				}
			}
		}
		if !freed {
			t.Error("shutdown mutation changed the genome without freeing a PE")
		}
	}
	if !changedOnce {
		t.Error("shutdown mutation never applied")
	}
}

func TestAreaMutationMovesTasksOffViolatedPE(t *testing.T) {
	sys := testSystem(t)
	sys.Arch.PEs[1].Area = 100 // any hw core violates
	codec, _ := NewCodec(sys)
	mut := codec.AreaMutation()
	rng := rand.New(rand.NewSource(2))
	genome := codec.Encode(func() model.Mapping {
		m := model.NewMapping(sys.App)
		m[0][0], m[0][1] = 1, 0
		m[1][0], m[1][1], m[1][2] = 1, 1, 1
		return m
	}())
	moved := false
	for i := 0; i < 50 && !moved; i++ {
		g := append([]int(nil), genome...)
		if mut(g, rng) {
			moved = true
			for k := range g {
				// Moved tasks must land on software PEs.
				if g[k] != genome[k] && codec.PEAt(g, k) != 0 {
					t.Error("area mutation must move tasks to software")
				}
			}
		}
	}
	if !moved {
		t.Error("area mutation never fired despite violation")
	}
	// Without violation it must be a no-op.
	sys2 := testSystem(t)
	codec2, _ := NewCodec(sys2)
	mut2 := codec2.AreaMutation()
	allSW := make([]int, codec2.Len())
	for i := 0; i < 20; i++ {
		g := append([]int(nil), allSW...)
		if mut2(g, rng) {
			t.Fatal("area mutation fired without violation")
		}
	}
}

func TestTimingMutationMovesToHardware(t *testing.T) {
	sys := testSystem(t)
	sys.App.Modes[1].Period = 9e-3 // all-SW critical path (10+8) severely late
	codec, _ := NewCodec(sys)
	mut := codec.TimingMutation()
	rng := rand.New(rand.NewSource(3))
	allSW := make([]int, codec.Len())
	fired := false
	for i := 0; i < 50 && !fired; i++ {
		g := append([]int(nil), allSW...)
		if mut(g, rng) {
			fired = true
			hwCount := 0
			for k := range g {
				if codec.PEAt(g, k) == 1 {
					hwCount++
				}
			}
			if hwCount == 0 {
				t.Error("timing mutation fired but moved nothing to hardware")
			}
		}
	}
	if !fired {
		t.Error("timing mutation never fired on a late system")
	}
}

func TestSynthesizeFindsFeasibleLowPower(t *testing.T) {
	sys := testSystem(t)
	res, err := Synthesize(sys, Options{
		GA:   ga.Config{PopSize: 24, MaxGenerations: 60, Stagnation: 20},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Feasible() {
		t.Fatal("synthesis of an easy system must be feasible")
	}
	best, err := Exhaustive(nil, sys, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness > best.Fitness+1e-12 {
		t.Errorf("GA fitness %v worse than exhaustive optimum %v", res.Best.Fitness, best.Fitness)
	}
	if res.Elapsed <= 0 || res.GA.Evaluations == 0 {
		t.Error("run statistics must be populated")
	}
}

func TestSynthesizeNeglectReportsTrueProfile(t *testing.T) {
	sys := testSystem(t)
	res, err := Synthesize(sys, Options{
		NeglectProbabilities: true,
		GA:                   ga.Config{PopSize: 24, MaxGenerations: 60, Stagnation: 20},
		Seed:                 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The reported power must equal re-evaluating the mapping under the
	// true probabilities.
	ev := NewEvaluator(sys, false)
	check, err := ev.Evaluate(res.Best.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(check.AvgPower-res.Best.AvgPower) > 1e-15 {
		t.Errorf("reported power %v, re-evaluated %v", res.Best.AvgPower, check.AvgPower)
	}
}

func TestExhaustiveRejectsHugeSpace(t *testing.T) {
	// 40 tasks x 2 alleles = 2^40 mappings: must refuse.
	b := model.NewBuilder("huge")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(model.PE{Name: "cpu2", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6}, "cpu", "cpu2")
	b.AddType("k",
		model.ImplSpec{PE: "cpu", Time: 1e-3, Power: 1e-3},
		model.ImplSpec{PE: "cpu2", Time: 1e-3, Power: 1e-3},
	)
	b.BeginMode("m", 1, 1)
	for i := 0; i < 40; i++ {
		b.AddTask(string(rune('a'+i%26))+string(rune('0'+i/26)), "k", 0)
	}
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exhaustive(nil, sys, false, nil); err == nil {
		t.Fatal("huge search space must be rejected")
	}
}

func TestDefaultWeights(t *testing.T) {
	w := DefaultWeights()
	if w.Area <= 0 || w.Transition <= 0 || w.Timing <= 0 {
		t.Errorf("default weights must be positive: %+v", w)
	}
}

func TestUniformProbs(t *testing.T) {
	sys := testSystem(t)
	p := UniformProbs(sys)
	if len(p) != 2 || p[0] != 0.5 || p[1] != 0.5 {
		t.Errorf("uniform probs = %v", p)
	}
}
