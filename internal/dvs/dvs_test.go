package dvs

import (
	"math"
	"testing"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// TestTransformFig5 reproduces the shape of paper Fig. 5: five hardware
// tasks on two cores fold into three sequential virtual tasks. Core 0 runs
// τ0 [0,4] and τ1 [4,6]; core 1 runs τ2 [1,4], τ3 [4,5] and τ4 [5,6] —
// segment boundaries fall where the active-core set changes.
func TestTransformFig5(t *testing.T) {
	slots := []sched.TaskSlot{
		{Task: 0, Core: 0, Start: 0, Finish: 4, Power: 1},
		{Task: 1, Core: 0, Start: 4, Finish: 6, Power: 2},
		{Task: 2, Core: 1, Start: 1, Finish: 4, Power: 4},
		{Task: 3, Core: 1, Start: 4, Finish: 5, Power: 8},
		{Task: 4, Core: 1, Start: 5, Finish: 6, Power: 16},
	}
	segs := Transform(slots)
	// Expected segments: [0,1) τ0 alone; [1,4) τ0+τ2; [4,5) τ1+τ3;
	// [5,6) τ1+τ4.
	want := []Segment{
		{Start: 0, End: 1, Power: 1, Active: []model.TaskID{0}},
		{Start: 1, End: 4, Power: 5, Active: []model.TaskID{0, 2}},
		{Start: 4, End: 5, Power: 10, Active: []model.TaskID{1, 3}},
		{Start: 5, End: 6, Power: 18, Active: []model.TaskID{1, 4}},
	}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments, want %d: %+v", len(segs), len(want), segs)
	}
	for i, w := range want {
		g := segs[i]
		if g.Start != w.Start || g.End != w.End || g.Power != w.Power {
			t.Errorf("segment %d = %+v, want %+v", i, g, w)
		}
		if len(g.Active) != len(w.Active) {
			t.Errorf("segment %d active = %v, want %v", i, g.Active, w.Active)
			continue
		}
		for j := range w.Active {
			if g.Active[j] != w.Active[j] {
				t.Errorf("segment %d active = %v, want %v", i, g.Active, w.Active)
			}
		}
	}
	// Energy is conserved by the transformation at nominal voltage:
	// sum(P_seg * len) == sum(P_task * dur).
	segE, taskE := 0.0, 0.0
	for _, s := range segs {
		segE += s.Power * s.Duration()
	}
	for _, s := range slots {
		taskE += s.Power * (s.Finish - s.Start)
	}
	if math.Abs(segE-taskE) > 1e-12 {
		t.Errorf("transformation changed total energy: %v != %v", segE, taskE)
	}
}

func TestTransformGapBreaksSegments(t *testing.T) {
	slots := []sched.TaskSlot{
		{Task: 0, Start: 0, Finish: 1, Power: 1},
		{Task: 1, Start: 2, Finish: 3, Power: 1},
	}
	segs := Transform(slots)
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2 (idle gap must not merge)", len(segs))
	}
	if segs[0].End != 1 || segs[1].Start != 2 {
		t.Errorf("segments %+v do not respect the gap", segs)
	}
}

func TestTransformEmpty(t *testing.T) {
	if segs := Transform(nil); len(segs) != 0 {
		t.Errorf("empty input must give no segments, got %v", segs)
	}
}

// TestTransformSumsPowerInSlotOrder pins the order of the segment-power
// sum: three slots overlap on one interval, and their powers are chosen so
// that float addition in another order gives a different result. A sum in
// set-iteration order differs between runs, so the check repeats.
func TestTransformSumsPowerInSlotOrder(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	if want, other := (a+b)+c, (b+c)+a; want == other {
		t.Fatalf("powers %v %v %v do not expose the summation order", a, b, c)
	}
	slots := []sched.TaskSlot{
		{Task: 0, Start: 0, Finish: 1, Power: a},
		{Task: 1, Start: 0, Finish: 1, Power: b},
		{Task: 2, Start: 0, Finish: 1, Power: c},
	}
	want := math.Float64bits((a + b) + c)
	for rep := 0; rep < 200; rep++ {
		segs := Transform(slots)
		if len(segs) != 1 {
			t.Fatalf("got %d segments, want 1: %+v", len(segs), segs)
		}
		if got := math.Float64bits(segs[0].Power); got != want {
			t.Fatalf("rep %d: segment power %v, want %v summed in slot order", rep, segs[0].Power, (a+b)+c)
		}
	}
}

// dvsSystem builds one DVS GPP (levels 1.2/1.8/2.5/3.3) with a chain of two
// tasks and a generous period, so scaling has room.
func dvsSystem(t *testing.T, period float64) *model.System {
	t.Helper()
	b := model.NewBuilder("dvs")
	b.AddPE(model.PE{
		Name: "cpu", Class: model.GPP, DVS: true,
		Vmax: 3.3, Vt: 0.8, Levels: []float64{1.2, 1.8, 2.5, 3.3},
	})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6}, "cpu")
	b.AddType("k", model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 2e-3})
	b.BeginMode("m", 1, period)
	b.AddTask("a", "k", 0)
	b.AddTask("b", "k", 0)
	b.AddEdge("a", "b", 0)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mapAll(sys *model.System, pe model.PEID) model.Mapping {
	m := model.NewMapping(sys.App)
	for mi := range m {
		for ti := range m[mi] {
			m[mi][ti] = pe
		}
	}
	return m
}

func TestScaleReducesEnergyAndKeepsDeadlines(t *testing.T) {
	sys := dvsSystem(t, 0.1) // 20 ms of work in a 100 ms period
	sc, err := sched.ListSchedule(sys, 0, mapAll(sys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sc.DynamicEnergy()
	if !Scale(sys, sc) {
		t.Fatal("ample slack: scaling must change the schedule")
	}
	after := sc.DynamicEnergy()
	if after >= before {
		t.Errorf("energy must drop: %v -> %v", before, after)
	}
	if late := sc.Lateness(sys); late > 1e-9 {
		t.Errorf("scaling violated deadlines: lateness %v", late)
	}
	for i := range sc.Tasks {
		if sc.Tasks[i].VoltIdx == len(sys.Arch.PEs[0].Levels)-1 {
			t.Errorf("task %d still at top voltage despite 5x slack", i)
		}
		// Stretched execution must match the alpha-power law.
		slot := sc.Tasks[i]
		v := sys.Arch.PEs[0].Levels[slot.VoltIdx]
		wantDur := energy.ScaledTime(slot.NomTime, v, 3.3, 0.8)
		if math.Abs((slot.Finish-slot.Start)-wantDur) > 1e-9 {
			t.Errorf("task %d duration %v, want %v at %vV", i, slot.Finish-slot.Start, wantDur, v)
		}
	}
}

func TestScaleTightScheduleUntouched(t *testing.T) {
	sys := dvsSystem(t, 20e-3) // exactly the serial time: zero slack
	sc, err := sched.ListSchedule(sys, 0, mapAll(sys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Scale(sys, sc) {
		t.Error("zero slack: no scaling move can be feasible")
	}
	for i := range sc.Tasks {
		if sc.Tasks[i].VoltIdx != len(sys.Arch.PEs[0].Levels)-1 {
			t.Errorf("task %d voltage lowered despite zero slack", i)
		}
	}
}

func TestScaleSkipsInfeasibleSchedule(t *testing.T) {
	sys := dvsSystem(t, 15e-3) // 20 ms of work in 15 ms: infeasible
	sc, err := sched.ListSchedule(sys, 0, mapAll(sys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Lateness(sys) <= 0 {
		t.Fatal("test setup: schedule should be late")
	}
	if Scale(sys, sc) {
		t.Error("infeasible schedules must not be scaled")
	}
}

func TestScaleRespectsDiscreteLevels(t *testing.T) {
	sys := dvsSystem(t, 30e-3) // serial 20 ms in 30 ms: moderate slack
	sc, err := sched.ListSchedule(sys, 0, mapAll(sys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	Scale(sys, sc)
	if late := sc.Lateness(sys); late > 1e-9 {
		t.Errorf("lateness after scaling: %v", late)
	}
	// With levels {1.2 1.8 2.5 3.3}, 1.5x total slack admits 2.5 V
	// (1.64x stretch) for at most one of the two tasks, never 1.2 V.
	for i := range sc.Tasks {
		if v := sys.Arch.PEs[0].Levels[sc.Tasks[i].VoltIdx]; v < 1.8-1e-9 {
			t.Errorf("task %d at %vV: too aggressive for the available slack", i, v)
		}
	}
}

// hwDVSSystem: a DVS ASIC with two cores' worth of parallel tasks plus a
// software task depending on them.
func hwDVSSystem(t *testing.T, period float64) *model.System {
	t.Helper()
	b := model.NewBuilder("hwdvs")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(model.PE{
		Name: "hw", Class: model.ASIC, DVS: true,
		Vmax: 3.3, Vt: 0.8, Levels: []float64{1.8, 2.5, 3.3}, Area: 1000,
	})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e7}, "cpu", "hw")
	b.AddType("h1",
		model.ImplSpec{PE: "hw", Time: 4e-3, Power: 1e-3, Area: 100},
		model.ImplSpec{PE: "cpu", Time: 40e-3, Power: 5e-3},
	)
	b.AddType("h2",
		model.ImplSpec{PE: "hw", Time: 3e-3, Power: 2e-3, Area: 120},
		model.ImplSpec{PE: "cpu", Time: 30e-3, Power: 5e-3},
	)
	b.AddType("s", model.ImplSpec{PE: "cpu", Time: 5e-3, Power: 1e-3})
	b.BeginMode("m", 1, period)
	b.AddTask("p1", "h1", 0)
	b.AddTask("p2", "h2", 0)
	b.AddTask("post", "s", 0)
	b.AddEdge("p1", "post", 100)
	b.AddEdge("p2", "post", 100)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestScaleHardwareCoresViaTransformation(t *testing.T) {
	sys := hwDVSSystem(t, 50e-3)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1], m[0][2] = 1, 1, 0
	sc, err := sched.ListSchedule(sys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sc.DynamicEnergy()
	if !Scale(sys, sc) {
		t.Fatal("hardware DVS with slack must scale")
	}
	after := sc.DynamicEnergy()
	if after >= before {
		t.Errorf("hardware scaling must reduce energy: %v -> %v", before, after)
	}
	if late := sc.Lateness(sys); late > 1e-9 {
		t.Errorf("lateness after hardware scaling: %v", late)
	}
	// Hardware tasks share the scaled supply: both must report lowered
	// voltages.
	for i := 0; i < 2; i++ {
		if sc.Tasks[i].VoltIdx >= len(sys.Arch.PEs[1].Levels)-1 {
			t.Errorf("hw task %d not scaled (volt idx %d)", i, sc.Tasks[i].VoltIdx)
		}
	}
	// The software successor must still start after both producers.
	post := sc.Tasks[2]
	for i := 0; i < 2; i++ {
		if post.Start < sc.Tasks[i].Finish-1e-9 {
			t.Errorf("successor starts at %v before producer %d finishes at %v",
				post.Start, i, sc.Tasks[i].Finish)
		}
	}
}

func TestScalePreservesPrecedenceThroughComms(t *testing.T) {
	sys := hwDVSSystem(t, 100e-3)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1], m[0][2] = 1, 1, 0
	sc, err := sched.ListSchedule(sys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	Scale(sys, sc)
	for ei := range sc.Comms {
		cs := sc.Comms[ei]
		e := sys.App.Modes[0].Graph.Edge(model.EdgeID(ei))
		if cs.Start < sc.Tasks[e.Src].Finish-1e-9 {
			t.Errorf("comm %d starts before its producer finishes", ei)
		}
		if sc.Tasks[e.Dst].Start < cs.Finish-1e-9 {
			t.Errorf("consumer of comm %d starts before the message arrives", ei)
		}
	}
}

func TestScaleNonDVSSystemNoChange(t *testing.T) {
	b := model.NewBuilder("plain")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6}, "cpu")
	b.AddType("k", model.ImplSpec{PE: "cpu", Time: 1e-3, Power: 1e-3})
	b.BeginMode("m", 1, 0.1)
	b.AddTask("a", "k", 0)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.ListSchedule(sys, 0, mapAll(sys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Scale(sys, sc) {
		t.Error("no DVS PE: scaling must be a no-op")
	}
}

// TestScaleEnergyAccountingMatchesFormula verifies the reported per-task
// energies follow E = Pmax*tmin*(Vdd/Vmax)^2 after scaling.
func TestScaleEnergyAccountingMatchesFormula(t *testing.T) {
	sys := dvsSystem(t, 0.1)
	sc, err := sched.ListSchedule(sys, 0, mapAll(sys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	Scale(sys, sc)
	for i := range sc.Tasks {
		slot := sc.Tasks[i]
		v := sys.Arch.PEs[0].Levels[slot.VoltIdx]
		want := energy.TaskEnergy(slot.Power, slot.NomTime, v, 3.3)
		if math.Abs(slot.Energy-want) > 1e-15 {
			t.Errorf("task %d energy %v, want %v", i, slot.Energy, want)
		}
	}
}

func TestScaleSoftwareOnlyLeavesHardwareNominal(t *testing.T) {
	sys := hwDVSSystem(t, 50e-3)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1], m[0][2] = 1, 1, 0
	sc, err := sched.ListSchedule(sys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ScaleWith(sys, sc, Config{SoftwareOnly: true})
	// Hardware tasks stay at nominal voltage and nominal duration.
	for i := 0; i < 2; i++ {
		slot := sc.Tasks[i]
		if slot.VoltIdx != len(sys.Arch.PEs[1].Levels)-1 {
			t.Errorf("hw task %d scaled despite SoftwareOnly", i)
		}
		if math.Abs((slot.Finish-slot.Start)-slot.NomTime) > 1e-12 {
			t.Errorf("hw task %d stretched despite SoftwareOnly", i)
		}
	}
}

func TestScaleLeavesCommDurationsUntouched(t *testing.T) {
	sys := hwDVSSystem(t, 100e-3)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1], m[0][2] = 1, 1, 0
	before, err := sched.ListSchedule(sys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	durations := make([]float64, len(before.Comms))
	for i := range before.Comms {
		durations[i] = before.Comms[i].Time
	}
	Scale(sys, before)
	for i := range before.Comms {
		if before.Comms[i].Time != durations[i] {
			t.Errorf("comm %d transfer time changed", i)
		}
		if got := before.Comms[i].Finish - before.Comms[i].Start; before.Comms[i].Time > 0 &&
			math.Abs(got-durations[i]) > 1e-12 {
			t.Errorf("comm %d interval stretched to %v", i, got)
		}
	}
}

// TestScaleSegmentDeadlineMidChain pins the subtle case of the Fig. 5
// transformation: a task finishing in an interior segment attaches its
// deadline there, so later segments may still stretch beyond it as long as
// tasks ending in them allow it.
func TestScaleSegmentDeadlineMidChain(t *testing.T) {
	b := model.NewBuilder("midchain")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(model.PE{
		Name: "hw", Class: model.ASIC, DVS: true,
		Vmax: 3.3, Vt: 0.8, Levels: []float64{1.8, 2.5, 3.3}, Area: 1000,
	})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e7}, "cpu", "hw")
	b.AddType("short",
		model.ImplSpec{PE: "hw", Time: 2e-3, Power: 1e-3, Area: 100},
		model.ImplSpec{PE: "cpu", Time: 20e-3, Power: 5e-3},
	)
	b.AddType("long",
		model.ImplSpec{PE: "hw", Time: 10e-3, Power: 2e-3, Area: 120},
		model.ImplSpec{PE: "cpu", Time: 100e-3, Power: 5e-3},
	)
	b.BeginMode("m", 1, 100e-3)
	// The short task has a tight 4 ms deadline; the long parallel task has
	// until the period.
	b.AddTask("s", "short", 4e-3)
	b.AddTask("l", "long", 0)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1] = 1, 1
	sc, err := sched.ListSchedule(sys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Scale(sys, sc) {
		t.Fatal("expected scaling")
	}
	if sc.Tasks[0].Finish > 4e-3+1e-9 {
		t.Errorf("short task misses its deadline after scaling: %v", sc.Tasks[0].Finish)
	}
	if late := sc.Lateness(sys); late > 1e-9 {
		t.Errorf("lateness %v", late)
	}
	// The long task should still have been slowed (it has ~90 ms of slack
	// after the shared first segment).
	if sc.Tasks[1].VoltIdx == len(sys.Arch.PEs[1].Levels)-1 {
		t.Error("long task not scaled despite slack")
	}
}
