package sched

import (
	"math"
	"testing"

	"momosyn/internal/model"
)

// twoPESystem builds a system with one GPP and one ASIC joined by a bus.
// Mode 0 holds a diamond of four tasks of type "k" (dual implementation)
// plus explicit byte counts so communication delays are visible.
func twoPESystem(t *testing.T) *model.System {
	t.Helper()
	b := model.NewBuilder("sched")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(model.PE{Name: "hw", Class: model.ASIC, Vmax: 3.3, Vt: 0.8, Area: 1000})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6, PowerActive: 1e-3}, "cpu", "hw")
	b.AddType("k",
		model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 2e-3},
		model.ImplSpec{PE: "hw", Time: 1e-3, Power: 0.2e-3, Area: 100},
	)
	// Diamond: t0 -> {t1, t2} -> t3
	b.BeginMode("m", 1.0, 0.1)
	b.AddTask("t0", "k", 0)
	b.AddTask("t1", "k", 0)
	b.AddTask("t2", "k", 0)
	b.AddTask("t3", "k", 0)
	b.AddEdge("t0", "t1", 1000) // 1 ms on the bus
	b.AddEdge("t0", "t2", 1000)
	b.AddEdge("t1", "t3", 1000)
	b.AddEdge("t2", "t3", 1000)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func allTo(sys *model.System, pe model.PEID) model.Mapping {
	m := model.NewMapping(sys.App)
	for mi := range m {
		for ti := range m[mi] {
			m[mi][ti] = pe
		}
	}
	return m
}

func TestMobilityChainAllSoftware(t *testing.T) {
	sys := twoPESystem(t)
	mob, err := ComputeMobility(sys, 0, allTo(sys, 0))
	if err != nil {
		t.Fatal(err)
	}
	// All on one PE: zero comm cost. ASAP: t0=0, t1=t2=10ms, t3=20ms.
	want := []float64{0, 10e-3, 10e-3, 20e-3}
	for i, w := range want {
		if math.Abs(mob.ASAP[i]-w) > 1e-12 {
			t.Errorf("ASAP[%d] = %v, want %v", i, mob.ASAP[i], w)
		}
	}
	// ALAP anchored at the 100 ms period: t3 starts at 90, t1/t2 at 80,
	// t0 at 70 ms.
	wantALAP := []float64{70e-3, 80e-3, 80e-3, 90e-3}
	for i, w := range wantALAP {
		if math.Abs(mob.ALAP[i]-w) > 1e-12 {
			t.Errorf("ALAP[%d] = %v, want %v", i, mob.ALAP[i], w)
		}
	}
	if mob.Slack(0) <= 0 {
		t.Error("slack must be positive for a loose period")
	}
}

func TestMobilityIncludesCommBounds(t *testing.T) {
	sys := twoPESystem(t)
	m := allTo(sys, 0)
	m[0][1] = 1 // t1 on hw: edges t0->t1 and t1->t3 cross the bus (1 ms)
	mob, err := ComputeMobility(sys, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	// ASAP t1 = exec(t0) + comm = 10ms + 1ms = 11ms; exec(t1 on hw) = 1ms;
	// ASAP t3 = max(t1 path: 11+1+1=13ms, t2 path: 10+10=20ms) = 20ms.
	if math.Abs(mob.ASAP[1]-11e-3) > 1e-12 {
		t.Errorf("ASAP[t1] = %v, want 11ms", mob.ASAP[1])
	}
	if math.Abs(mob.ASAP[3]-20e-3) > 1e-12 {
		t.Errorf("ASAP[t3] = %v, want 20ms", mob.ASAP[3])
	}
}

func TestListScheduleSoftwareSerialises(t *testing.T) {
	sys := twoPESystem(t)
	sc, err := ListSchedule(sys, 0, allTo(sys, 0), SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four 10 ms tasks on one CPU: makespan 40 ms, no overlap.
	if math.Abs(sc.Makespan-40e-3) > 1e-12 {
		t.Errorf("makespan = %v, want 40ms", sc.Makespan)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			a, b := sc.Tasks[i], sc.Tasks[j]
			if a.Start < b.Finish && b.Start < a.Finish {
				t.Errorf("tasks %d and %d overlap on the CPU", i, j)
			}
		}
	}
	if !sc.Feasible(sys) {
		t.Error("schedule must be feasible (period 100 ms)")
	}
	if sc.Unroutable != 0 {
		t.Errorf("unroutable = %d, want 0", sc.Unroutable)
	}
}

func TestListScheduleHardwareParallelWithReplicas(t *testing.T) {
	sys := twoPESystem(t)
	m := allTo(sys, 1)
	// Two replica cores for type k: t1 and t2 can run in parallel.
	two := fixedCores{n: 2}
	sc, err := ListSchedule(sys, 0, m, two, nil)
	if err != nil {
		t.Fatal(err)
	}
	// All on hw, no comms cross PEs: t0 [0,1], t1/t2 in parallel [1,2],
	// t3 [2,3] ms.
	if math.Abs(sc.Makespan-3e-3) > 1e-12 {
		t.Errorf("makespan = %v, want 3ms", sc.Makespan)
	}
	if sc.Tasks[1].Core == sc.Tasks[2].Core {
		t.Error("parallel tasks should use distinct core instances")
	}
}

func TestListScheduleHardwareSingleCoreSerialises(t *testing.T) {
	sys := twoPESystem(t)
	sc, err := ListSchedule(sys, 0, allTo(sys, 1), SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One core: contention serialises t1 and t2: makespan 4 ms.
	if math.Abs(sc.Makespan-4e-3) > 1e-12 {
		t.Errorf("makespan = %v, want 4ms", sc.Makespan)
	}
}

func TestListScheduleCommunicationContention(t *testing.T) {
	sys := twoPESystem(t)
	m := allTo(sys, 0)
	m[0][3] = 1 // t3 on hw: edges t1->t3 and t2->t3 cross the bus
	sc, err := ListSchedule(sys, 0, m, SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// t1 finishes at 20ms, t2 at 30ms (CPU serial); two 1 ms messages
	// sequentialise on the single bus; t3 (1 ms on hw) starts after the
	// later arrival: 31 ms, finishes 32 ms.
	e2 := sc.Comms[2] // t1->t3
	e3 := sc.Comms[3] // t2->t3
	if e2.CL != 0 || e3.CL != 0 {
		t.Fatalf("both messages must use the bus")
	}
	if e2.Start < sc.Tasks[1].Finish-1e-12 || e3.Start < sc.Tasks[2].Finish-1e-12 {
		t.Error("messages must not start before their producer finishes")
	}
	if overlap(e2.Start, e2.Finish, e3.Start, e3.Finish) {
		t.Error("messages on one bus must not overlap")
	}
	if math.Abs(sc.Makespan-32e-3) > 1e-12 {
		t.Errorf("makespan = %v, want 32ms", sc.Makespan)
	}
	// Communication energy: PowerActive * time.
	if math.Abs(e2.Energy-1e-3*1e-3) > 1e-15 {
		t.Errorf("comm energy = %v, want 1e-6", e2.Energy)
	}
}

func overlap(a0, a1, b0, b1 float64) bool {
	return a0 < b1-1e-12 && b0 < a1-1e-12
}

func TestListScheduleUnroutable(t *testing.T) {
	// Two PEs with NO connecting link.
	b := model.NewBuilder("unroutable")
	b.AddPE(model.PE{Name: "cpu0", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(model.PE{Name: "cpu1", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddCL(model.CL{Name: "loop0", BytesPerSec: 1e6}, "cpu0")
	b.AddType("k",
		model.ImplSpec{PE: "cpu0", Time: 1e-3, Power: 1e-3},
		model.ImplSpec{PE: "cpu1", Time: 1e-3, Power: 1e-3},
	)
	b.BeginMode("m", 1, 0.1)
	b.AddTask("a", "k", 0)
	b.AddTask("b", "k", 0)
	b.AddEdge("a", "b", 100)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1] = 0, 1
	sc, err := ListSchedule(sys, 0, m, SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1", sc.Unroutable)
	}
	if sc.Feasible(sys) {
		t.Error("unroutable schedule must be infeasible")
	}
	if sc.Comms[0].Routed {
		t.Error("comm slot must be marked unrouted")
	}
	if sc.Comms[0].Prev != -1 {
		t.Errorf("unrouted comm Prev = %d, want -1", sc.Comms[0].Prev)
	}
}

func TestScheduleLateness(t *testing.T) {
	sys := twoPESystem(t)
	// Shrink the period so the all-software schedule (40 ms) is late.
	sys.App.Modes[0].Period = 25e-3
	sc, err := ListSchedule(sys, 0, allTo(sys, 0), SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	late := sc.Lateness(sys)
	// t3 finishes at 40 ms against a 25 ms deadline => 15 ms late; t2
	// finishes at 30 ms => 5 ms late (priority order t1 before t2).
	if math.Abs(late-20e-3) > 1e-9 {
		t.Errorf("lateness = %v, want 20ms", late)
	}
	if sc.Feasible(sys) {
		t.Error("late schedule must be infeasible")
	}
}

func TestUsedCLs(t *testing.T) {
	sys := twoPESystem(t)
	sc, err := ListSchedule(sys, 0, allTo(sys, 0), SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	used := sc.UsedCLs(sys.Arch)
	if used[0] {
		t.Error("all-intra-PE schedule must leave the bus shut down")
	}
	m := allTo(sys, 0)
	m[0][1] = 1
	sc, err = ListSchedule(sys, 0, m, SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.UsedCLs(sys.Arch)[0] {
		t.Error("cross-PE traffic must mark the bus active")
	}
}

func TestDynamicEnergyAggregates(t *testing.T) {
	sys := twoPESystem(t)
	sc, err := ListSchedule(sys, 0, allTo(sys, 0), SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four tasks at 2 mW for 10 ms each = 80 uJ; no comm energy.
	if got, want := sc.DynamicEnergy(), 4*2e-3*10e-3; math.Abs(got-want) > 1e-15 {
		t.Errorf("energy = %v, want %v", got, want)
	}
}

func TestMaxOverlap(t *testing.T) {
	mob := &Mobility{
		ASAP: []float64{0, 0, 5, 20},
		ALAP: []float64{0, 0, 5, 20},
		Exec: []float64{10, 10, 10, 5},
	}
	if got := mob.MaxOverlap([]model.TaskID{0, 1}); got != 2 {
		t.Errorf("overlap(0,1) = %d, want 2", got)
	}
	if got := mob.MaxOverlap([]model.TaskID{0, 3}); got != 1 {
		t.Errorf("overlap(0,3) = %d, want 1 (disjoint windows)", got)
	}
	if got := mob.MaxOverlap([]model.TaskID{0, 1, 2}); got != 3 {
		t.Errorf("overlap(0,1,2) = %d, want 3", got)
	}
	if got := mob.MaxOverlap(nil); got != 0 {
		t.Errorf("overlap(nil) = %d, want 0", got)
	}
	if got := mob.MaxOverlap([]model.TaskID{2}); got != 1 {
		t.Errorf("overlap(single) = %d, want 1", got)
	}
}

// fixedCores grants a constant number of instances for every (PE, type).
type fixedCores struct{ n int }

func (f fixedCores) Instances(model.ModeID, model.PEID, model.TaskTypeID) int { return f.n }

func TestPriorityPrefersUrgentTasks(t *testing.T) {
	// Two independent chains on one CPU; chain A has a tight deadline on
	// its sink, so its tasks must be scheduled first.
	b := model.NewBuilder("prio")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6}, "cpu")
	b.AddType("k", model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 1e-3})
	b.BeginMode("m", 1, 0.1)
	b.AddTask("loose", "k", 0)     // deadline = period (100 ms)
	b.AddTask("tight", "k", 12e-3) // must finish by 12 ms
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ListSchedule(sys, 0, allTo(sys, 0), SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Tasks[1].Start > 1e-12 {
		t.Errorf("tight task must run first, started at %v", sc.Tasks[1].Start)
	}
	if !sc.Feasible(sys) {
		t.Error("schedule must meet the tight deadline")
	}
}
