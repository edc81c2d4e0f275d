package model

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// minimalSystem builds a small valid two-mode system used across tests.
func minimalSystem(t *testing.T) *System {
	t.Helper()
	b := NewBuilder("test")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3, Vt: 0.8})
	b.AddPE(PE{Name: "asic", Class: ASIC, Vmax: 3.3, Vt: 0.8, Area: 500})
	b.AddCL(CL{Name: "bus", BytesPerSec: 1e6}, "cpu", "asic")
	b.AddType("a",
		ImplSpec{PE: "cpu", Time: 10e-3, Power: 1e-3},
		ImplSpec{PE: "asic", Time: 1e-3, Power: 0.1e-3, Area: 200},
	)
	b.AddType("b", ImplSpec{PE: "cpu", Time: 5e-3, Power: 2e-3})
	b.BeginMode("m0", 0.25, 0.1)
	b.AddTask("t0", "a", 0)
	b.AddTask("t1", "b", 0)
	b.AddEdge("t0", "t1", 100)
	b.BeginMode("m1", 0.75, 0.2)
	b.AddTask("t0", "a", 0.05)
	b.AddTransition("m0", "m1", 0.01)
	sys, err := b.Finish()
	if err != nil {
		t.Fatalf("minimal system: %v", err)
	}
	return sys
}

func TestPEClassPredicates(t *testing.T) {
	cases := []struct {
		c      PEClass
		hw, sw bool
		strc   string
	}{
		{GPP, false, true, "GPP"},
		{ASIP, false, true, "ASIP"},
		{ASIC, true, false, "ASIC"},
		{FPGA, true, false, "FPGA"},
	}
	for _, c := range cases {
		if c.c.IsHardware() != c.hw {
			t.Errorf("%v.IsHardware() = %v, want %v", c.c, c.c.IsHardware(), c.hw)
		}
		if c.c.IsSoftware() != c.sw {
			t.Errorf("%v.IsSoftware() = %v, want %v", c.c, c.c.IsSoftware(), c.sw)
		}
		if c.c.String() != c.strc {
			t.Errorf("%v.String() = %q, want %q", c.c, c.c.String(), c.strc)
		}
	}
	if got := PEClass(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestPEScalable(t *testing.T) {
	pe := &PE{DVS: false, Vmax: 3.3}
	if pe.Scalable() {
		t.Error("non-DVS PE must not be scalable")
	}
	pe = &PE{DVS: true, Vmax: 3.3, Levels: []float64{3.3}}
	if pe.Scalable() {
		t.Error("single-level DVS PE has no scaling freedom")
	}
	pe = &PE{DVS: true, Vmax: 3.3, Levels: []float64{1.8, 3.3}}
	if !pe.Scalable() {
		t.Error("multi-level DVS PE must be scalable")
	}
	if got := pe.MinVoltage(); got != 1.8 {
		t.Errorf("MinVoltage = %v, want 1.8", got)
	}
	pe = &PE{Vmax: 2.5}
	if got := pe.MinVoltage(); got != 2.5 {
		t.Errorf("non-DVS MinVoltage = %v, want Vmax", got)
	}
}

func TestCLConnects(t *testing.T) {
	cl := &CL{PEs: []PEID{0, 2}}
	if !cl.Connects(0, 2) || !cl.Connects(2, 0) {
		t.Error("CL must connect attached PEs in both directions")
	}
	if cl.Connects(0, 1) {
		t.Error("CL must not connect unattached PEs")
	}
	if !cl.Connects(0, 0) {
		t.Error("a PE is trivially connected to itself when attached")
	}
}

func TestArchLookups(t *testing.T) {
	sys := minimalSystem(t)
	a := sys.Arch
	if a.PE(0) == nil || a.PE(1) == nil {
		t.Fatal("PE lookup failed")
	}
	if a.PE(-1) != nil || a.PE(2) != nil {
		t.Error("out-of-range PE lookup must return nil")
	}
	if a.CL(0) == nil || a.CL(-1) != nil || a.CL(1) != nil {
		t.Error("CL lookup bounds broken")
	}
	links := a.LinksBetween(0, 1)
	if len(links) != 1 || links[0] != 0 {
		t.Errorf("LinksBetween(0,1) = %v, want [0]", links)
	}
	if got := a.LinksBetween(0, 0); got != nil {
		t.Errorf("LinksBetween(0,0) = %v, want nil", got)
	}
	if !a.Connected(0, 1) || !a.Connected(1, 1) {
		t.Error("connectivity broken")
	}
}

func TestLibraryLookups(t *testing.T) {
	sys := minimalSystem(t)
	l := sys.Lib
	if l.Type(0) == nil || l.Type(-1) != nil || l.Type(2) != nil {
		t.Error("type lookup bounds broken")
	}
	if l.TypeByName("a") == nil || l.TypeByName("zzz") != nil {
		t.Error("TypeByName broken")
	}
	tt := l.TypeByName("a")
	if im, ok := tt.ImplOn(1); !ok || im.Area != 200 {
		t.Errorf("ImplOn(asic) = %+v ok=%v", im, ok)
	}
	if _, ok := l.TypeByName("b").ImplOn(1); ok {
		t.Error("type b has no asic impl")
	}
	pes := tt.SupportedPEs()
	if len(pes) != 2 || pes[0] != 0 || pes[1] != 1 {
		t.Errorf("SupportedPEs = %v", pes)
	}
}

func TestImplEnergy(t *testing.T) {
	im := Impl{Time: 2e-3, Power: 5e-3}
	if got, want := im.Energy(), 1e-5; got != want {
		t.Errorf("Energy = %v, want %v", got, want)
	}
}

func TestEffectiveDeadline(t *testing.T) {
	task := &Task{Deadline: 0}
	if got := task.EffectiveDeadline(0.2); got != 0.2 {
		t.Errorf("no deadline: got %v, want period", got)
	}
	task = &Task{Deadline: 0.05}
	if got := task.EffectiveDeadline(0.2); got != 0.05 {
		t.Errorf("tight deadline: got %v, want 0.05", got)
	}
	task = &Task{Deadline: 0.5}
	if got := task.EffectiveDeadline(0.2); got != 0.2 {
		t.Errorf("loose deadline: got %v, want period", got)
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := NewTaskGraph(
		[]*Task{{ID: 0}, {ID: 1}, {ID: 2}},
		[]*Edge{{ID: 0, Src: 1, Dst: 2}, {ID: 1, Src: 0, Dst: 1}},
	)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want := []TaskID{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := NewTaskGraph(
		[]*Task{{ID: 0}, {ID: 1}},
		[]*Edge{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 1, Dst: 0}},
	)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestTopoOrderDeterministicAmongReady(t *testing.T) {
	// Diamond: 0 -> {1,2} -> 3; among ready {1,2} the smaller ID first.
	g := NewTaskGraph(
		[]*Task{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}},
		[]*Edge{
			{ID: 0, Src: 0, Dst: 2},
			{ID: 1, Src: 0, Dst: 1},
			{ID: 2, Src: 2, Dst: 3},
			{ID: 3, Src: 1, Dst: 3},
		},
	)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if order[1] != 1 || order[2] != 2 {
		t.Errorf("order = %v, want [0 1 2 3]", order)
	}
}

func TestGraphAdjacency(t *testing.T) {
	sys := minimalSystem(t)
	g := sys.App.Modes[0].Graph
	if len(g.Out(0)) != 1 || len(g.In(1)) != 1 || len(g.In(0)) != 0 {
		t.Error("adjacency wrong")
	}
	if g.Task(5) != nil || g.Edge(9) != nil {
		t.Error("out-of-range lookups must be nil")
	}
}

func TestValidateAcceptsMinimal(t *testing.T) {
	sys := minimalSystem(t)
	if err := sys.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
}

func TestValidateRejectsBadProbabilities(t *testing.T) {
	sys := minimalSystem(t)
	sys.App.Modes[0].Prob = 0.5 // sum now 1.25
	if err := sys.Validate(); err == nil {
		t.Fatal("probability sum != 1 must be rejected")
	}
}

func TestValidateRejectsBadVoltages(t *testing.T) {
	sys := minimalSystem(t)
	sys.Arch.PEs[0].DVS = true
	sys.Arch.PEs[0].Levels = nil
	if err := sys.Validate(); err == nil {
		t.Fatal("DVS PE without levels must be rejected")
	}
	sys.Arch.PEs[0].Levels = []float64{3.3, 1.2}
	if err := sys.Validate(); err == nil {
		t.Fatal("unsorted levels must be rejected")
	}
	sys.Arch.PEs[0].Levels = []float64{1.2, 2.5}
	if err := sys.Validate(); err == nil {
		t.Fatal("top level != Vmax must be rejected")
	}
	sys.Arch.PEs[0].Levels = []float64{0.5, 3.3}
	if err := sys.Validate(); err == nil {
		t.Fatal("level below Vt must be rejected")
	}
}

func TestValidateRejectsHardwareWithoutArea(t *testing.T) {
	sys := minimalSystem(t)
	sys.Arch.PEs[1].Area = 0
	if err := sys.Validate(); err == nil {
		t.Fatal("hardware PE without area must be rejected")
	}
}

func TestValidateRejectsEmptyLibrary(t *testing.T) {
	sys := minimalSystem(t)
	sys.Lib.Types = nil
	if err := sys.Validate(); err == nil {
		t.Fatal("empty library must be rejected")
	}
}

func TestValidateRejectsBadTransition(t *testing.T) {
	sys := minimalSystem(t)
	sys.App.Transitions = append(sys.App.Transitions, Transition{From: 0, To: 0})
	if err := sys.Validate(); err == nil {
		t.Fatal("self-loop transition must be rejected")
	}
	sys.App.Transitions = []Transition{{From: 0, To: 7}}
	if err := sys.Validate(); err == nil {
		t.Fatal("transition to unknown mode must be rejected")
	}
}

func TestWithApp(t *testing.T) {
	sys := minimalSystem(t)
	app := &OMSM{Name: "other", Modes: sys.App.Modes}
	sys2 := sys.WithApp(app)
	if sys2.App != app {
		t.Error("WithApp must use the given application")
	}
	if sys2.Arch != sys.Arch || sys2.Lib != sys.Lib {
		t.Error("WithApp must share arch and lib")
	}
}

func TestTotals(t *testing.T) {
	sys := minimalSystem(t)
	if got := sys.App.TotalTasks(); got != 3 {
		t.Errorf("TotalTasks = %d, want 3", got)
	}
	if got := sys.App.TotalEdges(); got != 1 {
		t.Errorf("TotalEdges = %d, want 1", got)
	}
}

func TestCandidatePEs(t *testing.T) {
	sys := minimalSystem(t)
	if got := sys.CandidatePEs(0); len(got) != 2 {
		t.Errorf("type a candidates = %v", got)
	}
	if got := sys.CandidatePEs(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("type b candidates = %v", got)
	}
	if got := sys.CandidatePEs(42); got != nil {
		t.Errorf("unknown type candidates = %v", got)
	}
}

func TestMappingHelpers(t *testing.T) {
	sys := minimalSystem(t)
	m := NewMapping(sys.App)
	if m[0][0] != NoPE {
		t.Fatal("fresh mapping must be unassigned")
	}
	m[0][0], m[0][1], m[1][0] = 1, 0, 0
	if err := m.Validate(sys); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	cl := m.Clone()
	cl[0][0] = 0
	if m[0][0] != 1 {
		t.Error("Clone must be deep")
	}
	if m.Equal(cl) {
		t.Error("different mappings reported equal")
	}
	cl[0][0] = 1
	if !m.Equal(cl) {
		t.Error("equal mappings reported different")
	}
	if got := m.TasksOn(sys.App, 0, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("TasksOn(cpu) = %v", got)
	}
	if !m.UsesPE(0, 1) || m.UsesPE(1, 1) {
		t.Error("UsesPE wrong")
	}
	if got := m.PE(0, 0); got != 1 {
		t.Errorf("PE(0,0) = %v", got)
	}
}

func TestMappingValidateRejectsTypeMismatch(t *testing.T) {
	sys := minimalSystem(t)
	m := NewMapping(sys.App)
	m[0][0], m[0][1], m[1][0] = 0, 1, 0 // t1 (type b) on asic: no impl
	if err := m.Validate(sys); err == nil {
		t.Fatal("type without impl on PE must be rejected")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3}) // duplicate
	if _, err := b.Finish(); err == nil {
		t.Fatal("duplicate PE must fail")
	}

	b = NewBuilder("bad2")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddType("a", ImplSpec{PE: "nope", Time: 1, Power: 1})
	if _, err := b.Finish(); err == nil {
		t.Fatal("impl on unknown PE must fail")
	}

	b = NewBuilder("bad3")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddType("a", ImplSpec{PE: "cpu", Time: 1, Power: 1})
	b.AddTask("orphan", "a", 0) // before BeginMode
	if _, err := b.Finish(); err == nil {
		t.Fatal("task before BeginMode must fail")
	}

	b = NewBuilder("bad4")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddType("a", ImplSpec{PE: "cpu", Time: 1, Power: 1})
	b.BeginMode("m", 1, 1)
	b.AddTask("t", "a", 0)
	b.AddEdge("t", "missing", 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("edge to unknown task must fail")
	}

	b = NewBuilder("bad5")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddType("a", ImplSpec{PE: "cpu", Time: 1, Power: 1})
	b.BeginMode("m", 1, 1)
	b.AddTask("t", "zzz", 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("task of unknown type must fail")
	}

	b = NewBuilder("bad6")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddCL(CL{Name: "bus", BytesPerSec: 1}, "ghost")
	if _, err := b.Finish(); err == nil {
		t.Fatal("CL attaching unknown PE must fail")
	}

	b = NewBuilder("bad7")
	b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	b.AddType("a", ImplSpec{PE: "cpu", Time: 1, Power: 1})
	b.AddTransition("x", "y", 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("transition between unknown modes must fail")
	}
}

func TestBuilderPEByName(t *testing.T) {
	b := NewBuilder("x")
	id := b.AddPE(PE{Name: "cpu", Class: GPP, Vmax: 3.3})
	if got := b.PEByName("cpu"); got != id {
		t.Errorf("PEByName = %v, want %v", got, id)
	}
	if got := b.PEByName("ghost"); got != NoPE {
		t.Errorf("unknown PEByName = %v, want NoPE", got)
	}
}

// TestQuickTopoOrderOnRandomDAGs draws random forward-edge DAGs and checks
// that the topological order is a valid linearisation covering every task.
func TestQuickTopoOrderOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{ID: TaskID(i)}
		}
		var edges []*Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					edges = append(edges, &Edge{ID: EdgeID(len(edges)), Src: TaskID(i), Dst: TaskID(j)})
				}
			}
		}
		g := NewTaskGraph(tasks, edges)
		order, err := g.TopoOrder()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, tid := range order {
			pos[tid] = i
		}
		for _, e := range edges {
			if pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickTopoOrderRejectsRandomCycles plants one back edge into a random
// chain and expects detection.
func TestQuickTopoOrderRejectsRandomCycles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{ID: TaskID(i)}
		}
		var edges []*Edge
		for i := 0; i+1 < n; i++ {
			edges = append(edges, &Edge{ID: EdgeID(len(edges)), Src: TaskID(i), Dst: TaskID(i + 1)})
		}
		// Back edge from a later to an earlier node closes a cycle.
		hi := 1 + rng.Intn(n-1)
		lo := rng.Intn(hi)
		edges = append(edges, &Edge{ID: EdgeID(len(edges)), Src: TaskID(hi), Dst: TaskID(lo)})
		g := NewTaskGraph(tasks, edges)
		_, err := g.TopoOrder()
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
