package dvs

import (
	"testing"

	"momosyn/internal/allocpin"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Sinks defeat dead-code elimination of the measured calls.
var (
	sinkF float64
	sinkI int
	sinkB bool
)

// TestAllocPins proves every //mm:noalloc function in this package runs
// with zero allocations on realistic inputs (see internal/allocpin). The
// schedule puts two parallel tasks on a DVS ASIC and a consumer on a
// processor, so the graph has segments, communications and chains. Every
// body runs once as AllocsPerRun's warm-up, which sizes the scratch.
func TestAllocPins(t *testing.T) {
	sys := hwDVSSystem(t, 50e-3)
	m := model.NewMapping(sys.App)
	m[0][0], m[0][1], m[0][2] = 1, 1, 0
	nominal, err := sched.ListSchedule(sys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := nominal.Clone()
	// restore undoes the previous scaling, so Run scales the same schedule
	// every time.
	restore := func() {
		copy(sc.Tasks, nominal.Tasks)
		copy(sc.Comms, nominal.Comms)
		sc.Makespan = nominal.Makespan
	}
	hw := sys.Arch.PEs[1]

	// run scales end to end; built holds a constraint graph for the phase
	// pins; segs re-segments the ASIC on top of its plain nodes.
	var run, built, segs Scaler
	if !built.build(sys, sc, Config{}) {
		t.Fatal("constraint graph must have scalable nodes")
	}
	if !segs.build(sys, sc, Config{}) {
		t.Fatal("constraint graph must have scalable nodes")
	}
	plain := 0
	for _, nd := range segs.g.nodes {
		if nd.kind == nkTask {
			plain++
		}
	}
	slots := nominal.Tasks[:2]
	seg := Segment{Start: 1e-3, End: 4e-3}

	allocpin.Verify(t, ".", []allocpin.Pin{
		{Name: "Segment.Duration", Body: func() { sinkF = seg.Duration() }},
		{Name: "maxLevel", Body: func() { sinkI = maxLevel(hw) }},
		{Name: "Scaler.Run", Body: func() { restore(); sinkB = run.Run(sys, sc, Config{}) }},
		{Name: "Scaler.build", Body: func() { sinkB = built.build(sys, sc, Config{}) }},
		{Name: "Scaler.segmentPE", Body: func() {
			segs.g.nodes = segs.g.nodes[:plain]
			segs.edges = segs.edges[:0]
			segs.segTasks = segs.segTasks[:0]
			sinkB = segs.segmentPE(sys, sc, hw)
		}},
		{Name: "Scaler.transform", Body: func() {
			segs.segTasks = segs.segTasks[:0]
			segs.transform(slots)
		}},
		{Name: "timestamp", Body: func() { timestamp(&built.g) }},
		// The first run performs all voltage moves; later runs verify the
		// fixed point is allocation-free too.
		{Name: "greedyScale", Body: func() { sinkB = greedyScale(&built.g) }},
		{Name: "Scaler.writeBack", Body: func() { built.writeBack(sc) }},
	})
}
