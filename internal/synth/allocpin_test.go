package synth

import (
	"testing"

	"momosyn/internal/allocpin"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Sinks defeat dead-code elimination of the measured calls.
var (
	sinkU64 uint64
	sinkF   float64
	sinkB   bool
	sinkI   int
	sinkE   error
)

// TestAllocPins proves every //mm:noalloc function in this package runs
// with zero allocations on realistic inputs (see internal/allocpin).
func TestAllocPins(t *testing.T) {
	sys := testSystem(t)
	mapping := model.NewMapping(sys.App)
	for mi := range mapping {
		for ti := range mapping[mi] {
			mapping[mi][ti] = 0
		}
	}
	mapping[0][0] = 1 // shared task on hw in mode 0: cross-PE traffic

	nModes := len(sys.App.Modes)
	mob := make([]*sched.Mobility, nModes)
	for m := 0; m < nModes; m++ {
		mm, err := sched.ComputeMobility(sys, model.ModeID(m), mapping)
		if err != nil {
			t.Fatal(err)
		}
		mob[m] = mm
	}
	alloc := AllocateCoresWith(sys, mapping, mob, false)

	e := NewEvaluator(sys, false)
	ev, err := e.Evaluate(mapping)
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.App.Transitions[0]
	demand := make([]int, len(sys.Lib.Types))
	demand[0], demand[2] = 3, 2
	hwPE := sys.Arch.PEs[1]

	// Reused targets for the whole-pass pins; the first call sizes them.
	scratchEval := NewEvaluator(sys, false)
	var al allocator
	into := &Allocation{}

	allocpin.Verify(t, ".", []allocpin.Pin{
		{Name: "mappingHash", Body: func() { sinkU64 = mappingHash(mapping, 1) }},
		{Name: "Evaluator.penalties", Body: func() { e.penalties(ev) }},
		{Name: "transAfter", Body: func() { sinkB = transAfter(sys.App.Transitions, 0, len(sys.App.Transitions)-1) }},
		{Name: "Evaluator.prob", Body: func() { sinkF = e.prob(1) }},
		{Name: "Evaluation.Feasible", Body: func() { sinkB = ev.Feasible() }},
		{Name: "Evaluation.Reweighted", Body: func() { sinkF = ev.Reweighted(sys, nil) }},
		{Name: "PowerUpperBound", Body: func() { sinkF = PowerUpperBound(sys) }},
		{Name: "Evaluator.evaluate", Body: func() { _, sinkE = scratchEval.evaluate(mapping) }},
		{Name: "allocator.allocate", Body: func() { al.allocate(sys, mapping, mob, false, into) }},
		{Name: "Allocation.row", Body: func() { sinkI = len(alloc.row(1, hwPE.ID)) }},
		{Name: "Allocation.Instances", Body: func() { sinkI = alloc.Instances(0, hwPE.ID, 0) }},
		{Name: "Allocation.TransitionTime", Body: func() { sinkF = alloc.TransitionTime(sys, tr) }},
		{Name: "capDemand", Body: func() { capDemand(demand) }},
		{Name: "usedMandatory", Body: func() { sinkI = usedMandatory(sys, demand, hwPE) }},
	})
}
