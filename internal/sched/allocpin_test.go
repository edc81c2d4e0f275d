package sched

import (
	"testing"

	"momosyn/internal/allocpin"
	"momosyn/internal/model"
)

// Sinks defeat dead-code elimination of the measured calls.
var (
	sinkF float64
	sinkB bool
	sinkI int
	sinkE error
)

// TestAllocPins proves every //mm:noalloc function in this package runs
// with zero allocations on realistic inputs (see internal/allocpin).
func TestAllocPins(t *testing.T) {
	sys := twoPESystem(t)
	mapping := allTo(sys, 0)
	mapping[0][1] = 1 // t1 on hw: comm paths cross the bus
	mode := sys.App.Mode(0)
	g := mode.Graph
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	mob, err := ComputeMobility(sys, 0, mapping)
	if err != nil {
		t.Fatal(err)
	}
	crossEdge := g.Edge(0) // t0 -> t1 spans cpu -> hw

	// A finished schedule for the read-only pins.
	done, err := ListSchedule(sys, 0, mapping, SingleCores{}, mob)
	if err != nil {
		t.Fatal(err)
	}
	c1 := scheduleCost(sys, done)
	c2 := c1
	c2.energy++

	// A mutable scratch schedule for the scheduling-step pins. Seeding it
	// via a full run fills every predecessor slot scheduleTask reads.
	var x Scheduler
	scratch := &Schedule{}
	if _, err := x.Run(sys, 0, mapping, SingleCores{}, mob, scratch, false); err != nil {
		t.Fatal(err)
	}
	rs := &resourceState{}
	rs.reset(sys, mode, SingleCores{}, false)

	// Reused targets for the whole-pass pins; the first call sizes them.
	var mobInto Mobility
	var runner Scheduler
	into := &Schedule{}
	tasks := []model.TaskID{0, 1, 2, 3}
	used := make([]bool, len(sys.Arch.CLs))

	allocpin.Verify(t, ".", []allocpin.Pin{
		{Name: "Mobility.Slack", Body: func() { sinkF = mob.Slack(1) }},
		{Name: "Mobility.fill", Body: func() { mob.fill(sys, mode, 0, mapping, order) }},
		{Name: "Mobility.Compute", Body: func() { sinkE = mobInto.Compute(sys, 0, mapping) }},
		{Name: "Mobility.MaxOverlap", Body: func() { sinkI = mob.MaxOverlap(tasks) }},
		{Name: "Scheduler.Run", Body: func() { _, sinkE = runner.Run(sys, 0, mapping, SingleCores{}, mob, into, true) }},
		{Name: "commBound", Body: func() { sinkF = commBound(sys, crossEdge, 0, 1, mode.Period) }},
		{Name: "execTime", Body: func() { sinkF = execTime(sys, mode, 0, 0) }},
		{Name: "unroutablePenalty", Body: func() { sinkF = unroutablePenalty(mode.Period) }},
		{Name: "scheduleTask", Body: func() { scheduleTask(sys, mode, mapping[0], rs, scratch, 3) }},
		{Name: "scheduleComm", Body: func() { sinkF = scheduleComm(sys, mode, mapping[0], rs, scratch, crossEdge) }},
		{Name: "Schedule.Lateness", Body: func() { sinkF = done.Lateness(sys) }},
		{Name: "Schedule.DynamicEnergy", Body: func() { sinkF = done.DynamicEnergy() }},
		{Name: "Schedule.MarkUsedCLs", Body: func() { done.MarkUsedCLs(used) }},
		{Name: "scheduleCost", Body: func() { c1 = scheduleCost(sys, done) }},
		{Name: "cost.less", Body: func() { sinkB = c1.less(c2) }},
	})
}
