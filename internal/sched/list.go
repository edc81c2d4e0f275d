package sched

import (
	"fmt"
	"math"
	"slices"
	"time"

	"momosyn/internal/energy"
	"momosyn/internal/model"
)

// CoreProvider exposes the hardware core allocation of the outer synthesis
// loop to the scheduler: how many core instances of a task type exist on a
// hardware PE while a given mode is active. Software PEs are not queried.
type CoreProvider interface {
	Instances(mode model.ModeID, pe model.PEID, tt model.TaskTypeID) int
}

// SingleCores is the trivial core provider granting exactly one instance
// per (PE, type); useful for tests and for architectures without replica
// cores.
type SingleCores struct{}

// Instances implements CoreProvider.
func (SingleCores) Instances(model.ModeID, model.PEID, model.TaskTypeID) int { return 1 }

// TaskSlot is the scheduled execution of one task.
type TaskSlot struct {
	Task model.TaskID
	PE   model.PEID
	// Core is the core-instance index among the instances of the task's
	// type on the PE; -1 for software PEs.
	Core int
	// Start and Finish are the scheduled execution interval. DVS voltage
	// selection may later stretch the interval.
	Start, Finish float64
	// NomTime and Power are the nominal (Vmax) execution time and dynamic
	// power from the technology library.
	NomTime float64
	Power   float64
	// VoltIdx indexes the PE's voltage levels; it equals the top level
	// until voltage scaling lowers it, and -1 on non-DVS PEs.
	VoltIdx int
	// Energy is the dynamic energy of this execution under the current
	// voltage selection.
	Energy float64
}

// CommSlot is the scheduled transfer of one task-graph edge.
type CommSlot struct {
	Edge model.EdgeID
	// CL is the link carrying the message; NoCL for intra-PE edges and for
	// unroutable edges.
	CL            model.CLID
	Start, Finish float64
	Time          float64
	Power         float64
	Energy        float64
	// Routed is false when the two endpoint PEs share no link; such
	// schedules are infeasible and carry a surrogate delay.
	Routed bool
}

// Schedule is the complete inner-loop result for one mode: communication
// mapping Mγ plus start times Sε for all activities.
type Schedule struct {
	Mode     model.ModeID
	Tasks    []TaskSlot // indexed by TaskID
	Comms    []CommSlot // indexed by EdgeID
	Makespan float64
	// Unroutable counts edges between unconnected PEs.
	Unroutable int
}

// Lateness returns the summed deadline violation over all tasks of the
// schedule: sum over tasks of max(0, finish - min(deadline, period)).
//
//mm:noalloc
func (sc *Schedule) Lateness(s *model.System) float64 {
	mode := s.App.Mode(sc.Mode)
	late := 0.0
	for ti := range sc.Tasks {
		d := mode.Graph.Task(model.TaskID(ti)).EffectiveDeadline(mode.Period)
		if v := sc.Tasks[ti].Finish - d; v > 0 {
			late += v
		}
	}
	return late
}

// Feasible reports whether the schedule routes all communications and meets
// all deadlines.
func (sc *Schedule) Feasible(s *model.System) bool {
	return sc.Unroutable == 0 && sc.Lateness(s) <= 1e-9
}

// DynamicEnergy sums the dynamic energy of all activities under the current
// voltage selection.
//
//mm:noalloc
func (sc *Schedule) DynamicEnergy() float64 {
	e := 0.0
	for i := range sc.Tasks {
		e += sc.Tasks[i].Energy
	}
	for i := range sc.Comms {
		e += sc.Comms[i].Energy
	}
	return e
}

// UsedCLs returns per-CL activity flags: true when at least one message is
// carried by the link during the mode. CLs idle in a mode can be shut down.
func (sc *Schedule) UsedCLs(arch *model.Arch) []bool {
	used := make([]bool, len(arch.CLs))
	sc.MarkUsedCLs(used)
	return used
}

// MarkUsedCLs is UsedCLs into a caller-owned slice holding one flag per
// link, which it overwrites.
//
//mm:noalloc
func (sc *Schedule) MarkUsedCLs(used []bool) {
	clear(used)
	for i := range sc.Comms {
		if sc.Comms[i].Routed && sc.Comms[i].CL != model.NoCL && sc.Comms[i].Time > 0 {
			used[sc.Comms[i].CL] = true
		}
	}
}

// Clone returns a deep copy of the schedule.
func (sc *Schedule) Clone() *Schedule {
	c := *sc
	c.Tasks = slices.Clone(sc.Tasks)
	c.Comms = slices.Clone(sc.Comms)
	return &c
}

// resourceState tracks the next-free time of every sequential resource.
type resourceState struct {
	peFree []float64 // software PEs
	clFree []float64 // communication links
	// pools[pe*nTypes+tt] locates the core-instance pool of type tt on
	// hardware PE pe inside poolBuf; n == 0 marks a pool the mode lacks.
	nTypes  int
	pools   []poolSpan
	poolBuf []float64
	// timed enables wall-clock accounting of the communication-mapping
	// portion of scheduling, accumulated into commTime. Timing is pure
	// observation: it never influences any scheduling decision.
	timed    bool
	commTime time.Duration
}

// poolSpan is the window poolBuf[off:off+n] holding one core pool's
// next-free times.
type poolSpan struct{ off, n int }

// Scheduler is the reusable working state of the list scheduler: resource
// next-free times, core-instance pools, the ready heap and the in-degree
// counters. The zero value is ready to use; the buffers grow on the first
// Run and are reused by every later one. A Scheduler is not safe for
// concurrent use.
type Scheduler struct {
	rs    resourceState
	ready []model.TaskID
	indeg []int
	// mob holds the priorities of the run in progress.
	mob *Mobility
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. The contents are stale; callers overwrite or clear them.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		//mm:alloc-ok grows only past the largest size seen; steady state reuses the buffer
		return make([]T, n)
	}
	return buf[:n]
}

// ListSchedule constructs the schedule of one mode under the given mapping
// using mobility-driven list scheduling. Tasks are prioritised by latest
// start time (ALAP), ties broken by mobility then task ID. Communications
// are mapped greedily to the connecting link giving the earliest arrival.
// A nil mob is computed. ListSchedule allocates a fresh schedule and
// scheduler; loops that schedule repeatedly keep a Scheduler and call Run.
func ListSchedule(s *model.System, modeID model.ModeID, mapping model.Mapping, cores CoreProvider, mob *Mobility) (*Schedule, error) {
	if mob == nil {
		var err error
		mob, err = ComputeMobility(s, modeID, mapping)
		if err != nil {
			return nil, err
		}
	}
	var x Scheduler
	sc := &Schedule{}
	if _, err := x.Run(s, modeID, mapping, cores, mob, sc, false); err != nil {
		return nil, err
	}
	return sc, nil
}

// Run is ListSchedule into caller-owned storage: it writes the schedule of
// the mode into sc, reusing sc's slot slices and the scheduler's buffers,
// so repeated runs allocate nothing once both are sized. mob must be the
// mode's mobility under the mapping. With timed set, Run also returns the
// wall-clock time spent inside communication mapping (the scheduleComm
// portion), so callers can report the nested comm-mapping share of
// scheduling without this package depending on any observability layer.
//
//mm:noalloc
func (x *Scheduler) Run(s *model.System, modeID model.ModeID, mapping model.Mapping, cores CoreProvider, mob *Mobility, sc *Schedule, timed bool) (time.Duration, error) {
	mode := s.App.Mode(modeID)
	g := mode.Graph
	n := len(g.Tasks)
	sc.Mode = modeID
	sc.Tasks = grow(sc.Tasks, n)
	sc.Comms = grow(sc.Comms, len(g.Edges))
	sc.Makespan = 0
	sc.Unroutable = 0
	x.rs.reset(s, mode, cores, timed)

	x.indeg = grow(x.indeg, n)
	clear(x.indeg)
	for _, e := range g.Edges {
		x.indeg[e.Dst]++
	}
	x.mob = mob
	x.ready = grow(x.ready, n)[:0]
	for i := 0; i < n; i++ {
		if x.indeg[i] == 0 {
			x.push(model.TaskID(i))
		}
	}
	for done := 0; done < n; done++ {
		if len(x.ready) == 0 {
			return 0, cycleError(mode)
		}
		t := x.pop()
		scheduleTask(s, mode, mapping[modeID], &x.rs, sc, t)
		for _, eid := range g.Out(t) {
			d := g.Edge(eid).Dst
			x.indeg[d]--
			if x.indeg[d] == 0 {
				x.push(d)
			}
		}
	}
	return x.rs.commTime, nil
}

// cycleError reports a mode whose ready list ran dry before every task was
// scheduled.
func cycleError(mode *model.Mode) error {
	return fmt.Errorf("sched: mode %q: dependency cycle", mode.Name)
}

// before is the ready-list priority: earlier ALAP first, then smaller
// slack, then smaller task ID. It is a strict total order, so the heap
// pops tasks in exactly the order a full sort of the ready list would.
func (x *Scheduler) before(a, b model.TaskID) bool {
	m := x.mob
	switch {
	case m.ALAP[a] < m.ALAP[b]:
		return true
	case m.ALAP[b] < m.ALAP[a]:
		return false
	}
	switch sa, sb := m.Slack(a), m.Slack(b); {
	case sa < sb:
		return true
	case sb < sa:
		return false
	}
	return a < b
}

// push adds a task to the ready heap.
func (x *Scheduler) push(t model.TaskID) {
	//mm:alloc-ok never grows: Run presizes ready to the mode's task count
	x.ready = append(x.ready, t)
	h := x.ready
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !x.before(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// pop removes and returns the most urgent ready task.
func (x *Scheduler) pop() model.TaskID {
	h := x.ready
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	x.ready = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && x.before(h[c+1], h[c]) {
			c++
		}
		if !x.before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}

// reset readies the resource state for scheduling one mode: every resource
// free at time zero, and one core pool per hardware PE and task type the
// mode contains, sized by the core provider, so the scheduling loop never
// has to create a pool mid-flight.
func (rs *resourceState) reset(s *model.System, mode *model.Mode, cores CoreProvider, timed bool) {
	rs.peFree = grow(rs.peFree, len(s.Arch.PEs))
	clear(rs.peFree)
	rs.clFree = grow(rs.clFree, len(s.Arch.CLs))
	clear(rs.clFree)
	rs.nTypes = len(s.Lib.Types)
	rs.pools = grow(rs.pools, len(s.Arch.PEs)*rs.nTypes)
	clear(rs.pools)
	total := 0
	for _, pe := range s.Arch.PEs {
		if !pe.Class.IsHardware() {
			continue
		}
		for _, task := range mode.Graph.Tasks {
			sp := &rs.pools[int(pe.ID)*rs.nTypes+int(task.Type)]
			if sp.n > 0 {
				continue
			}
			cnt := cores.Instances(mode.ID, pe.ID, task.Type)
			if cnt < 1 {
				cnt = 1
			}
			*sp = poolSpan{off: total, n: cnt}
			total += cnt
		}
	}
	rs.poolBuf = grow(rs.poolBuf, total)
	clear(rs.poolBuf)
	rs.timed = timed
	rs.commTime = 0
}

// pool returns the next-free times of the core instances of type tt on
// hardware PE pe.
func (rs *resourceState) pool(pe model.PEID, tt model.TaskTypeID) []float64 {
	sp := rs.pools[int(pe)*rs.nTypes+int(tt)]
	return rs.poolBuf[sp.off : sp.off+sp.n]
}

// scheduleTask places one task (and its incoming communications) onto the
// architecture. All predecessors are already scheduled; the core pools are
// laid out by resourceState.reset.
//
//mm:noalloc
func scheduleTask(s *model.System, mode *model.Mode, mapRow []model.PEID, rs *resourceState, sc *Schedule, t model.TaskID) {
	g := mode.Graph
	task := g.Task(t)
	pe := s.Arch.PE(mapRow[t])
	dataReady := 0.0
	var commStart time.Time
	if rs.timed {
		commStart = time.Now()
	}
	for _, eid := range g.In(t) {
		e := g.Edge(eid)
		arr := scheduleComm(s, mode, mapRow, rs, sc, e)
		if arr > dataReady {
			dataReady = arr
		}
	}
	if rs.timed {
		rs.commTime += time.Since(commStart)
	}
	im, okImpl := s.Lib.Type(task.Type).ImplOn(pe.ID)
	exec := im.Time
	power := im.Power
	if !okImpl {
		exec = unroutablePenalty(mode.Period)
		power = 0
	}

	var start float64
	core := -1
	if pe.Class.IsHardware() {
		inst := rs.pool(pe.ID, task.Type)
		core = 0
		for i := 1; i < len(inst); i++ {
			if inst[i] < inst[core] {
				core = i
			}
		}
		start = math.Max(dataReady, inst[core])
		inst[core] = start + exec
	} else {
		start = math.Max(dataReady, rs.peFree[pe.ID])
		rs.peFree[pe.ID] = start + exec
	}
	volt := -1
	if pe.DVS {
		volt = len(pe.Levels) - 1
	}
	sc.Tasks[t] = TaskSlot{
		Task:    t,
		PE:      pe.ID,
		Core:    core,
		Start:   start,
		Finish:  start + exec,
		NomTime: exec,
		Power:   power,
		VoltIdx: volt,
		Energy:  power * exec,
	}
	if f := start + exec; f > sc.Makespan {
		sc.Makespan = f
	}
}

// scheduleComm places the message of edge e and returns its arrival time at
// the destination PE.
//
//mm:noalloc
func scheduleComm(s *model.System, mode *model.Mode, mapRow []model.PEID, rs *resourceState, sc *Schedule, e *model.Edge) float64 {
	srcSlot := &sc.Tasks[e.Src]
	srcPE, dstPE := mapRow[e.Src], mapRow[e.Dst]
	slot := CommSlot{Edge: e.ID, CL: model.NoCL, Routed: true}
	if srcPE == dstPE {
		// Intra-PE communication: instantaneous and free.
		slot.Start = srcSlot.Finish
		slot.Finish = srcSlot.Finish
		sc.Comms[e.ID] = slot
		return slot.Finish
	}
	// Greedy communication mapping over an inline link scan (LinksBetween
	// would allocate an ID slice per edge): the connecting CL with the
	// earliest arrival wins; ties go to the lower CL ID for determinism
	// (ascending scan, strict <).
	bestCL := model.NoCL
	bestStart, bestFinish := 0.0, math.Inf(1)
	var bestTime float64
	for _, cand := range s.Arch.CLs {
		if !cand.Connects(srcPE, dstPE) {
			continue
		}
		ct := energy.CommTime(e.Bytes, cand)
		st := math.Max(srcSlot.Finish, rs.clFree[cand.ID])
		if f := st + ct; f < bestFinish {
			bestCL, bestStart, bestFinish, bestTime = cand.ID, st, f, ct
		}
	}
	if bestCL == model.NoCL {
		slot.Routed = false
		slot.Start = srcSlot.Finish
		slot.Time = unroutablePenalty(mode.Period)
		slot.Finish = slot.Start + slot.Time
		sc.Comms[e.ID] = slot
		sc.Unroutable++
		if slot.Finish > sc.Makespan {
			sc.Makespan = slot.Finish
		}
		return slot.Finish
	}
	cl := s.Arch.CL(bestCL)
	rs.clFree[bestCL] = bestFinish
	slot.CL = bestCL
	slot.Start = bestStart
	slot.Finish = bestFinish
	slot.Time = bestTime
	slot.Power = cl.PowerActive
	slot.Energy = energy.CommEnergy(cl.PowerActive, bestTime)
	sc.Comms[e.ID] = slot
	if bestFinish > sc.Makespan {
		sc.Makespan = bestFinish
	}
	return bestFinish
}
