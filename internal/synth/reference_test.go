package synth

import (
	"fmt"
	"math"
	"sort"

	"momosyn/internal/dvs"
	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Reference inner loop: the evaluation pipeline as it was before the
// topological order moved into the task graph, the ready list became a
// heap, core pools and allocations became flat slices and evaluations got
// scratch memory. The differential tests run it against the live code and
// require bit-identical results, so it must stay as it is: a copy of the
// old behaviour, not a second implementation to improve.

// refTopoOrder is Kahn's algorithm re-sorting the ready list by ID before
// every pop.
func refTopoOrder(g *model.TaskGraph) ([]model.TaskID, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	ready := make([]model.TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, model.TaskID(i))
		}
	}
	order := make([]model.TaskID, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		t := ready[0]
		ready = ready[1:]
		order = append(order, t)
		for _, eid := range g.Out(t) {
			d := g.Edges[eid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: task graph contains a cycle (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

func refUnroutablePenalty(period float64) float64 { return 10 * period }

func refCommBound(s *model.System, e *model.Edge, srcPE, dstPE model.PEID, period float64) float64 {
	if srcPE == dstPE {
		return 0
	}
	best := math.Inf(1)
	for _, cl := range s.Arch.CLs {
		if !cl.Connects(srcPE, dstPE) {
			continue
		}
		if t := energy.CommTime(e.Bytes, cl); t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return refUnroutablePenalty(period)
	}
	return best
}

// refComputeMobility sorts the mode's tasks topologically on every call.
func refComputeMobility(s *model.System, modeID model.ModeID, mapping model.Mapping) (*sched.Mobility, error) {
	mode := s.App.Mode(modeID)
	g := mode.Graph
	order, err := refTopoOrder(g)
	if err != nil {
		return nil, err
	}
	n := len(g.Tasks)
	m := &sched.Mobility{ASAP: make([]float64, n), ALAP: make([]float64, n), Exec: make([]float64, n)}
	for t := range g.Tasks {
		im, ok := s.Lib.Type(g.Task(model.TaskID(t)).Type).ImplOn(mapping[modeID][t])
		if ok {
			m.Exec[t] = im.Time
		} else {
			m.Exec[t] = refUnroutablePenalty(mode.Period)
		}
	}
	for _, t := range order {
		start := 0.0
		for _, eid := range g.In(t) {
			e := g.Edge(eid)
			c := refCommBound(s, e, mapping[modeID][e.Src], mapping[modeID][e.Dst], mode.Period)
			if v := m.ASAP[e.Src] + m.Exec[e.Src] + c; v > start {
				start = v
			}
		}
		m.ASAP[t] = start
	}
	for t := range g.Tasks {
		m.ALAP[t] = g.Task(model.TaskID(t)).EffectiveDeadline(mode.Period) - m.Exec[t]
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		latest := m.ALAP[t]
		for _, eid := range g.Out(t) {
			e := g.Edge(eid)
			c := refCommBound(s, e, mapping[modeID][e.Src], mapping[modeID][e.Dst], mode.Period)
			if v := m.ALAP[e.Dst] - c - m.Exec[t]; v < latest {
				latest = v
			}
		}
		m.ALAP[t] = latest
	}
	return m, nil
}

// refMaxOverlap sweeps sorted window events.
func refMaxOverlap(m *sched.Mobility, tasks []model.TaskID) int {
	if len(tasks) <= 1 {
		return len(tasks)
	}
	type ev struct {
		t     float64
		delta int
	}
	var evs []ev
	for _, t := range tasks {
		start := m.ASAP[t]
		end := m.ALAP[t] + m.Exec[t]
		if end <= start {
			end = start + m.Exec[t]
		}
		evs = append(evs, ev{start, +1}, ev{end, -1})
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := evs[j-1], evs[j]
			before := b.t < a.t
			if !before && !(a.t < b.t) {
				before = b.delta < a.delta
			}
			if !before {
				break
			}
			evs[j-1], evs[j] = b, a
		}
	}
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}

// refAllocation keeps instance counts in one map per mode.
type refAllocation struct {
	inst      []map[coreKey]int
	UsedArea  [][]int
	Violation []int
}

func (a *refAllocation) Instances(mode model.ModeID, pe model.PEID, tt model.TaskTypeID) int {
	return a.inst[mode][coreKey{pe, tt}]
}

func (a *refAllocation) TransitionTime(s *model.System, tr model.Transition) float64 {
	worst := 0.0
	for _, pe := range s.Arch.PEs {
		if pe.Class != model.FPGA || pe.ReconfigTime <= 0 {
			continue
		}
		swapIn := 0
		for key, cNew := range a.inst[tr.To] {
			if key.pe != pe.ID {
				continue
			}
			cOld := a.inst[tr.From][key]
			if cNew > cOld {
				swapIn += cNew - cOld
			}
		}
		if t := float64(swapIn) * pe.ReconfigTime; t > worst {
			worst = t
		}
	}
	return worst
}

// toAllocation converts the reference allocation into the live type, so
// the unchanged penalty code can score it.
func (a *refAllocation) toAllocation(s *model.System) *Allocation {
	out := &Allocation{}
	out.reset(s)
	for m := range a.inst {
		for key, c := range a.inst[m] {
			out.SetInstances(model.ModeID(m), key.pe, key.tt, c)
		}
		copy(out.UsedArea[m], a.UsedArea[m])
	}
	copy(out.Violation, a.Violation)
	return out
}

func refAllocateCoresWith(s *model.System, mapping model.Mapping, mob []*sched.Mobility, noReplicas bool) *refAllocation {
	nModes := len(s.App.Modes)
	nPEs := len(s.Arch.PEs)
	a := &refAllocation{
		inst:      make([]map[coreKey]int, nModes),
		UsedArea:  make([][]int, nModes),
		Violation: make([]int, nPEs),
	}
	for m := range a.inst {
		a.inst[m] = make(map[coreKey]int)
		a.UsedArea[m] = make([]int, nPEs)
	}
	for _, pe := range s.Arch.PEs {
		switch pe.Class {
		case model.ASIC:
			refAllocateASIC(s, mapping, mob, a, pe, noReplicas)
		case model.FPGA:
			refAllocateFPGA(s, mapping, mob, a, pe, noReplicas)
		case model.GPP, model.ASIP:
		}
	}
	return a
}

func refDemandsOn(s *model.System, mapping model.Mapping, mob *sched.Mobility, mode model.ModeID, pe model.PEID) map[model.TaskTypeID]int {
	byType := make(map[model.TaskTypeID][]model.TaskID)
	g := s.App.Mode(mode).Graph
	for ti := range g.Tasks {
		if mapping[mode][ti] == pe {
			tt := g.Task(model.TaskID(ti)).Type
			byType[tt] = append(byType[tt], model.TaskID(ti))
		}
	}
	out := make(map[model.TaskTypeID]int, len(byType))
	for tt, tasks := range byType {
		d := refMaxOverlap(mob, tasks)
		if d < 1 {
			d = 1
		}
		out[tt] = d
	}
	return out
}

func refAllocateASIC(s *model.System, mapping model.Mapping, mob []*sched.Mobility, a *refAllocation, pe *model.PE, noReplicas bool) {
	demand := make(map[model.TaskTypeID]int)
	for m := range s.App.Modes {
		for tt, d := range refDemandsOn(s, mapping, mob[m], model.ModeID(m), pe.ID) {
			if d > demand[tt] {
				demand[tt] = d
			}
		}
	}
	if noReplicas {
		for tt := range demand {
			demand[tt] = 1
		}
	}
	counts, used := refFillArea(s, demand, pe)
	if excess := refUsedMandatory(s, demand, pe) - pe.Area; excess > 0 {
		a.Violation[pe.ID] = excess
	}
	for m := range s.App.Modes {
		for tt, c := range counts {
			a.inst[m][coreKey{pe.ID, tt}] = c
		}
		a.UsedArea[m][pe.ID] = used
	}
}

func refAllocateFPGA(s *model.System, mapping model.Mapping, mob []*sched.Mobility, a *refAllocation, pe *model.PE, noReplicas bool) {
	for m := range s.App.Modes {
		demand := refDemandsOn(s, mapping, mob[m], model.ModeID(m), pe.ID)
		if noReplicas {
			for tt := range demand {
				demand[tt] = 1
			}
		}
		counts, used := refFillArea(s, demand, pe)
		if excess := refUsedMandatory(s, demand, pe) - pe.Area; excess > a.Violation[pe.ID] {
			a.Violation[pe.ID] = excess
		}
		for tt, c := range counts {
			a.inst[m][coreKey{pe.ID, tt}] = c
		}
		a.UsedArea[m][pe.ID] = used
	}
}

func refUsedMandatory(s *model.System, demand map[model.TaskTypeID]int, pe *model.PE) int {
	used := 0
	for tt := range demand {
		if im, ok := s.Lib.Type(tt).ImplOn(pe.ID); ok {
			used += im.Area
		}
	}
	return used
}

func refFillArea(s *model.System, demand map[model.TaskTypeID]int, pe *model.PE) (map[model.TaskTypeID]int, int) {
	counts := make(map[model.TaskTypeID]int, len(demand))
	used := 0
	var tds []typeDemand
	for tt, d := range demand {
		im, ok := s.Lib.Type(tt).ImplOn(pe.ID)
		if !ok {
			continue
		}
		counts[tt] = 1
		used += im.Area
		tds = append(tds, typeDemand{tt: tt, area: im.Area, demand: d})
	}
	sort.Slice(tds, func(i, j int) bool {
		a, b := tds[i], tds[j]
		if a.demand != b.demand {
			return a.demand > b.demand
		}
		if a.area != b.area {
			return a.area < b.area
		}
		return a.tt < b.tt
	})
	progress := true
	for progress {
		progress = false
		for _, td := range tds {
			if counts[td.tt] >= td.demand {
				continue
			}
			if used+td.area > pe.Area {
				continue
			}
			counts[td.tt]++
			used += td.area
			progress = true
		}
	}
	return counts, used
}

// refListSchedule re-sorts the ready list before every pop and keeps the
// core pools in a map.
func refListSchedule(s *model.System, modeID model.ModeID, mapping model.Mapping, cores sched.CoreProvider, mob *sched.Mobility) (*sched.Schedule, error) {
	mode := s.App.Mode(modeID)
	g := mode.Graph
	n := len(g.Tasks)
	sc := &sched.Schedule{Mode: modeID, Tasks: make([]sched.TaskSlot, n), Comms: make([]sched.CommSlot, len(g.Edges))}
	peFree := make([]float64, len(s.Arch.PEs))
	clFree := make([]float64, len(s.Arch.CLs))
	coreFree := make(map[coreKey][]float64)
	for _, pe := range s.Arch.PEs {
		if !pe.Class.IsHardware() {
			continue
		}
		for _, task := range mode.Graph.Tasks {
			key := coreKey{pe.ID, task.Type}
			if _, ok := coreFree[key]; ok {
				continue
			}
			cnt := cores.Instances(mode.ID, pe.ID, task.Type)
			if cnt < 1 {
				cnt = 1
			}
			coreFree[key] = make([]float64, cnt)
		}
	}
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	ready := make([]model.TaskID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, model.TaskID(i))
		}
	}
	mapRow := mapping[modeID]
	for done := 0; done < n; done++ {
		if len(ready) == 0 {
			return nil, fmt.Errorf("sched: mode %q: dependency cycle", mode.Name)
		}
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			switch {
			case mob.ALAP[a] < mob.ALAP[b]:
				return true
			case mob.ALAP[b] < mob.ALAP[a]:
				return false
			}
			switch sa, sb := mob.Slack(a), mob.Slack(b); {
			case sa < sb:
				return true
			case sb < sa:
				return false
			}
			return a < b
		})
		t := ready[0]
		ready = ready[1:]

		// Place the task and its incoming communications.
		task := g.Task(t)
		pe := s.Arch.PE(mapRow[t])
		dataReady := 0.0
		for _, eid := range g.In(t) {
			if arr := refScheduleComm(s, mode, mapRow, clFree, sc, g.Edge(eid)); arr > dataReady {
				dataReady = arr
			}
		}
		im, okImpl := s.Lib.Type(task.Type).ImplOn(pe.ID)
		exec, power := im.Time, im.Power
		if !okImpl {
			exec, power = refUnroutablePenalty(mode.Period), 0
		}
		var start float64
		core := -1
		if pe.Class.IsHardware() {
			inst := coreFree[coreKey{pe.ID, task.Type}]
			core = 0
			for i := 1; i < len(inst); i++ {
				if inst[i] < inst[core] {
					core = i
				}
			}
			start = math.Max(dataReady, inst[core])
			inst[core] = start + exec
		} else {
			start = math.Max(dataReady, peFree[pe.ID])
			peFree[pe.ID] = start + exec
		}
		volt := -1
		if pe.DVS {
			volt = len(pe.Levels) - 1
		}
		sc.Tasks[t] = sched.TaskSlot{Task: t, PE: pe.ID, Core: core, Start: start, Finish: start + exec,
			NomTime: exec, Power: power, VoltIdx: volt, Energy: power * exec}
		if f := start + exec; f > sc.Makespan {
			sc.Makespan = f
		}

		for _, eid := range g.Out(t) {
			d := g.Edge(eid).Dst
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	return sc, nil
}

func refScheduleComm(s *model.System, mode *model.Mode, mapRow []model.PEID, clFree []float64, sc *sched.Schedule, e *model.Edge) float64 {
	srcSlot := &sc.Tasks[e.Src]
	srcPE, dstPE := mapRow[e.Src], mapRow[e.Dst]
	slot := sched.CommSlot{Edge: e.ID, CL: model.NoCL, Routed: true}
	if srcPE == dstPE {
		slot.Start = srcSlot.Finish
		slot.Finish = srcSlot.Finish
		sc.Comms[e.ID] = slot
		return slot.Finish
	}
	bestCL := model.NoCL
	bestStart, bestFinish := 0.0, math.Inf(1)
	var bestTime float64
	for _, cand := range s.Arch.CLs {
		if !cand.Connects(srcPE, dstPE) {
			continue
		}
		ct := energy.CommTime(e.Bytes, cand)
		st := math.Max(srcSlot.Finish, clFree[cand.ID])
		if f := st + ct; f < bestFinish {
			bestCL, bestStart, bestFinish, bestTime = cand.ID, st, f, ct
		}
	}
	if bestCL == model.NoCL {
		slot.Routed = false
		slot.Start = srcSlot.Finish
		slot.Time = refUnroutablePenalty(mode.Period)
		slot.Finish = slot.Start + slot.Time
		sc.Comms[e.ID] = slot
		sc.Unroutable++
		if slot.Finish > sc.Makespan {
			sc.Makespan = slot.Finish
		}
		return slot.Finish
	}
	cl := s.Arch.CL(bestCL)
	clFree[bestCL] = bestFinish
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

// refEvaluation is one reference evaluation with its intermediate results.
type refEvaluation struct {
	mob   []*sched.Mobility
	alloc *refAllocation
	ev    *Evaluation
}

// refEvaluate is the old Evaluate over the reference pieces. DVS and the
// penalties are unchanged code and are shared with the live
// evaluator; the reference allocation is converted for the penalties.
func refEvaluate(e *Evaluator, mapping model.Mapping) (*refEvaluation, error) {
	s := e.Sys
	nModes := len(s.App.Modes)
	mob := make([]*sched.Mobility, nModes)
	for m := 0; m < nModes; m++ {
		mm, err := refComputeMobility(s, model.ModeID(m), mapping)
		if err != nil {
			return nil, fmt.Errorf("synth: mode %d: %w", m, err)
		}
		mob[m] = mm
	}
	ralloc := refAllocateCoresWith(s, mapping, mob, e.NoReplicaCores)
	ev := &Evaluation{
		Mapping:    mapping,
		Alloc:      ralloc.toAllocation(s),
		Schedules:  make([]*sched.Schedule, nModes),
		ModePowers: make([]energy.ModePower, nModes),
		Lateness:   make([]float64, nModes),
		TransTimes: make([]float64, len(s.App.Transitions)),
	}
	activePE := make([]bool, len(s.Arch.PEs))
	for m := 0; m < nModes; m++ {
		mode := s.App.Mode(model.ModeID(m))
		sc, err := refListSchedule(s, model.ModeID(m), mapping, ralloc, mob[m])
		if err != nil {
			return nil, fmt.Errorf("synth: mode %q: %w", mode.Name, err)
		}
		if e.UseDVS {
			dvs.ScaleWith(s, sc, dvs.Config{SoftwareOnly: e.DVSSoftwareOnly})
		}
		ev.Schedules[m] = sc
		ev.Lateness[m] = sc.Lateness(s)
		ev.Unroutable += sc.Unroutable
		for pe := range activePE {
			activePE[pe] = mapping.UsesPE(model.ModeID(m), model.PEID(pe))
		}
		ev.ModePowers[m] = energy.ModePower{
			DynamicEnergy: sc.DynamicEnergy(),
			Period:        mode.Period,
			StaticPower:   energy.StaticPower(s.Arch, activePE, sc.UsedCLs(s.Arch)),
		}
	}
	for m := 0; m < nModes; m++ {
		ev.AvgPower += ev.ModePowers[m].Total() * e.prob(model.ModeID(m))
	}
	e.penalties(ev)
	ev.Fitness = ev.AvgPower * ev.TimingPenalty * ev.AreaPenalty * ev.TransPenalty
	if !ev.Feasible() {
		ev.Fitness += PowerUpperBound(s)
	}
	return &refEvaluation{mob: mob, alloc: ralloc, ev: ev}, nil
}
