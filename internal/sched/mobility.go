// Package sched implements the inner optimisation loop of the multi-mode
// co-synthesis: per-mode ASAP/ALAP mobility analysis, mobility-driven list
// scheduling of tasks onto software processors and hardware core instances,
// and greedy communication mapping onto communication links.
package sched

import (
	"math"

	"momosyn/internal/energy"
	"momosyn/internal/model"
)

// Mobility holds the ASAP/ALAP analysis of one mode under a fixed task
// mapping. Times ignore resource contention (infinite-resource bounds) but
// include inter-PE communication delays, so they are valid lower/upper
// bounds for the list scheduler's priorities.
type Mobility struct {
	ASAP []float64 // earliest start per task
	ALAP []float64 // latest start per task (w.r.t. the mode period)
	Exec []float64 // nominal execution time per task under the mapping
}

// Slack returns ALAP-ASAP of the task; small values identify urgent tasks.
//
//mm:noalloc
func (m *Mobility) Slack(t model.TaskID) float64 { return m.ALAP[t] - m.ASAP[t] }

// commBound returns the infinite-resource communication delay of an edge:
// zero when both endpoints share a PE, otherwise the fastest connecting
// link's transfer time. Unroutable edges get a large finite delay so the
// analysis stays total; the scheduler reports them as infeasible. The link
// scan is inlined rather than calling Arch.LinksBetween so the per-edge
// analysis never allocates an ID slice.
//
//mm:noalloc
func commBound(s *model.System, e *model.Edge, srcPE, dstPE model.PEID, period float64) float64 {
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
		return unroutablePenalty(period)
	}
	return best
}

// unroutablePenalty is the surrogate delay charged for a communication
// between unconnected PEs; it is large relative to the mode period so such
// mappings score badly but remain comparable.
//
//mm:noalloc
func unroutablePenalty(period float64) float64 { return 10 * period }

// execTime returns the nominal execution time of the task on its mapped PE.
//
//mm:noalloc
func execTime(s *model.System, mode *model.Mode, t model.TaskID, pe model.PEID) float64 {
	task := mode.Graph.Task(t)
	im, ok := s.Lib.Type(task.Type).ImplOn(pe)
	if !ok {
		// Invalid mappings are repaired by the synthesis layer; charge a
		// large surrogate so evaluation stays total if one slips through.
		return unroutablePenalty(mode.Period)
	}
	return im.Time
}

// ComputeMobility runs ASAP and ALAP passes for the mode under the mapping.
// The ALAP pass anchors sink tasks at their effective deadlines
// min(deadline, period).
func ComputeMobility(s *model.System, modeID model.ModeID, mapping model.Mapping) (*Mobility, error) {
	mob := &Mobility{}
	if err := mob.Compute(s, modeID, mapping); err != nil {
		return nil, err
	}
	return mob, nil
}

// Compute is ComputeMobility into m: it reuses m's slices when they are
// large enough, so repeated analyses allocate nothing. The topological
// order comes from the task graph, which computes it once.
//
//mm:noalloc
func (m *Mobility) Compute(s *model.System, modeID model.ModeID, mapping model.Mapping) error {
	mode := s.App.Mode(modeID)
	order, err := mode.Graph.Order()
	if err != nil {
		return err
	}
	n := len(mode.Graph.Tasks)
	m.ASAP = grow(m.ASAP, n)
	m.ALAP = grow(m.ALAP, n)
	m.Exec = grow(m.Exec, n)
	m.fill(s, mode, modeID, mapping, order)
	return nil
}

// fill runs the ASAP and ALAP passes into the presized buffers of m,
// overwriting every entry.
//
//mm:noalloc
func (m *Mobility) fill(s *model.System, mode *model.Mode, modeID model.ModeID, mapping model.Mapping, order []model.TaskID) {
	g := mode.Graph
	for t := range g.Tasks {
		m.Exec[t] = execTime(s, mode, model.TaskID(t), mapping[modeID][t])
	}
	// ASAP forward pass.
	for _, t := range order {
		start := 0.0
		for _, eid := range g.In(t) {
			e := g.Edge(eid)
			c := commBound(s, e, mapping[modeID][e.Src], mapping[modeID][e.Dst], mode.Period)
			if v := m.ASAP[e.Src] + m.Exec[e.Src] + c; v > start {
				start = v
			}
		}
		m.ASAP[t] = start
	}
	// ALAP backward pass.
	for t := range g.Tasks {
		task := g.Task(model.TaskID(t))
		m.ALAP[t] = task.EffectiveDeadline(mode.Period) - m.Exec[t]
	}
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		latest := m.ALAP[t]
		for _, eid := range g.Out(t) {
			e := g.Edge(eid)
			c := commBound(s, e, mapping[modeID][e.Src], mapping[modeID][e.Dst], mode.Period)
			if v := m.ALAP[e.Dst] - c - m.Exec[t]; v < latest {
				latest = v
			}
		}
		m.ALAP[t] = latest
	}
}

// MaxOverlap returns, for the given tasks (with their ASAP/ALAP windows
// extended by execution time), the maximum number of pairwise-overlapping
// execution windows. It estimates how many tasks of one type may want to
// run in parallel — the demand used for replica core allocation
// (paper section 4.1, "ImplementHWcores").
//
// Touching windows do not overlap. The count peaks just after some window
// opens, so it is the maximum over window starts t of the windows with
// start <= t less those with end <= t. The same comparisons decide it as
// an event sweep with ends sorted before starts at equal times, without
// building and sorting the events; the task sets are small.
//
//mm:noalloc
func (m *Mobility) MaxOverlap(tasks []model.TaskID) int {
	if len(tasks) <= 1 {
		return len(tasks)
	}
	best := 0
	for _, u := range tasks {
		t := m.ASAP[u]
		open := 0
		for _, v := range tasks {
			start, end := m.window(v)
			if !(t < start) {
				open++
			}
			if !(t < end) {
				open--
			}
		}
		if open > best {
			best = open
		}
	}
	return best
}

// window returns the task's execution window: ASAP start to ALAP finish,
// or one execution time long when the ALAP finish is not later.
func (m *Mobility) window(t model.TaskID) (start, end float64) {
	start = m.ASAP[t]
	end = m.ALAP[t] + m.Exec[t]
	if end <= start {
		end = start + m.Exec[t]
	}
	return start, end
}
