package dvs

import (
	"math"
	"sort"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Reference voltage scaling: the constraint-graph build, Fig. 5
// transformation, topological sort, greedy selection and write-back as
// they were before the graph moved into Scaler scratch — maps, per-node
// edge appends, reflective sorts and a greedy loop that recomputes every
// candidate on every step. The one deliberate change is the segment-power
// sum, which adds the active slots in ascending slot order instead of map
// order. The differential tests run it against the live code and require
// bit-identical results, so it must stay as it is: a copy of the old
// behaviour, not a second implementation to improve.

type refNode struct {
	dur, nom float64
	power    float64
	pe       *model.PE
	level    int
	deadline float64
	scalable bool

	preds, succs []int32

	start, finish, lf float64

	task model.TaskID
	edge model.EdgeID
	seg  Segment
	kind nodeKind
}

type refGraph struct {
	nodes          []refNode
	order          []int32
	startOf, endOf []int32
}

// refScaleWith is ScaleWith on the reference pipeline.
func refScaleWith(s *model.System, sc *sched.Schedule, cfg Config) bool {
	if sc.Unroutable > 0 || sc.Lateness(s) > 1e-9 {
		return false
	}
	g := refBuildGraph(s, sc, cfg)
	if g == nil {
		return false
	}
	changed := refGreedyScale(g)
	refWriteBack(sc, g)
	return changed
}

func refTransform(slots []sched.TaskSlot) []Segment {
	type ev struct {
		t     float64
		delta int
		slot  int
	}
	var evs []ev
	for i := range slots {
		evs = append(evs, ev{slots[i].Start, +1, i}, ev{slots[i].Finish, -1, i})
	}
	sort.Slice(evs, func(i, j int) bool {
		switch {
		case evs[i].t < evs[j].t:
			return true
		case evs[j].t < evs[i].t:
			return false
		}
		return evs[i].delta < evs[j].delta
	})
	active := make(map[int]bool)
	var segs []Segment
	prev := math.Inf(-1)
	for _, e := range evs {
		if len(active) > 0 && e.t > prev {
			seg := Segment{Start: prev, End: e.t}
			order := make([]int, 0, len(active))
			for si := range active {
				order = append(order, si)
			}
			sort.Ints(order)
			for _, si := range order {
				seg.Power += slots[si].Power
				seg.Active = append(seg.Active, slots[si].Task)
			}
			sort.Slice(seg.Active, func(i, j int) bool { return seg.Active[i] < seg.Active[j] })
			segs = append(segs, seg)
		}
		if e.delta > 0 {
			active[e.slot] = true
		} else {
			delete(active, e.slot)
		}
		prev = e.t
	}
	return segs
}

func refBuildGraph(s *model.System, sc *sched.Schedule, cfg Config) *refGraph {
	mode := s.App.Mode(sc.Mode)
	tg := mode.Graph
	n := len(tg.Tasks)
	g := &refGraph{
		startOf: make([]int32, n),
		endOf:   make([]int32, n),
	}
	for i := range g.startOf {
		g.startOf[i] = -1
		g.endOf[i] = -1
	}

	anyScalable := false
	hwSlots := make(map[model.PEID][]sched.TaskSlot)
	for ti := range sc.Tasks {
		slot := sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if pe.Class.IsHardware() && pe.Scalable() && !cfg.SoftwareOnly {
			hwSlots[pe.ID] = append(hwSlots[pe.ID], slot)
			continue
		}
		scal := pe.Scalable() && pe.Class.IsSoftware()
		if scal {
			anyScalable = true
		}
		id := int32(len(g.nodes))
		g.nodes = append(g.nodes, refNode{
			kind:     nkTask,
			task:     slot.Task,
			dur:      slot.NomTime,
			nom:      slot.NomTime,
			power:    slot.Power,
			pe:       pe,
			level:    maxLevel(pe),
			deadline: tg.Task(slot.Task).EffectiveDeadline(mode.Period),
			scalable: scal,
		})
		g.startOf[slot.Task] = id
		g.endOf[slot.Task] = id
	}
	var hwPEs []model.PEID
	for pe := range hwSlots {
		hwPEs = append(hwPEs, pe)
	}
	sort.Slice(hwPEs, func(i, j int) bool { return hwPEs[i] < hwPEs[j] })
	for _, peID := range hwPEs {
		pe := s.Arch.PE(peID)
		slots := hwSlots[peID]
		segs := refTransform(slots)
		anyScalable = anyScalable || len(segs) > 0
		lastSeg := make(map[model.TaskID]int32)
		var prev int32 = -1
		for _, seg := range segs {
			id := int32(len(g.nodes))
			g.nodes = append(g.nodes, refNode{
				kind:     nkSeg,
				seg:      seg,
				dur:      seg.Duration(),
				nom:      seg.Duration(),
				power:    seg.Power,
				pe:       pe,
				level:    maxLevel(pe),
				deadline: math.Inf(1),
				scalable: true,
			})
			if prev >= 0 {
				refAddEdge(g, prev, id)
			}
			prev = id
			for _, t := range seg.Active {
				if g.startOf[t] < 0 {
					g.startOf[t] = id
				}
				lastSeg[t] = id
			}
		}
		for t, id := range lastSeg {
			g.endOf[t] = id
			d := tg.Task(t).EffectiveDeadline(mode.Period)
			if d < g.nodes[id].deadline {
				g.nodes[id].deadline = d
			}
		}
	}
	if !anyScalable {
		return nil
	}

	clChains := make(map[model.CLID][]int32)
	type commRef struct {
		node  int32
		start float64
	}
	clSlots := make(map[model.CLID][]commRef)
	for ei := range sc.Comms {
		cs := sc.Comms[ei]
		e := tg.Edge(model.EdgeID(ei))
		src, dst := g.endOf[e.Src], g.startOf[e.Dst]
		if cs.Routed && cs.CL != model.NoCL && cs.Time > 0 {
			id := int32(len(g.nodes))
			g.nodes = append(g.nodes, refNode{
				kind:     nkComm,
				edge:     model.EdgeID(ei),
				dur:      cs.Time,
				nom:      cs.Time,
				power:    cs.Power,
				deadline: math.Inf(1),
			})
			refAddEdge(g, src, id)
			refAddEdge(g, id, dst)
			clSlots[cs.CL] = append(clSlots[cs.CL], commRef{id, cs.Start})
		} else {
			refAddEdge(g, src, dst)
		}
	}
	for cl, refs := range clSlots {
		sort.Slice(refs, func(i, j int) bool {
			switch {
			case refs[i].start < refs[j].start:
				return true
			case refs[j].start < refs[i].start:
				return false
			}
			return refs[i].node < refs[j].node
		})
		for _, r := range refs {
			clChains[cl] = append(clChains[cl], r.node)
		}
		chain := clChains[cl]
		for i := 1; i < len(chain); i++ {
			refAddEdge(g, chain[i-1], chain[i])
		}
	}

	type resKey struct {
		pe   model.PEID
		tt   model.TaskTypeID
		core int
	}
	chains := make(map[resKey][]int32)
	var keys []resKey
	for ti := range sc.Tasks {
		slot := sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if pe.Class.IsHardware() && pe.Scalable() && !cfg.SoftwareOnly {
			continue
		}
		var k resKey
		if pe.Class.IsHardware() {
			k = resKey{slot.PE, tg.Task(slot.Task).Type, slot.Core}
		} else {
			k = resKey{slot.PE, -1, -1}
		}
		if _, ok := chains[k]; !ok {
			keys = append(keys, k)
		}
		chains[k] = append(chains[k], g.startOf[slot.Task])
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pe != b.pe {
			return a.pe < b.pe
		}
		if a.tt != b.tt {
			return a.tt < b.tt
		}
		return a.core < b.core
	})
	for _, k := range keys {
		chain := chains[k]
		sort.Slice(chain, func(i, j int) bool {
			a, b := chain[i], chain[j]
			sa := sc.Tasks[g.nodes[a].task].Start
			sb := sc.Tasks[g.nodes[b].task].Start
			switch {
			case sa < sb:
				return true
			case sb < sa:
				return false
			}
			return a < b
		})
		for i := 1; i < len(chain); i++ {
			refAddEdge(g, chain[i-1], chain[i])
		}
	}

	if !refTopoSort(g) {
		return nil
	}
	return g
}

func refAddEdge(g *refGraph, from, to int32) {
	if from < 0 || to < 0 || from == to {
		return
	}
	g.nodes[from].succs = append(g.nodes[from].succs, to)
	g.nodes[to].preds = append(g.nodes[to].preds, from)
}

func refTopoSort(g *refGraph) bool {
	n := len(g.nodes)
	indeg := make([]int, n)
	for i := range g.nodes {
		for range g.nodes[i].preds {
			indeg[i]++
		}
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	g.order = g.order[:0]
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.order = append(g.order, v)
		for _, w := range g.nodes[v].succs {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return len(g.order) == n
}

func refTimestamp(g *refGraph) {
	for _, v := range g.order {
		nd := &g.nodes[v]
		st := 0.0
		for _, p := range nd.preds {
			if f := g.nodes[p].finish; f > st {
				st = f
			}
		}
		nd.start = st
		nd.finish = st + nd.dur
	}
	for i := len(g.order) - 1; i >= 0; i-- {
		v := g.order[i]
		nd := &g.nodes[v]
		lf := nd.deadline
		for _, s := range nd.succs {
			sn := &g.nodes[s]
			if v2 := sn.lf - sn.dur; v2 < lf {
				lf = v2
			}
		}
		nd.lf = lf
	}
}

func refGreedyScale(g *refGraph) bool {
	changed := false
	for {
		refTimestamp(g)
		best := -1
		bestRatio := 0.0
		var bestDur float64
		for i := range g.nodes {
			nd := &g.nodes[i]
			if !nd.scalable || nd.level <= 0 || nd.nom <= 0 {
				continue
			}
			pe := nd.pe
			vCur := pe.Levels[nd.level]
			vNext := pe.Levels[nd.level-1]
			newDur := energy.ScaledTime(nd.nom, vNext, pe.Vmax, pe.Vt)
			dt := newDur - nd.dur
			if dt <= 0 {
				continue
			}
			slack := nd.lf - nd.finish
			if dt > slack+1e-12 {
				continue
			}
			gain := energy.EnergySaving(nd.power, nd.nom, vCur, vNext, pe.Vmax)
			if gain <= 0 {
				continue
			}
			if r := gain / dt; r > bestRatio {
				bestRatio = r
				best = i
				bestDur = newDur
			}
		}
		if best < 0 {
			return changed
		}
		g.nodes[best].level--
		g.nodes[best].dur = bestDur
		changed = true
	}
}

func refWriteBack(sc *sched.Schedule, g *refGraph) {
	refTimestamp(g)
	type acc struct {
		start, finish float64
		energyJ       float64
		minLevel      int
		seen          bool
	}
	accs := make(map[model.TaskID]*acc)
	makespan := 0.0
	for i := range g.nodes {
		nd := &g.nodes[i]
		if nd.finish > makespan {
			makespan = nd.finish
		}
		switch nd.kind {
		case nkTask:
			slot := &sc.Tasks[nd.task]
			slot.Start = nd.start
			slot.Finish = nd.finish
			if nd.pe.DVS {
				slot.VoltIdx = nd.level
				slot.Energy = energy.TaskEnergy(nd.power, nd.nom, nd.pe.Levels[nd.level], nd.pe.Vmax)
			} else {
				slot.Energy = nd.power * nd.nom
			}
		case nkComm:
			slot := &sc.Comms[nd.edge]
			slot.Start = nd.start
			slot.Finish = nd.finish
		case nkSeg:
			v := nd.pe.Levels[nd.level]
			r := v / nd.pe.Vmax
			for _, t := range nd.seg.Active {
				a := accs[t]
				if a == nil {
					a = &acc{start: nd.start, minLevel: nd.level}
					accs[t] = a
				}
				if !a.seen {
					a.start = nd.start
					a.seen = true
				} else if nd.start < a.start {
					a.start = nd.start
				}
				if nd.finish > a.finish {
					a.finish = nd.finish
				}
				if nd.level < a.minLevel {
					a.minLevel = nd.level
				}
				a.energyJ += sc.Tasks[t].Power * nd.nom * r * r
			}
		}
	}
	for t, a := range accs {
		slot := &sc.Tasks[t]
		slot.Start = a.start
		slot.Finish = a.finish
		slot.VoltIdx = a.minLevel
		slot.Energy = a.energyJ
	}
	sc.Makespan = makespan
}
