// Package dvs implements dynamic voltage scaling for multi-mode schedules:
// a greedy steepest-descent slack-distribution heuristic over a constraint
// graph of scheduled activities, in the spirit of the PV-DVS technique of
// Schmitz/Al-Hashimi (ISSS'01) that the DATE 2003 paper extends.
//
// The package also implements the paper's section 4.2 transformation
// (Fig. 5): on a DVS-enabled hardware component all cores share one supply
// voltage, so the potentially parallel core executions are folded into an
// equivalent chain of sequential virtual tasks (segments); voltages are
// then selected per segment exactly as for software tasks.
//
// A Scaler owns the working memory of scaling — the constraint graph, its
// edge lists, the Fig. 5 event sweep and the write-back accumulators — and
// reuses it across calls, so loops that scale repeatedly (the synthesis
// evaluator) allocate nothing once it is sized. Scale, ScaleWith and
// Transform run the same code on a fresh Scaler per call.
//
// The greedy loop keeps its candidates in a max-heap on (energy saving
// per added delay, lowest node index) and re-times the graph only when it
// must. Slack never grows, so a candidate that does not fit is dropped for
// good; and a move of dt lowers any node's slack by at most dt, so a step
// that fits in the slack of the last timing pass minus the delay accepted
// since is taken without a pass. Where the graph's horizon makes float
// rounding in that bound reach the exact test's 1e-12 tolerance, a pass
// precedes every move instead (see greedyScale and boundSound). The moves
// are the same as with a pass per move; Scaler.Stats counts both.
package dvs

import (
	"math"
	"slices"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Segment is one virtual task of the hardware-core DVS transformation: a
// maximal time interval during which the set of executing cores of one
// hardware PE is constant and non-empty.
type Segment struct {
	Start, End float64
	// Power is the summed nominal dynamic power of the active cores, added
	// in ascending slot order.
	Power float64
	// Active lists the tasks executing during the segment, ascending.
	Active []model.TaskID
}

// Duration returns the nominal length of the segment.
//
//mm:noalloc
func (s Segment) Duration() float64 { return s.End - s.Start }

// Transform folds the (possibly parallel) executions of the given task
// slots — all on one hardware PE — into the sequential virtual-task chain
// of paper Fig. 5. Slots must have strictly positive durations; empty gaps
// between executions produce no segment. The Active lists of the returned
// segments share one backing array.
func Transform(slots []sched.TaskSlot) []Segment {
	var x Scaler
	x.transform(slots)
	segs := make([]Segment, len(x.segs))
	for i, sp := range x.segs {
		segs[i] = Segment{Start: sp.start, End: sp.end, Power: sp.power, Active: x.segTasks[sp.lo:sp.hi]}
	}
	return segs
}

// node is one activity of the scaling constraint graph.
type node struct {
	// dur is the current (possibly stretched) duration; nom the duration at
	// nominal voltage.
	dur, nom float64
	power    float64
	pe       *model.PE // nil for communications
	level    int       // current voltage level index (into pe.Levels)
	deadline float64   // +Inf when unconstrained
	scalable bool

	// preds and succs are windows into the Scaler's edge buffers.
	preds, succs []int32

	start, finish, lf float64

	// The next voltage step, cached by greedyScale: it changes only when
	// this node's level does. canStep is false when no step would save
	// energy (stepRatio > 0).
	canStep                    bool
	stepDur, stepDt, stepRatio float64

	// Bookkeeping to write results back to the schedule.
	task   model.TaskID // valid when kind == nkTask
	edge   model.EdgeID // valid when kind == nkComm
	lo, hi int32        // active tasks segTasks[lo:hi], valid when kind == nkSeg
	kind   nodeKind
}

type nodeKind uint8

const (
	nkTask nodeKind = iota
	nkComm
	nkSeg
)

// graph is the scaling constraint graph of one mode.
type graph struct {
	nodes []node
	order []int32 // topological order
	// startOf/endOf map a task to the node carrying its start/finish
	// (identical for plain tasks, first/last segment for DVS hardware).
	startOf, endOf []int32
	// heap holds greedyScale's candidates, best first.
	heap []int32
	// moves and passes count greedyScale's accepted voltage steps and
	// timing passes over the graph's lifetime.
	moves, passes uint64
}

// addNode appends a zeroed node of the kind and returns its index and the
// node, which the caller fills in place: appending a filled composite
// literal would build it aside and copy it into the slot.
func (g *graph) addNode(kind nodeKind) (int32, *node) {
	id := int32(len(g.nodes))
	if id == int32(cap(g.nodes)) {
		//mm:alloc-ok grows only past the largest graph seen; steady state reuses the buffer
		g.nodes = slices.Grow(g.nodes, 1)
	}
	g.nodes = g.nodes[:id+1]
	nd := &g.nodes[id]
	*nd = node{kind: kind}
	return id, nd
}

// edge is one precedence or resource-order constraint, from before to.
type edge struct{ from, to int32 }

// span is a segment under construction; its active tasks are
// segTasks[lo:hi].
type span struct {
	start, end, power float64
	lo, hi            int32
}

// event is a slot boundary of the Fig. 5 sweep: delta +1 starts the slot,
// -1 ends it.
type event struct {
	t     float64
	delta int8
	slot  int32
}

// acc accumulates the write-back of one segmented hardware task.
type acc struct {
	start, finish float64
	energyJ       float64
	minLevel      int
	seen          bool
}

// Scaler selects supply voltages into working memory it owns: the
// constraint graph and every buffer its construction and write-back use
// are sized on the first call and reused by later ones. A Scaler is not
// safe for concurrent use; the zero value is ready.
type Scaler struct {
	g                graph
	edges            []edge
	npred, nsucc     []int32 // per-node edge counts; npred doubles as Kahn's in-degree
	predBuf, succBuf []int32
	hwSlots          []sched.TaskSlot // the DVS hardware PE being transformed
	evs              []event
	active           []bool
	segs             []span
	segTasks         []model.TaskID
	lastSeg          []int32 // per task: the segment node it finishes in
	commOf           []int32 // per edge: its communication node, or -1
	accs             []acc   // per task
}

// Stats counts the work of voltage selection.
type Stats struct {
	// Moves is the number of voltage steps greedy selection accepted.
	Moves uint64
	// Passes is the number of timing passes it ran to decide them. The
	// one final pass per call that writes the times back is not counted.
	Passes uint64
}

// Stats returns the work of every call on the scaler since it was made.
func (x *Scaler) Stats() Stats { return Stats{Moves: x.g.moves, Passes: x.g.passes} }

// grow returns buf resized to n, reallocating only when its capacity is
// short. The contents are stale; callers overwrite or clear them.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		//mm:alloc-ok grows only past the largest size seen; steady state reuses the buffer
		return make([]T, n)
	}
	return buf[:n]
}

// Config tunes voltage selection. The zero value is the paper's full
// technique.
type Config struct {
	// SoftwareOnly restricts scaling to software processors, disabling the
	// Fig. 5 hardware-core transformation. This reproduces the prior-work
	// DVS of [10]/[11] that the paper extends, and is used by the ablation
	// experiments.
	SoftwareOnly bool
}

// segmented reports whether the PE's tasks are scaled through the Fig. 5
// segment chain rather than as plain nodes.
func (cfg Config) segmented(pe *model.PE) bool {
	return pe.Class.IsHardware() && pe.Scalable() && !cfg.SoftwareOnly
}

// Scale selects supply voltages for all scalable activities of the
// schedule, minimising dynamic energy while preserving every deadline and
// the schedule's activity orders. The schedule must come from the list
// scheduler (sched.ListSchedule or Scheduler.Run): the activity orders are
// read from its slots' Prev links. The slots are updated in place (times,
// voltage indices, energies). It returns true when at least one activity
// was slowed down.
//
// Infeasible schedules (unroutable communications or deadline violations)
// are left untouched: there is no slack to distribute.
func Scale(s *model.System, sc *sched.Schedule) bool {
	return ScaleWith(s, sc, Config{})
}

// ScaleWith is Scale with explicit configuration. It allocates a fresh
// Scaler; loops that scale repeatedly keep one and call Run.
func ScaleWith(s *model.System, sc *sched.Schedule, cfg Config) bool {
	var x Scaler
	return x.Run(s, sc, cfg)
}

// Run is ScaleWith into the scaler's working memory: once the buffers
// have seen a graph of the size, it allocates nothing. Like Scale, it
// needs a schedule made by the list scheduler.
//
//mm:noalloc
func (x *Scaler) Run(s *model.System, sc *sched.Schedule, cfg Config) bool {
	if sc.Unroutable > 0 || sc.Lateness(s) > 1e-9 {
		return false
	}
	if !x.build(s, sc, cfg) {
		return false
	}
	changed := greedyScale(&x.g)
	x.writeBack(sc)
	return changed
}

// build assembles the constraint graph: task/segment/communication nodes,
// precedence edges via communications, and resource-order chains for
// software PEs, hardware core instances, DVS hardware segments and CLs,
// the last three following the schedule's Prev links.
// Returns false when the graph has no scalable node (or, on an internal
// inconsistency, a cycle).
//
//mm:noalloc
func (x *Scaler) build(s *model.System, sc *sched.Schedule, cfg Config) bool {
	mode := s.App.Mode(sc.Mode)
	tg := mode.Graph
	n := len(tg.Tasks)
	g := &x.g
	g.nodes = g.nodes[:0]
	g.startOf = grow(g.startOf, n)
	g.endOf = grow(g.endOf, n)
	for i := range g.startOf {
		g.startOf[i] = -1
		g.endOf[i] = -1
	}
	x.edges = x.edges[:0]
	x.segTasks = x.segTasks[:0]

	anyScalable := false
	// Plain nodes for every task not on a DVS hardware PE.
	for ti := range sc.Tasks {
		slot := &sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if cfg.segmented(pe) {
			continue
		}
		scal := pe.Scalable() && pe.Class.IsSoftware()
		anyScalable = anyScalable || scal
		id, nd := g.addNode(nkTask)
		nd.task = slot.Task
		nd.dur, nd.nom = slot.NomTime, slot.NomTime
		nd.power = slot.Power
		nd.pe = pe
		nd.level = maxLevel(pe)
		nd.deadline = tg.Task(slot.Task).EffectiveDeadline(mode.Period)
		nd.scalable = scal
		g.startOf[slot.Task] = id
		g.endOf[slot.Task] = id
	}
	// Segment nodes for DVS hardware PEs (Fig. 5 transformation), PE by PE.
	x.lastSeg = grow(x.lastSeg, n)
	for _, pe := range s.Arch.PEs {
		if cfg.segmented(pe) && x.segmentPE(s, sc, pe) {
			anyScalable = true
		}
	}
	if !anyScalable {
		return false
	}

	// Communication nodes and precedence edges.
	x.commOf = grow(x.commOf, len(sc.Comms))
	for ei := range sc.Comms {
		cs := &sc.Comms[ei]
		e := tg.Edge(model.EdgeID(ei))
		src, dst := g.endOf[e.Src], g.startOf[e.Dst]
		if cs.Routed && cs.CL != model.NoCL && cs.Time > 0 {
			id, nd := g.addNode(nkComm)
			nd.edge = model.EdgeID(ei)
			nd.dur, nd.nom = cs.Time, cs.Time
			nd.power = cs.Power
			nd.deadline = math.Inf(1)
			x.addEdge(src, id)
			x.addEdge(id, dst)
			x.commOf[ei] = id
		} else {
			x.addEdge(src, dst)
			x.commOf[ei] = -1
		}
	}
	// Link chains, passing over the transfers that got no node, and the
	// chains of software PEs and non-DVS core instances (DVS hardware is
	// ordered by its segment chain).
	for ei, id := range x.commOf {
		if id < 0 {
			continue
		}
		p := sc.Comms[ei].Prev
		for p >= 0 && x.commOf[p] < 0 {
			p = sc.Comms[p].Prev
		}
		if p >= 0 {
			x.addEdge(x.commOf[p], id)
		}
	}
	for ti := range sc.Tasks {
		slot := &sc.Tasks[ti]
		if slot.Prev >= 0 && !cfg.segmented(s.Arch.PE(slot.PE)) {
			x.addEdge(g.startOf[slot.Prev], g.startOf[ti])
		}
	}

	x.link()
	return x.topoSort()
}

// segmentPE appends the segment chain of one DVS hardware PE to the graph
// and attaches each task's deadline to the segment it finishes in. It
// reports whether the PE produced any segment.
//
//mm:noalloc
func (x *Scaler) segmentPE(s *model.System, sc *sched.Schedule, pe *model.PE) bool {
	mode := s.App.Mode(sc.Mode)
	g := &x.g
	x.hwSlots = x.hwSlots[:0]
	for ti := range sc.Tasks {
		if sc.Tasks[ti].PE == pe.ID {
			//mm:alloc-ok grows only past the largest PE seen; steady state reuses the buffer
			x.hwSlots = append(x.hwSlots, sc.Tasks[ti])
			x.lastSeg[sc.Tasks[ti].Task] = -1
		}
	}
	x.transform(x.hwSlots)
	var prev int32 = -1
	for _, sp := range x.segs {
		id, nd := g.addNode(nkSeg)
		nd.lo, nd.hi = sp.lo, sp.hi
		nd.dur, nd.nom = sp.end-sp.start, sp.end-sp.start
		nd.power = sp.power
		nd.pe = pe
		nd.level = maxLevel(pe)
		nd.deadline = math.Inf(1)
		nd.scalable = true
		x.addEdge(prev, id)
		prev = id
		for _, t := range x.segTasks[sp.lo:sp.hi] {
			if g.startOf[t] < 0 {
				g.startOf[t] = id
			}
			x.lastSeg[t] = id
		}
	}
	// Deadlines attach to the segment in which each task finishes.
	for i := range x.hwSlots {
		t := x.hwSlots[i].Task
		id := x.lastSeg[t]
		if id < 0 {
			continue
		}
		g.endOf[t] = id
		if d := mode.Graph.Task(t).EffectiveDeadline(mode.Period); d < g.nodes[id].deadline {
			g.nodes[id].deadline = d
		}
	}
	return len(x.segs) > 0
}

// transform is Transform into the scaler: it replaces segs with the
// segments of the slots and appends their active tasks to segTasks. The
// segment power adds the active slots in ascending slot order.
//
//mm:noalloc
func (x *Scaler) transform(slots []sched.TaskSlot) {
	x.evs = grow(x.evs, 2*len(slots))
	for i := range slots {
		x.evs[2*i] = event{slots[i].Start, +1, int32(i)}
		x.evs[2*i+1] = event{slots[i].Finish, -1, int32(i)}
	}
	slices.SortFunc(x.evs, cmpEvent)
	x.active = grow(x.active, len(slots))
	clear(x.active)
	nActive := 0
	x.segs = x.segs[:0]
	prev := math.Inf(-1)
	for _, e := range x.evs {
		if nActive > 0 && e.t > prev {
			sp := span{start: prev, end: e.t, lo: int32(len(x.segTasks))}
			for si := range slots {
				if x.active[si] {
					sp.power += slots[si].Power
					//mm:alloc-ok grows only past the largest total seen; steady state reuses the buffer
					x.segTasks = append(x.segTasks, slots[si].Task)
				}
			}
			sp.hi = int32(len(x.segTasks))
			slices.Sort(x.segTasks[sp.lo:sp.hi])
			//mm:alloc-ok grows only past the largest PE seen; steady state reuses the buffer
			x.segs = append(x.segs, sp)
		}
		if on := e.delta > 0; x.active[e.slot] != on {
			x.active[e.slot] = on
			if on {
				nActive++
			} else {
				nActive--
			}
		}
		prev = e.t
	}
}

// cmpEvent orders sweep events by time, ends before starts so that
// zero-length overlaps do not merge segments.
func cmpEvent(a, b event) int {
	switch {
	case a.t < b.t:
		return -1
	case b.t < a.t:
		return 1
	}
	return int(a.delta) - int(b.delta)
}

// maxLevel returns the top voltage-level index of the PE, or -1 when the
// PE does not support DVS.
//
//mm:noalloc
func maxLevel(pe *model.PE) int {
	if !pe.DVS {
		return -1
	}
	return len(pe.Levels) - 1
}

// addEdge records the constraint from before to; edges touching a
// missing node (-1) and self-loops are dropped.
func (x *Scaler) addEdge(from, to int32) {
	if from < 0 || to < 0 || from == to {
		return
	}
	//mm:alloc-ok grows only past the largest graph seen; steady state reuses the buffer
	x.edges = append(x.edges, edge{from, to})
}

// link lays the edges out as per-node windows of predBuf and succBuf, in
// insertion order.
func (x *Scaler) link() {
	g := &x.g
	nn := len(g.nodes)
	x.npred = grow(x.npred, nn)
	x.nsucc = grow(x.nsucc, nn)
	clear(x.npred)
	clear(x.nsucc)
	for _, e := range x.edges {
		x.nsucc[e.from]++
		x.npred[e.to]++
	}
	x.predBuf = grow(x.predBuf, len(x.edges))
	x.succBuf = grow(x.succBuf, len(x.edges))
	var po, so int32
	for i := range g.nodes {
		nd := &g.nodes[i]
		nd.preds = x.predBuf[po:po:(po + x.npred[i])]
		nd.succs = x.succBuf[so:so:(so + x.nsucc[i])]
		po += x.npred[i]
		so += x.nsucc[i]
	}
	for _, e := range x.edges {
		f, t := &g.nodes[e.from], &g.nodes[e.to]
		f.succs = f.succs[:len(f.succs)+1]
		f.succs[len(f.succs)-1] = e.to
		t.preds = t.preds[:len(t.preds)+1]
		t.preds[len(t.preds)-1] = e.from
	}
}

// topoSort fills g.order (Kahn, FIFO, the order buffer doubling as the
// queue) and consumes npred as the in-degrees. It returns false on a
// cycle, which indicates an internal inconsistency and disables scaling.
func (x *Scaler) topoSort() bool {
	g := &x.g
	nn := len(g.nodes)
	order := grow(g.order, nn)
	tail := 0
	for i := 0; i < nn; i++ {
		if x.npred[i] == 0 {
			order[tail] = int32(i)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		for _, w := range g.nodes[order[head]].succs {
			x.npred[w]--
			if x.npred[w] == 0 {
				order[tail] = w
				tail++
			}
		}
	}
	g.order = order[:tail]
	return tail == nn
}

// timestamp runs the forward (earliest start/finish) and backward (latest
// finish) passes over the current durations.
//
//mm:noalloc
func timestamp(g *graph) {
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

// greedyScale repeatedly applies the single voltage-step move with the
// best energy saving per added delay until no feasible move remains. Ties
// go to the lowest node index.
//
// The candidates wait in a max-heap on (stepRatio, lowest index), so its
// top is the move a full scan would choose whenever that move is
// feasible. Two facts spare most timing passes. Durations only grow and
// every operation of timestamp is monotone, so a node's slack never grows:
// a candidate found infeasible is dropped for good. And one move of dt
// lowers any node's slack by at most dt (a node cannot be both ancestor
// and descendant of the moved one), so the slack now is at least the slack
// of the last pass minus spent, the delay accepted since. A top candidate
// whose step fits within that bound is taken without a pass; otherwise a
// pass decides it with the exact test. boundSound says when rounding
// allows the bound; where it does not, every move is followed by a pass.
//
//mm:noalloc
func greedyScale(g *graph) bool {
	heap := grow(g.heap, len(g.nodes))
	n, steps := 0, 0
	for i := range g.nodes {
		nd := &g.nodes[i]
		nextStep(nd)
		if nd.canStep {
			heap[n] = int32(i)
			n++
			steps += nd.level
		}
	}
	g.heap = heap[:n]
	if n == 0 {
		return false
	}
	for i := n/2 - 1; i >= 0; i-- {
		g.siftDown(i)
	}
	timestamp(g)
	g.passes++
	bounded := boundSound(g, steps)
	// fresh is whether lf and finish are current: no move since the pass.
	fresh, spent := true, 0.0
	changed := false
	for len(g.heap) > 0 {
		nd := &g.nodes[g.heap[0]]
		if nd.stepDt > nd.lf-nd.finish+1e-12 {
			// Infeasible at the last pass, so now and for good.
			g.popTop()
			continue
		}
		if !fresh && !(bounded && nd.stepDt+spent <= nd.lf-nd.finish) {
			timestamp(g)
			g.passes++
			fresh, spent = true, 0
			continue
		}
		nd.level--
		nd.dur = nd.stepDur
		spent += nd.stepDt
		fresh = false
		g.moves++
		changed = true
		nextStep(nd)
		if nd.canStep {
			g.siftDown(0)
		} else {
			g.popTop()
		}
	}
	return changed
}

// boundSound reports whether the slack bound of greedyScale is exact in
// floating point for this graph. The bound test drops the exact test's
// 1e-12 tolerance, which must absorb the rounding of both. With u = 2^-53
// and the horizon H (the largest finish or finite deadline), every finish
// and finite latest finish a pass computes is off by at most n·u·H over a
// chain of at most n nodes, so a computed slack is off by at most
// (2n+1)·u·H; spent, a sum of at most steps delays, adds (steps+2)·u·H.
// The bound is therefore safe while (4n+steps+5)·u·H stays below the
// tolerance; half of it is required here. On the shipped specifications
// H is under 0.6 s and the error about 1e-14.
func boundSound(g *graph, steps int) bool {
	horizon := 0.0
	for i := range g.nodes {
		nd := &g.nodes[i]
		horizon = max(horizon, nd.finish)
		if !math.IsInf(nd.deadline, 1) {
			horizon = max(horizon, nd.deadline)
		}
	}
	return float64(4*len(g.nodes)+steps+5)*horizon*0x1p-53 < 0.5e-12
}

// before reports whether candidate a precedes b in the greedy order:
// larger saving per added delay first, then the lower node index.
func (g *graph) before(a, b int32) bool {
	ra, rb := g.nodes[a].stepRatio, g.nodes[b].stepRatio
	if ra > rb {
		return true
	}
	if rb > ra {
		return false
	}
	return a < b
}

// siftDown restores the heap order below position i.
func (g *graph) siftDown(i int) {
	h := g.heap
	for {
		top := i
		if l := 2*i + 1; l < len(h) && g.before(h[l], h[top]) {
			top = l
		}
		if r := 2*i + 2; r < len(h) && g.before(h[r], h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// popTop removes the top candidate from the heap.
func (g *graph) popTop() {
	last := len(g.heap) - 1
	g.heap[0] = g.heap[last]
	g.heap = g.heap[:last]
	g.siftDown(0)
}

// nextStep caches the node's next voltage step down: the stretched
// duration, the delay it adds and its energy saving per unit of delay.
func nextStep(nd *node) {
	nd.canStep = false
	if !nd.scalable || nd.level <= 0 || nd.nom <= 0 {
		return
	}
	pe := nd.pe
	vCur := pe.Levels[nd.level]
	vNext := pe.Levels[nd.level-1]
	newDur := energy.ScaledTime(nd.nom, vNext, pe.Vmax, pe.Vt)
	dt := newDur - nd.dur
	if dt <= 0 {
		return
	}
	gain := energy.EnergySaving(nd.power, nd.nom, vCur, vNext, pe.Vmax)
	if gain <= 0 {
		return
	}
	nd.stepDur, nd.stepDt, nd.stepRatio = newDur, dt, gain/dt
	nd.canStep = nd.stepRatio > 0
}

// writeBack transfers the scaled timing, voltages and energies from the
// constraint graph into the schedule slots.
//
//mm:noalloc
func (x *Scaler) writeBack(sc *sched.Schedule) {
	g := &x.g
	timestamp(g)
	// Per-task accumulation for segmented hardware tasks.
	x.accs = grow(x.accs, len(sc.Tasks))
	clear(x.accs)
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
			for _, t := range x.segTasks[nd.lo:nd.hi] {
				a := &x.accs[t]
				if !a.seen {
					*a = acc{start: nd.start, minLevel: nd.level, seen: true}
				} else if nd.start < a.start {
					a.start = nd.start
				}
				if nd.finish > a.finish {
					a.finish = nd.finish
				}
				if nd.level < a.minLevel {
					a.minLevel = nd.level
				}
				// Energy share of this task within the segment: its own
				// nominal power over the segment's nominal length, scaled
				// by the segment's voltage ratio squared.
				a.energyJ += sc.Tasks[t].Power * nd.nom * r * r
			}
		}
	}
	for t := range x.accs {
		if a := &x.accs[t]; a.seen {
			slot := &sc.Tasks[t]
			slot.Start = a.start
			slot.Finish = a.finish
			slot.VoltIdx = a.minLevel
			slot.Energy = a.energyJ
		}
	}
	sc.Makespan = makespan
}
