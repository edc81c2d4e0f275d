// Package synth implements the paper's primary contribution: the outer
// genetic optimisation loop of the multi-mode co-synthesis. It encodes
// multi-mode task mappings as genomes, allocates hardware cores (with
// replica cores for parallel low-mobility tasks), evaluates implementation
// candidates (scheduling, optional DVS, probability-weighted average power,
// area / timing / transition penalties) and applies the four
// problem-specific improvement mutations of paper section 4.1.
package synth

import (
	"cmp"
	"slices"

	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Allocation is the hardware core allocation of one implementation
// candidate: how many core instances of each task type exist on each
// hardware PE while each mode is active. ASIC allocations are static (the
// same cores exist in every mode); FPGA allocations are per-mode working
// sets exchanged by reconfiguration during mode transitions.
type Allocation struct {
	// inst[(mode*nPEs+pe)*nTypes+tt] is the instance count of type tt on
	// PE pe during the mode; zero where no core exists.
	inst         []int
	nPEs, nTypes int
	// UsedArea[mode][pe] is the silicon area occupied during the mode.
	UsedArea [][]int
	// Violation[pe] is the worst-case area excess in cells over all modes
	// (zero when the PE's area constraint holds).
	Violation []int
	// usedBuf backs the rows of UsedArea.
	usedBuf []int
}

var _ sched.CoreProvider = (*Allocation)(nil)

// row returns the instance counts of every task type on the PE during the
// mode, indexed by TaskTypeID.
//
//mm:noalloc
func (a *Allocation) row(mode model.ModeID, pe model.PEID) []int {
	off := (int(mode)*a.nPEs + int(pe)) * a.nTypes
	return a.inst[off : off+a.nTypes]
}

// Instances implements sched.CoreProvider.
//
//mm:noalloc
func (a *Allocation) Instances(mode model.ModeID, pe model.PEID, tt model.TaskTypeID) int {
	if pe < 0 || int(pe) >= a.nPEs || tt < 0 || int(tt) >= a.nTypes {
		return 0
	}
	return a.row(mode, pe)[tt]
}

// SetInstances overrides the instance count of one (mode, pe, type) core
// pool. It exists as a seam for fault injection (internal/verify/faultinj)
// and deliberately bypasses the allocator's area bookkeeping — the
// certifier must notice the resulting overflow on its own.
func (a *Allocation) SetInstances(mode model.ModeID, pe model.PEID, tt model.TaskTypeID, n int) {
	a.row(mode, pe)[tt] = n
}

// AreaFeasible reports whether no PE exceeds its area budget in any mode.
func (a *Allocation) AreaFeasible() bool {
	for _, v := range a.Violation {
		if v > 0 {
			return false
		}
	}
	return true
}

// reset shapes the allocation for the system with every count, area and
// violation zero, reusing its buffers when they are large enough.
func (a *Allocation) reset(s *model.System) {
	nModes := len(s.App.Modes)
	a.nPEs, a.nTypes = len(s.Arch.PEs), len(s.Lib.Types)
	a.inst = grow(a.inst, nModes*a.nPEs*a.nTypes)
	clear(a.inst)
	a.usedBuf = grow(a.usedBuf, nModes*a.nPEs)
	clear(a.usedBuf)
	a.Violation = grow(a.Violation, a.nPEs)
	clear(a.Violation)
	a.UsedArea = grow(a.UsedArea, nModes)
	a.linkUsedArea()
}

// clone returns a deep copy of the allocation that shares no buffer with
// the receiver.
func (a *Allocation) clone() *Allocation {
	c := &Allocation{
		inst:      slices.Clone(a.inst),
		nPEs:      a.nPEs,
		nTypes:    a.nTypes,
		UsedArea:  make([][]int, len(a.UsedArea)),
		Violation: slices.Clone(a.Violation),
		usedBuf:   slices.Clone(a.usedBuf),
	}
	c.linkUsedArea()
	return c
}

// linkUsedArea points the rows of UsedArea into usedBuf.
func (a *Allocation) linkUsedArea() {
	for m := range a.UsedArea {
		a.UsedArea[m] = a.usedBuf[m*a.nPEs : (m+1)*a.nPEs : (m+1)*a.nPEs]
	}
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

// typeDemand describes the replica-core demand of one task type on one PE.
type typeDemand struct {
	tt     model.TaskTypeID
	area   int
	demand int // max number of potentially parallel tasks (>= 1)
}

// compareDemand orders replica insertion: higher demand first, then
// smaller core area, then type ID. The order is total, so any sort gives
// the same sequence.
func compareDemand(a, b typeDemand) int {
	if a.demand != b.demand {
		return cmp.Compare(b.demand, a.demand)
	}
	if a.area != b.area {
		return cmp.Compare(a.area, b.area)
	}
	return cmp.Compare(a.tt, b.tt)
}

// allocator is the reusable working state of core allocation. Per-type
// slices are indexed by TaskTypeID; a zero demand means the type is not
// mapped to the PE.
type allocator struct {
	// need[(mode*nPEs+pe)*nTypes+tt] is the replica demand of the (pe, tt)
	// core pool in the mode: max(MaxOverlap, 1) over the type's tasks on
	// the PE, 0 where none is mapped there or the PE runs software. It is
	// filled one mode at a time, by demands from the mode's mobility or by
	// the evaluator's row memo, and read by allocate.
	need         []int
	nPEs, nTypes int
	demand       []int // the demand being filled (ASIC: over all modes)
	counts       []int // allocated instances
	// byType groups one mode's tasks on one PE by type: the tasks of type
	// tt are tasks[start[tt]:start[tt+1]].
	start []int
	tasks []model.TaskID
	tds   []typeDemand
}

// AllocateCoresWith implements paper Fig. 4 line 5 ("ImplementHWcores"):
// every task type mapped to a hardware PE gets one mandatory core; replica
// cores are added for task types whose tasks have overlapping mobility
// windows (likely parallel execution), as long as the area budget permits.
// ASICs allocate the per-type maximum demand over all modes statically;
// FPGAs allocate per-mode working sets. noReplicas limits every hardware
// type to its single mandatory core (the ablation baseline without the
// parallelism cores).
//
// mob holds the per-mode mobility analyses (indexed by ModeID).
func AllocateCoresWith(s *model.System, mapping model.Mapping, mob []*sched.Mobility, noReplicas bool) *Allocation {
	var al allocator
	a := &Allocation{}
	al.size(s)
	for m := range s.App.Modes {
		al.demands(s, model.ModeID(m), mapping[m], mob[m])
	}
	al.allocate(s, noReplicas, a)
	return a
}

// size shapes the allocator's buffers for the system; the demand rows are
// stale until every mode is filled.
func (al *allocator) size(s *model.System) {
	al.nPEs, al.nTypes = len(s.Arch.PEs), len(s.Lib.Types)
	al.need = grow(al.need, len(s.App.Modes)*al.nPEs*al.nTypes)
	al.demand = grow(al.demand, al.nTypes)
	al.counts = grow(al.counts, al.nTypes)
	al.start = grow(al.start, al.nTypes+1)
	al.tds = grow(al.tds, al.nTypes)[:0]
	maxTasks := 0
	for _, mode := range s.App.Modes {
		maxTasks = max(maxTasks, len(mode.Graph.Tasks))
	}
	al.tasks = grow(al.tasks, maxTasks)
}

// modeNeed returns the demand rows of the mode, indexed pe*nTypes+tt.
func (al *allocator) modeNeed(mode model.ModeID) []int {
	n := al.nPEs * al.nTypes
	return al.need[int(mode)*n : (int(mode)+1)*n]
}

// demands fills the mode's demand rows from its mobility under the
// mapping row.
//
//mm:noalloc
func (al *allocator) demands(s *model.System, mode model.ModeID, row []model.PEID, mob *sched.Mobility) {
	for _, pe := range s.Arch.PEs {
		out := al.peNeed(mode, pe.ID)
		if pe.Class.IsHardware() {
			al.demandsOn(s, mode, row, mob, pe.ID, out)
		} else {
			clear(out)
		}
	}
}

// allocate allocates the cores of every hardware PE into a from the
// demand rows of every mode, reusing a's and the allocator's buffers.
//
//mm:noalloc
func (al *allocator) allocate(s *model.System, noReplicas bool, a *Allocation) {
	a.reset(s)
	for _, pe := range s.Arch.PEs {
		switch pe.Class {
		case model.ASIC:
			al.allocateASIC(s, a, pe, noReplicas)
		case model.FPGA:
			al.allocateFPGA(s, a, pe, noReplicas)
		case model.GPP, model.ASIP:
			// Software PEs execute tasks without cores.
		}
	}
}

// demandsOn computes into out the replica demand per task type mapped to
// the PE in one mode: the maximum number of same-type tasks whose
// execution windows overlap, at least 1, and 0 for types not on the PE.
func (al *allocator) demandsOn(s *model.System, mode model.ModeID, row []model.PEID, mob *sched.Mobility, pe model.PEID, out []int) {
	g := s.App.Mode(mode).Graph
	// Counting sort of the PE's tasks by type, in task order.
	clear(al.start)
	for ti, task := range g.Tasks {
		if row[ti] == pe {
			al.start[task.Type+1]++
		}
	}
	for tt := 1; tt < len(al.start); tt++ {
		al.start[tt] += al.start[tt-1]
	}
	for ti, task := range g.Tasks {
		if row[ti] == pe {
			// start[tt] doubles as the fill cursor and ends at start[tt+1].
			al.tasks[al.start[task.Type]] = model.TaskID(ti)
			al.start[task.Type]++
		}
	}
	lo := 0
	for tt := range out {
		hi := al.start[tt]
		out[tt] = 0
		if hi > lo {
			out[tt] = max(mob.MaxOverlap(al.tasks[lo:hi]), 1)
		}
		lo = hi
	}
}

// peNeed returns the demand row of the PE in the mode.
func (al *allocator) peNeed(mode model.ModeID, pe model.PEID) []int {
	return al.modeNeed(mode)[int(pe)*al.nTypes : (int(pe)+1)*al.nTypes]
}

func (al *allocator) allocateASIC(s *model.System, a *Allocation, pe *model.PE, noReplicas bool) {
	// Aggregate demand over all modes: cores on a non-reconfigurable ASIC
	// exist for the lifetime of the system.
	clear(al.demand)
	for m := range s.App.Modes {
		for tt, d := range al.peNeed(model.ModeID(m), pe.ID) {
			al.demand[tt] = max(al.demand[tt], d)
		}
	}
	if noReplicas {
		capDemand(al.demand)
	}
	used := al.fillArea(s, pe)
	if excess := usedMandatory(s, al.demand, pe) - pe.Area; excess > 0 {
		a.Violation[pe.ID] = excess
	}
	for m := range s.App.Modes {
		copy(a.row(model.ModeID(m), pe.ID), al.counts)
		a.UsedArea[m][pe.ID] = used
	}
}

func (al *allocator) allocateFPGA(s *model.System, a *Allocation, pe *model.PE, noReplicas bool) {
	for m := range s.App.Modes {
		copy(al.demand, al.peNeed(model.ModeID(m), pe.ID))
		if noReplicas {
			capDemand(al.demand)
		}
		used := al.fillArea(s, pe)
		if excess := usedMandatory(s, al.demand, pe) - pe.Area; excess > a.Violation[pe.ID] {
			a.Violation[pe.ID] = excess
		}
		copy(a.row(model.ModeID(m), pe.ID), al.counts)
		a.UsedArea[m][pe.ID] = used
	}
}

// capDemand limits every demanded type to the single mandatory core.
//
//mm:noalloc
func capDemand(demand []int) {
	for tt, d := range demand {
		if d > 0 {
			demand[tt] = 1
		}
	}
}

// usedMandatory returns the area of the mandatory (one-per-type) cores.
//
//mm:noalloc
func usedMandatory(s *model.System, demand []int, pe *model.PE) int {
	used := 0
	for tt, d := range demand {
		if d == 0 {
			continue
		}
		if im, ok := s.Lib.Type(model.TaskTypeID(tt)).ImplOn(pe.ID); ok {
			used += im.Area
		}
	}
	return used
}

// fillArea allocates into al.counts one mandatory core per type in
// al.demand, then adds replica cores by descending demand while the area
// budget permits, and returns the area used. Mandatory cores are allocated
// even when they already exceed the budget (the violation is penalised by
// the fitness); replicas never overflow.
func (al *allocator) fillArea(s *model.System, pe *model.PE) int {
	clear(al.counts)
	used := 0
	tds := al.tds[:0]
	for tt, d := range al.demand {
		if d == 0 {
			continue
		}
		im, ok := s.Lib.Type(model.TaskTypeID(tt)).ImplOn(pe.ID)
		if !ok {
			// Invalid mapping (no implementation); the evaluator charges a
			// surrogate execution time, no core is allocated.
			continue
		}
		al.counts[tt] = 1
		used += im.Area
		//mm:alloc-ok never grows: tds has capacity for every task type
		tds = append(tds, typeDemand{tt: model.TaskTypeID(tt), area: im.Area, demand: d})
	}
	slices.SortFunc(tds, compareDemand)
	// Round-robin replica insertion so high-demand types grow first but no
	// type starves while area remains.
	progress := true
	for progress {
		progress = false
		for _, td := range tds {
			if al.counts[td.tt] >= td.demand {
				continue
			}
			if used+td.area > pe.Area {
				continue
			}
			al.counts[td.tt]++
			used += td.area
			progress = true
		}
	}
	al.tds = tds
	return used
}

// TransitionTime returns the reconfiguration time of the given mode
// transition: the maximum over all FPGAs of (cores swapped in) times the
// per-core reconfiguration time. ASIC allocations are static and never
// contribute (paper section 2.2).
//
//mm:noalloc
func (a *Allocation) TransitionTime(s *model.System, tr model.Transition) float64 {
	worst := 0.0
	for _, pe := range s.Arch.PEs {
		if pe.Class != model.FPGA || pe.ReconfigTime <= 0 {
			continue
		}
		from := a.row(tr.From, pe.ID)
		swapIn := 0
		for tt, cNew := range a.row(tr.To, pe.ID) {
			if cOld := from[tt]; cNew > cOld {
				swapIn += cNew - cOld
			}
		}
		if t := float64(swapIn) * pe.ReconfigTime; t > worst {
			worst = t
		}
	}
	return worst
}
