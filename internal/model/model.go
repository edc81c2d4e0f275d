// Package model defines the specification and architectural model for
// multi-mode embedded systems as used by the co-synthesis flow: the
// operational mode state machine (OMSM) combining a top-level finite state
// machine with per-mode task graphs, the distributed heterogeneous target
// architecture (processing elements and communication links), and the
// technology library mapping task types to implementation alternatives.
//
// The model follows Schmitz, Al-Hashimi, Eles: "A Co-Design Methodology for
// Energy-Efficient Multi-Mode Embedded Systems with Consideration of Mode
// Execution Probabilities", DATE 2003. All times are in seconds, powers in
// watts, energies in joules, and hardware areas in abstract cells.
package model

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Identifier types. All identifiers are dense indices into the owning
// container, so they double as slice indices.
type (
	// TaskTypeID indexes Library.Types.
	TaskTypeID int
	// TaskID indexes TaskGraph.Tasks within one mode.
	TaskID int
	// EdgeID indexes TaskGraph.Edges within one mode.
	EdgeID int
	// ModeID indexes OMSM.Modes.
	ModeID int
	// PEID indexes Arch.PEs.
	PEID int
	// CLID indexes Arch.CLs.
	CLID int
)

// NoPE is the sentinel for "not mapped to any processing element".
const NoPE PEID = -1

// NoCL is the sentinel for "no communication link" (intra-PE communication).
const NoCL CLID = -1

// PEClass enumerates the kinds of processing elements supported by the
// architectural model.
type PEClass int

const (
	// GPP is a general-purpose (software) processor.
	GPP PEClass = iota
	// ASIP is an application-specific instruction-set (software) processor.
	ASIP
	// ASIC is a non-reconfigurable hardware component; allocated cores are
	// static for the lifetime of the system.
	ASIC
	// FPGA is a reconfigurable hardware component; its core set may be
	// exchanged during a mode transition at a reconfiguration time cost.
	FPGA
)

// String returns the conventional abbreviation of the PE class.
func (c PEClass) String() string {
	switch c {
	case GPP:
		return "GPP"
	case ASIP:
		return "ASIP"
	case ASIC:
		return "ASIC"
	case FPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("PEClass(%d)", int(c))
	}
}

// IsHardware reports whether tasks mapped to a PE of this class execute on
// allocated cores (in parallel, resource permitting) rather than being
// sequentialised by a processor.
func (c PEClass) IsHardware() bool { return c == ASIC || c == FPGA }

// IsSoftware reports whether a PE of this class executes tasks sequentially
// under processor control.
func (c PEClass) IsSoftware() bool { return c == GPP || c == ASIP }

// PE describes one processing element of the target architecture.
type PE struct {
	ID    PEID
	Name  string
	Class PEClass

	// DVS indicates that the component supports dynamic voltage scaling.
	// Hardware PEs with DVS feed all of their cores from a single scalable
	// supply (paper section 4.2).
	DVS bool
	// Vmax is the nominal supply voltage (volts). Technology-library
	// execution times and powers are specified at Vmax.
	Vmax float64
	// Vt is the threshold voltage used by the alpha-power delay model.
	Vt float64
	// Levels is the ascending set of admissible discrete supply voltages.
	// It must contain Vmax as its maximum. Ignored unless DVS is set.
	Levels []float64

	// Area is the available silicon area in cells (hardware PEs only).
	Area int
	// StaticPower is dissipated whenever the component is powered in a mode.
	StaticPower float64
	// ReconfigTime is the time to (re)configure one core (FPGA only).
	ReconfigTime float64
}

// Scalable reports whether the PE both supports DVS and offers more than a
// single voltage level, i.e. whether voltage selection has any freedom.
func (p *PE) Scalable() bool { return p.DVS && len(p.Levels) > 1 }

// MinVoltage returns the lowest admissible supply voltage of the PE. For
// non-DVS PEs this is Vmax.
func (p *PE) MinVoltage() float64 {
	if !p.DVS || len(p.Levels) == 0 {
		return p.Vmax
	}
	return p.Levels[0]
}

// CL describes one communication link (e.g. a bus) of the architecture.
type CL struct {
	ID   CLID
	Name string

	// BytesPerSec is the raw transfer bandwidth.
	BytesPerSec float64
	// PowerActive is the dynamic power drawn while a message is in flight.
	PowerActive float64
	// StaticPower is dissipated whenever the link is powered in a mode.
	StaticPower float64
	// PEs lists the processing elements attached to this link.
	PEs []PEID
}

// Connects reports whether both PEs are attached to the link.
func (c *CL) Connects(a, b PEID) bool {
	var hasA, hasB bool
	for _, p := range c.PEs {
		if p == a {
			hasA = true
		}
		if p == b {
			hasB = true
		}
	}
	return hasA && hasB
}

// Arch is the allocated target architecture: a set of heterogeneous PEs
// connected by communication links.
type Arch struct {
	PEs []*PE
	CLs []*CL
}

// PE returns the processing element with the given ID, or nil when out of
// range.
func (a *Arch) PE(id PEID) *PE {
	if id < 0 || int(id) >= len(a.PEs) {
		return nil
	}
	return a.PEs[id]
}

// CL returns the communication link with the given ID, or nil when out of
// range.
func (a *Arch) CL(id CLID) *CL {
	if id < 0 || int(id) >= len(a.CLs) {
		return nil
	}
	return a.CLs[id]
}

// LinksBetween returns all CLs connecting the two PEs. The result is empty
// when src == dst (no link needed) or when the PEs are unconnected.
func (a *Arch) LinksBetween(src, dst PEID) []CLID {
	if src == dst {
		return nil
	}
	var out []CLID
	for _, cl := range a.CLs {
		if cl.Connects(src, dst) {
			out = append(out, cl.ID)
		}
	}
	return out
}

// Connected reports whether the two PEs share at least one link, or are the
// same PE.
func (a *Arch) Connected(src, dst PEID) bool {
	return src == dst || len(a.LinksBetween(src, dst)) > 0
}

// Impl is one implementation alternative of a task type on a particular PE.
type Impl struct {
	PE PEID
	// Time is the worst-case execution time at the PE's nominal voltage.
	Time float64
	// Power is the dynamic power dissipation at nominal voltage, so the
	// per-execution dynamic energy at Vmax is Power*Time.
	Power float64
	// Area is the silicon area of the core in cells (hardware PEs only).
	Area int
}

// Energy returns the nominal-voltage dynamic energy of one execution.
func (im Impl) Energy() float64 { return im.Power * im.Time }

// TaskType is an atomic unit of functionality (FFT, IDCT, Huffman decoder,
// ...). Tasks of the same type found in different modes may share a hardware
// core.
type TaskType struct {
	ID    TaskTypeID
	Name  string
	Impls []Impl
}

// ImplOn returns the implementation alternative of the type on the given PE
// and whether one exists.
func (t *TaskType) ImplOn(pe PEID) (Impl, bool) {
	for _, im := range t.Impls {
		if im.PE == pe {
			return im, true
		}
	}
	return Impl{}, false
}

// SupportedPEs returns the PEs on which the type has an implementation, in
// library order.
func (t *TaskType) SupportedPEs() []PEID {
	out := make([]PEID, 0, len(t.Impls))
	for _, im := range t.Impls {
		out = append(out, im.PE)
	}
	return out
}

// Library is the technology library: the set of all task types together
// with their implementation alternatives.
type Library struct {
	Types []*TaskType
}

// Type returns the task type with the given ID, or nil when out of range.
func (l *Library) Type(id TaskTypeID) *TaskType {
	if id < 0 || int(id) >= len(l.Types) {
		return nil
	}
	return l.Types[id]
}

// TypeByName returns the task type with the given name, or nil.
func (l *Library) TypeByName(name string) *TaskType {
	for _, t := range l.Types {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Task is one node of a mode's task graph.
type Task struct {
	ID   TaskID
	Name string
	Type TaskTypeID
	// Deadline is the latest allowed finish time relative to the task-graph
	// activation; zero means "no individual deadline" (only the mode period
	// applies).
	Deadline float64
}

// EffectiveDeadline returns min(deadline, period) per the paper's timing
// constraint tS+texe <= min(θτ, φ).
func (t *Task) EffectiveDeadline(period float64) float64 {
	if t.Deadline > 0 && t.Deadline < period {
		return t.Deadline
	}
	return period
}

// Edge is a directed data dependency between two tasks of the same mode.
type Edge struct {
	ID    EdgeID
	Src   TaskID
	Dst   TaskID
	Bytes float64
}

// TaskGraph is the functional specification of a single operational mode: a
// DAG of tasks with data-dependency edges.
type TaskGraph struct {
	Tasks []*Task
	Edges []*Edge

	succ [][]EdgeID
	pred [][]EdgeID
	// order is the topological order and cycleErr the cycle error, both
	// computed once by reindex: neither depends on a mapping, so the
	// evaluation loop reads them instead of sorting per candidate.
	order    []TaskID
	cycleErr error
}

// NewTaskGraph builds a task graph and its adjacency indexes. It does not
// validate acyclicity; use Validate.
func NewTaskGraph(tasks []*Task, edges []*Edge) *TaskGraph {
	g := &TaskGraph{Tasks: tasks, Edges: edges}
	g.reindex()
	return g
}

// reindex builds the adjacency lists, each in edge order, and the
// topological order. The lists are cut from one backing array sized by a
// first pass over the degrees; a task without edges in a direction keeps
// a nil list there.
func (g *TaskGraph) reindex() {
	n := len(g.Tasks)
	g.succ = make([][]EdgeID, n)
	g.pred = make([][]EdgeID, n)
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range g.Edges {
		deg[e.Src]++
		deg[n+int(e.Dst)]++
	}
	ids := make([]EdgeID, 2*len(g.Edges))
	for t := 0; t < n; t++ {
		if d := deg[t]; d > 0 {
			g.succ[t], ids = ids[:0:d], ids[d:]
		}
		if d := deg[n+t]; d > 0 {
			g.pred[t], ids = ids[:0:d], ids[d:]
		}
	}
	for _, e := range g.Edges {
		g.succ[e.Src] = append(g.succ[e.Src], e.ID)
		g.pred[e.Dst] = append(g.pred[e.Dst], e.ID)
	}
	g.order, g.cycleErr = g.topoSort()
}

// Task returns the task with the given ID, or nil when out of range.
func (g *TaskGraph) Task(id TaskID) *Task {
	if id < 0 || int(id) >= len(g.Tasks) {
		return nil
	}
	return g.Tasks[id]
}

// Edge returns the edge with the given ID, or nil when out of range.
func (g *TaskGraph) Edge(id EdgeID) *Edge {
	if id < 0 || int(id) >= len(g.Edges) {
		return nil
	}
	return g.Edges[id]
}

// Out returns the IDs of edges leaving the task.
func (g *TaskGraph) Out(t TaskID) []EdgeID { return g.succ[t] }

// In returns the IDs of edges entering the task.
func (g *TaskGraph) In(t TaskID) []EdgeID { return g.pred[t] }

// TopoOrder returns the task IDs in a topological order, or an error if the
// graph contains a cycle. The order is deterministic: among ready tasks the
// smallest ID goes first. The slice is the caller's own.
func (g *TaskGraph) TopoOrder() ([]TaskID, error) {
	if g.cycleErr != nil {
		return nil, g.cycleErr
	}
	return slices.Clone(g.order), nil
}

// Order is TopoOrder without the copy: the returned slice is shared by
// every caller and must not be modified.
func (g *TaskGraph) Order() ([]TaskID, error) { return g.order, g.cycleErr }

// topoSort is Kahn's algorithm with the ready set in a binary min-heap on
// task ID, so the smallest ready ID always goes first.
func (g *TaskGraph) topoSort() ([]TaskID, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	// Ascending IDs already satisfy the heap property.
	ready := make(idHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(ready) > 0 {
		var t TaskID
		t, ready = ready.pop()
		order = append(order, t)
		for _, eid := range g.succ[t] {
			d := g.Edges[eid].Dst
			indeg[d]--
			if indeg[d] == 0 {
				ready = ready.push(d)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: task graph contains a cycle (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// idHeap is a binary min-heap of task IDs.
type idHeap []TaskID

func (h idHeap) push(t TaskID) idHeap {
	h = append(h, t)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func (h idHeap) pop() (TaskID, idHeap) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// Mode is one operational mode: a task graph annotated with its execution
// probability and repetition period (hyper-period).
type Mode struct {
	ID    ModeID
	Name  string
	Graph *TaskGraph
	// Prob is the mode execution probability Ψ: the fraction of operational
	// time the system spends in this mode. Probabilities over all modes of
	// an OMSM sum to one.
	Prob float64
	// Period is the repetition period φ of the mode's task graph, which also
	// serves as the hyper-period for average-power computation.
	Period float64
}

// Transition is a directed edge of the top-level finite state machine.
type Transition struct {
	From ModeID
	To   ModeID
	// MaxTime is the maximal allowed transition (reconfiguration) time
	// tTmax; zero means unconstrained.
	MaxTime float64
}

// TransitionLess orders transitions by (From, To, MaxTime). It is the order
// specio.Canonical writes the transition set in and the order the evaluator
// sums transition penalties in, so the order a specification lists its
// transitions in reaches neither the result cache key nor the result.
func TransitionLess(a, b Transition) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.MaxTime < b.MaxTime
}

// OMSM is the operational mode state machine: the top-level cyclic FSM over
// operational modes plus per-mode task graphs.
type OMSM struct {
	Name        string
	Modes       []*Mode
	Transitions []Transition
}

// Mode returns the mode with the given ID, or nil when out of range.
func (o *OMSM) Mode(id ModeID) *Mode {
	if id < 0 || int(id) >= len(o.Modes) {
		return nil
	}
	return o.Modes[id]
}

// ReachableFrom returns, per mode, whether the mode can be reached from
// start by following the declared transitions (start itself is reachable).
// An operational mode the state machine can never enter is almost always a
// specification mistake; specio rejects it at parse time.
func (o *OMSM) ReachableFrom(start ModeID) []bool {
	seen := make([]bool, len(o.Modes))
	if start < 0 || int(start) >= len(o.Modes) {
		return seen
	}
	queue := []ModeID{start}
	seen[start] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, tr := range o.Transitions {
			if tr.From == cur && !seen[tr.To] {
				seen[tr.To] = true
				queue = append(queue, tr.To)
			}
		}
	}
	return seen
}

// ModeByName returns the mode with the given name, or nil.
func (o *OMSM) ModeByName(name string) *Mode {
	for _, m := range o.Modes {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// System bundles a complete co-synthesis problem instance: the application
// (OMSM), the allocated architecture, and the technology library.
type System struct {
	App  *OMSM
	Arch *Arch
	Lib  *Library
}

// CandidatePEs returns the PEs onto which the given task type can be mapped,
// i.e. those with an implementation alternative in the library.
func (s *System) CandidatePEs(tt TaskTypeID) []PEID {
	t := s.Lib.Type(tt)
	if t == nil {
		return nil
	}
	return t.SupportedPEs()
}

// Validate checks structural consistency of the complete system
// specification and returns a descriptive error for the first violation
// found.
func (s *System) Validate() error {
	if s.App == nil || s.Arch == nil || s.Lib == nil {
		return fmt.Errorf("model: system must have app, arch and lib")
	}
	if err := s.validateArch(); err != nil {
		return err
	}
	if err := s.validateLib(); err != nil {
		return err
	}
	return s.validateApp()
}

func (s *System) validateArch() error {
	if len(s.Arch.PEs) == 0 {
		return fmt.Errorf("model: architecture has no PEs")
	}
	for i, pe := range s.Arch.PEs {
		if pe.ID != PEID(i) {
			return fmt.Errorf("model: PE %q has ID %d, want %d", pe.Name, pe.ID, i)
		}
		if pe.Class.IsHardware() && pe.Area <= 0 {
			return fmt.Errorf("model: hardware PE %q has non-positive area %d", pe.Name, pe.Area)
		}
		if pe.DVS {
			if len(pe.Levels) == 0 {
				return fmt.Errorf("model: DVS PE %q has no voltage levels", pe.Name)
			}
			if !sort.Float64sAreSorted(pe.Levels) {
				return fmt.Errorf("model: DVS PE %q voltage levels not ascending", pe.Name)
			}
			top := pe.Levels[len(pe.Levels)-1]
			if math.Abs(top-pe.Vmax) > 1e-9 {
				return fmt.Errorf("model: DVS PE %q max level %g != Vmax %g", pe.Name, top, pe.Vmax)
			}
			if pe.Levels[0] <= pe.Vt {
				return fmt.Errorf("model: DVS PE %q lowest level %g not above Vt %g", pe.Name, pe.Levels[0], pe.Vt)
			}
		}
		if pe.StaticPower < 0 {
			return fmt.Errorf("model: PE %q has negative static power", pe.Name)
		}
	}
	for i, cl := range s.Arch.CLs {
		if cl.ID != CLID(i) {
			return fmt.Errorf("model: CL %q has ID %d, want %d", cl.Name, cl.ID, i)
		}
		if cl.BytesPerSec <= 0 {
			return fmt.Errorf("model: CL %q has non-positive bandwidth", cl.Name)
		}
		for _, p := range cl.PEs {
			if s.Arch.PE(p) == nil {
				return fmt.Errorf("model: CL %q attaches unknown PE %d", cl.Name, p)
			}
		}
	}
	return nil
}

func (s *System) validateLib() error {
	if len(s.Lib.Types) == 0 {
		return fmt.Errorf("model: technology library is empty")
	}
	for i, tt := range s.Lib.Types {
		if tt.ID != TaskTypeID(i) {
			return fmt.Errorf("model: task type %q has ID %d, want %d", tt.Name, tt.ID, i)
		}
		if len(tt.Impls) == 0 {
			return fmt.Errorf("model: task type %q has no implementation alternative", tt.Name)
		}
		seen := make(map[PEID]bool)
		for _, im := range tt.Impls {
			pe := s.Arch.PE(im.PE)
			if pe == nil {
				return fmt.Errorf("model: task type %q has impl on unknown PE %d", tt.Name, im.PE)
			}
			if seen[im.PE] {
				return fmt.Errorf("model: task type %q has duplicate impl on PE %q", tt.Name, pe.Name)
			}
			seen[im.PE] = true
			if im.Time <= 0 {
				return fmt.Errorf("model: task type %q impl on %q has non-positive time", tt.Name, pe.Name)
			}
			if im.Power < 0 {
				return fmt.Errorf("model: task type %q impl on %q has negative power", tt.Name, pe.Name)
			}
			if pe.Class.IsHardware() && im.Area <= 0 {
				return fmt.Errorf("model: task type %q impl on hardware %q needs positive core area", tt.Name, pe.Name)
			}
		}
	}
	return nil
}

func (s *System) validateApp() error {
	if len(s.App.Modes) == 0 {
		return fmt.Errorf("model: OMSM has no modes")
	}
	probSum := 0.0
	for i, m := range s.App.Modes {
		if m.ID != ModeID(i) {
			return fmt.Errorf("model: mode %q has ID %d, want %d", m.Name, m.ID, i)
		}
		if m.Prob < 0 || m.Prob > 1 {
			return fmt.Errorf("model: mode %q has probability %g outside [0,1]", m.Name, m.Prob)
		}
		probSum += m.Prob
		if m.Period <= 0 {
			return fmt.Errorf("model: mode %q has non-positive period", m.Name)
		}
		if m.Graph == nil || len(m.Graph.Tasks) == 0 {
			return fmt.Errorf("model: mode %q has no tasks", m.Name)
		}
		for j, t := range m.Graph.Tasks {
			if t.ID != TaskID(j) {
				return fmt.Errorf("model: mode %q task %q has ID %d, want %d", m.Name, t.Name, t.ID, j)
			}
			if s.Lib.Type(t.Type) == nil {
				return fmt.Errorf("model: mode %q task %q references unknown type %d", m.Name, t.Name, t.Type)
			}
			if t.Deadline < 0 {
				return fmt.Errorf("model: mode %q task %q has negative deadline", m.Name, t.Name)
			}
		}
		for j, e := range m.Graph.Edges {
			if e.ID != EdgeID(j) {
				return fmt.Errorf("model: mode %q edge %d has ID %d, want %d", m.Name, j, e.ID, j)
			}
			if m.Graph.Task(e.Src) == nil || m.Graph.Task(e.Dst) == nil {
				return fmt.Errorf("model: mode %q edge %d references unknown task", m.Name, j)
			}
			if e.Src == e.Dst {
				return fmt.Errorf("model: mode %q edge %d is a self loop", m.Name, j)
			}
			if e.Bytes < 0 {
				return fmt.Errorf("model: mode %q edge %d has negative size", m.Name, j)
			}
		}
		if err := m.Graph.cycleErr; err != nil {
			return fmt.Errorf("model: mode %q: %v", m.Name, err)
		}
	}
	if math.Abs(probSum-1) > 1e-6 {
		return fmt.Errorf("model: mode probabilities sum to %g, want 1", probSum)
	}
	for _, tr := range s.App.Transitions {
		if s.App.Mode(tr.From) == nil || s.App.Mode(tr.To) == nil {
			return fmt.Errorf("model: transition references unknown mode (%d->%d)", tr.From, tr.To)
		}
		if tr.From == tr.To {
			return fmt.Errorf("model: transition %d->%d is a self loop", tr.From, tr.To)
		}
		if tr.MaxTime < 0 {
			return fmt.Errorf("model: transition %d->%d has negative time limit", tr.From, tr.To)
		}
	}
	return nil
}

// WithApp returns a shallow copy of the system using the given application.
func (s *System) WithApp(app *OMSM) *System {
	return &System{App: app, Arch: s.Arch, Lib: s.Lib}
}

// TotalTasks returns the number of tasks summed over all modes.
func (o *OMSM) TotalTasks() int {
	n := 0
	for _, m := range o.Modes {
		n += len(m.Graph.Tasks)
	}
	return n
}

// TotalEdges returns the number of edges summed over all modes.
func (o *OMSM) TotalEdges() int {
	n := 0
	for _, m := range o.Modes {
		n += len(m.Graph.Edges)
	}
	return n
}
