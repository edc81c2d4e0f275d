package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented phase of the inner synthesis loop.
type Phase int

// The instrumented phases. PhaseCommMap is nested inside PhaseListSched
// (communication mapping happens during list scheduling); every other
// phase is disjoint wall-clock time.
const (
	PhaseMobility Phase = iota
	PhaseCoreAlloc
	PhaseListSched
	PhaseCommMap
	PhaseDVS
	PhaseCertify
	numPhases
)

// String returns the phase's metric-name segment.
func (p Phase) String() string {
	switch p {
	case PhaseMobility:
		return "mobility"
	case PhaseCoreAlloc:
		return "core_alloc"
	case PhaseListSched:
		return "list_sched"
	case PhaseCommMap:
		return "comm_map"
	case PhaseDVS:
		return "dvs"
	case PhaseCertify:
		return "certify"
	default:
		return "unknown"
	}
}

// Timings is the cumulative wall-clock phase breakdown of one synthesis
// run; populated only while instrumentation is active. CommMap is included
// in ListSched (it is the nested communication-mapping portion).
type Timings struct {
	Mobility  time.Duration
	CoreAlloc time.Duration
	ListSched time.Duration
	CommMap   time.Duration
	DVS       time.Duration
	// Refine is always zero: the engine has no refinement phase. The field
	// stays because the benchmark module reads it for its
	// synth.phase.refine_s metric.
	Refine  time.Duration
	Certify time.Duration
	// Evaluations counts the instrumented inner-loop evaluations.
	Evaluations int
}

// Add accumulates u into t.
func (t *Timings) Add(u Timings) {
	t.Mobility += u.Mobility
	t.CoreAlloc += u.CoreAlloc
	t.ListSched += u.ListSched
	t.CommMap += u.CommMap
	t.DVS += u.DVS
	t.Certify += u.Certify
	t.Evaluations += u.Evaluations
}

// Total returns the summed disjoint phase time (CommMap excluded: it is
// already inside ListSched).
func (t Timings) Total() time.Duration {
	return t.Mobility + t.CoreAlloc + t.ListSched + t.DVS + t.Certify
}

// Run ties a metrics registry and a trace sink together for one
// instrumented process. The zero state of the surrounding code is a nil
// *Run: every method is nil-safe and returns immediately, so disabled
// instrumentation costs neither allocations nor synchronisation.
type Run struct {
	reg   *Registry
	sink  Sink
	seq   atomic.Uint64
	phase [numPhases]*Histogram
	// now is the clock; replaceable in tests.
	now func() time.Time
}

// NewRun returns a Run recording metrics into reg (created when nil) and
// trace events into sink (nil disables tracing but keeps metrics).
func NewRun(reg *Registry, sink Sink) *Run {
	if reg == nil {
		reg = NewRegistry()
	}
	r := &Run{reg: reg, sink: sink, now: time.Now}
	for p := Phase(0); p < numPhases; p++ {
		r.phase[p] = reg.Histogram("synth.phase_seconds."+p.String(), DefTimeBuckets)
	}
	return r
}

// Active reports whether any instrumentation (metrics or tracing) is on.
func (r *Run) Active() bool { return r != nil }

// Tracing reports whether trace events are being recorded. Call sites
// guard event construction with this so the disabled path allocates
// nothing.
func (r *Run) Tracing() bool { return r != nil && r.sink != nil }

// Registry returns the metrics registry; nil for a nil Run.
func (r *Run) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// ObservePhase records one phase duration into its histogram.
func (r *Run) ObservePhase(p Phase, d time.Duration) {
	if r == nil || p < 0 || p >= numPhases {
		return
	}
	r.phase[p].ObserveDuration(d)
}

// NextSeq returns the next evaluation sequence number.
func (r *Run) NextSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Add(1)
}

// Emit stamps and writes one trace event. A sink error is remembered by
// the sink itself; emission never fails the run.
func (r *Run) Emit(ev *Event) {
	if !r.Tracing() {
		return
	}
	if ev.T == 0 {
		ev.T = r.now().UnixNano()
	}
	_ = r.sink.Emit(ev)
}

// EmitRunStart emits a run_start event.
func (r *Run) EmitRunStart(e RunStartEvent) {
	if !r.Tracing() {
		return
	}
	r.emitRunStart(e)
}

// emitRunStart is the slow path; the split keeps e from escaping (and
// thus heap-allocating) in the disabled caller.
func (r *Run) emitRunStart(e RunStartEvent) {
	r.Emit(&Event{Ev: EvRunStart, Run: &e})
}

// EmitGeneration emits a generation event.
func (r *Run) EmitGeneration(e GenerationEvent) {
	if !r.Tracing() {
		return
	}
	r.emitGeneration(e)
}

func (r *Run) emitGeneration(e GenerationEvent) {
	r.Emit(&Event{Ev: EvGeneration, Gen: &e})
}

// EmitEval emits an eval phase-span event.
func (r *Run) EmitEval(e EvalEvent) {
	if !r.Tracing() {
		return
	}
	r.emitEval(e)
}

func (r *Run) emitEval(e EvalEvent) {
	r.Emit(&Event{Ev: EvEval, Eval: &e})
}

// EmitSpan emits a one-off named span.
func (r *Run) EmitSpan(name string, d time.Duration) {
	if !r.Tracing() {
		return
	}
	r.Emit(&Event{Ev: EvSpan, Span: &SpanEvent{Name: name, Ns: d.Nanoseconds()}})
}

// EmitBenchRow emits a bench_row event.
func (r *Run) EmitBenchRow(e BenchRowEvent) {
	if !r.Tracing() {
		return
	}
	r.emitBenchRow(e)
}

func (r *Run) emitBenchRow(e BenchRowEvent) {
	r.Emit(&Event{Ev: EvBenchRow, Row: &e})
}

// EmitJob emits a job-lifecycle span event.
func (r *Run) EmitJob(e JobEvent) {
	if !r.Tracing() {
		return
	}
	r.emitJob(e)
}

func (r *Run) emitJob(e JobEvent) {
	r.Emit(&Event{Ev: EvJob, Job: &e})
}

// EmitRunEnd emits a run_end event.
func (r *Run) EmitRunEnd(e RunEndEvent) {
	if !r.Tracing() {
		return
	}
	r.emitRunEnd(e)
}

func (r *Run) emitRunEnd(e RunEndEvent) {
	r.Emit(&Event{Ev: EvRunEnd, End: &e})
}

// Close closes the trace sink (flushing buffered events).
func (r *Run) Close() error {
	if r == nil || r.sink == nil {
		return nil
	}
	return r.sink.Close()
}

// Export returns the registry's metric state; nil-safe (for checkpoints).
func (r *Run) Export() []MetricState {
	if r == nil {
		return nil
	}
	return r.reg.Export()
}

// RestoreMetrics merges checkpointed metric state back into the registry;
// nil-safe.
func (r *Run) RestoreMetrics(states []MetricState) {
	if r == nil {
		return
	}
	r.reg.Restore(states)
}
