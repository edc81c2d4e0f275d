package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// Float is a float64 whose JSON encoding round-trips non-finite values
// (fitness is legitimately +Inf for all-infeasible populations, which
// encoding/json refuses to marshal as a bare number): infinities and NaN
// are encoded as the strings "+Inf", "-Inf" and "NaN".
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("obs: invalid float %q", s)
			}
			*f = Float(v)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Event kinds, the values of Event.Ev.
const (
	EvRunStart   = "run_start"
	EvGeneration = "generation"
	EvEval       = "eval"
	EvSpan       = "span"
	EvBenchRow   = "bench_row"
	EvRunEnd     = "run_end"
	EvJob        = "job"
)

// Event is one JSONL trace line. Exactly one payload section is non-nil,
// matching the Ev discriminator; ValidateEvent enforces this.
type Event struct {
	// Ev is the event kind, one of the Ev* constants.
	Ev string `json:"ev"`
	// T is the wall-clock emission time in Unix nanoseconds. Timestamps
	// never feed back into the search, so traces of a deterministic run
	// differ only here.
	T int64 `json:"t"`

	Run  *RunStartEvent   `json:"run,omitempty"`
	Gen  *GenerationEvent `json:"gen,omitempty"`
	Eval *EvalEvent       `json:"eval,omitempty"`
	Span *SpanEvent       `json:"span,omitempty"`
	Row  *BenchRowEvent   `json:"row,omitempty"`
	End  *RunEndEvent     `json:"end,omitempty"`
	Job  *JobEvent        `json:"job,omitempty"`
}

// RunStartEvent opens a synthesis run's trace.
type RunStartEvent struct {
	// System is the specification's system name.
	System string `json:"system"`
	// Seed is the run seed.
	Seed int64 `json:"seed"`
	// ResumedFrom is the completed-generation count of the checkpoint this
	// run resumed from; 0 for fresh runs. Generation events continue from
	// ResumedFrom+1.
	ResumedFrom int `json:"resumed_from,omitempty"`
	// DVS and Neglect mirror the synthesis options that shape the
	// objective.
	DVS     bool `json:"dvs,omitempty"`
	Neglect bool `json:"neglect_probabilities,omitempty"`
}

// MutationStats reports one improvement-mutation operator's cumulative
// effectiveness: Attempts is how often the engine invoked it, Accepted how
// often it changed the genome, Improved how often the change lowered the
// individual's fitness.
type MutationStats struct {
	Name     string `json:"name"`
	Attempts int    `json:"attempts"`
	Accepted int    `json:"accepted"`
	Improved int    `json:"improved"`
}

// GenerationEvent reports the engine state after one completed generation.
// Fitness is the minimised FM = p̄·tp·areaTerm·transTerm; the penalty
// fields are the constraint-violation terms of the generation's best
// individual (all 1 when it is feasible), and AvgPower is its
// probability-weighted power p̄ (Eq. 1) under the probabilities the
// optimiser uses.
type GenerationEvent struct {
	Gen         int   `json:"gen"`
	BestFitness Float `json:"best_fitness"`
	// MeanFitness averages the finite fitnesses of the population;
	// Infeasible counts the individuals excluded as non-finite.
	MeanFitness Float `json:"mean_fitness"`
	Infeasible  int   `json:"infeasible,omitempty"`

	AvgPower      Float `json:"avg_power"`
	TimingPenalty Float `json:"timing_penalty"`
	AreaPenalty   Float `json:"area_penalty"`
	TransPenalty  Float `json:"trans_penalty"`
	Unroutable    int   `json:"unroutable,omitempty"`
	Feasible      bool  `json:"feasible"`

	Evaluations int     `json:"evaluations"`
	Stagnant    int     `json:"stagnant"`
	Restarts    int     `json:"restarts,omitempty"`
	Diversity   float64 `json:"diversity"`

	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate"`

	Mutations []MutationStats `json:"mutations,omitempty"`
}

// EvalEvent is the phase-timing span of one inner-loop evaluation
// (mobility analysis, core allocation, list scheduling including the time
// inside communication mapping, DVS voltage selection), durations in
// nanoseconds summed over the candidate's modes.
type EvalEvent struct {
	// Seq numbers the instrumented evaluations of this process.
	Seq         uint64 `json:"seq"`
	MobilityNs  int64  `json:"mobility_ns"`
	CoreAllocNs int64  `json:"core_alloc_ns"`
	ListSchedNs int64  `json:"list_sched_ns"`
	// CommMapNs is the portion of ListSchedNs spent mapping and scheduling
	// inter-PE communications.
	CommMapNs int64 `json:"comm_map_ns"`
	DVSNs     int64 `json:"dvs_ns,omitempty"`
	TotalNs   int64 `json:"total_ns"`
}

// SpanEvent is a one-off named phase timing (certification, final
// evaluation, ...).
type SpanEvent struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// BenchRowEvent records one completed benchmark table row with its
// phase-time breakdown.
type BenchRowEvent struct {
	Table string `json:"table,omitempty"`
	Name  string `json:"name"`
	Modes int    `json:"modes"`
	// Powers in watts; CPU times in nanoseconds (mean per repetition).
	PowerWithout Float `json:"power_without"`
	PowerWith    Float `json:"power_with"`
	ReductionPct Float `json:"reduction_pct"`
	CPUWithoutNs int64 `json:"cpu_without_ns"`
	CPUWithNs    int64 `json:"cpu_with_ns"`
	// Phase totals summed over both cells and all repetitions.
	MobilityNs  int64 `json:"mobility_ns"`
	CoreAllocNs int64 `json:"core_alloc_ns"`
	ListSchedNs int64 `json:"list_sched_ns"`
	CommMapNs   int64 `json:"comm_map_ns"`
	DVSNs       int64 `json:"dvs_ns,omitempty"`
	CertifyNs   int64 `json:"certify_ns,omitempty"`
}

// Job lifecycle event names, the values of JobEvent.Event. The happy path
// of a job service reads submitted → attempt → terminal; claimed/stolen
// mark fleet lease acquisitions, queued a re-enqueue (drain recovery),
// retry a failed-but-budgeted attempt returning to the queue behind its
// backoff, checkpoint a persisted engine snapshot (an instantaneous marker
// whose DwellNs is the save duration, not a state dwell), fenced an
// execution abandoned because a higher lease epoch appeared, and cached a
// submission answered terminally from the content-addressed result cache
// (the job never queued and never ran).
const (
	JobSubmitted  = "submitted"
	JobQueued     = "queued"
	JobClaimed    = "claimed"
	JobStolen     = "stolen"
	JobAttempt    = "attempt"
	JobCheckpoint = "checkpoint"
	JobRetry      = "retry"
	JobFenced     = "fenced"
	JobCached     = "cached"
	JobTerminal   = "terminal"
)

// jobEventNames is the closed set ValidateEvent accepts.
var jobEventNames = map[string]bool{
	JobSubmitted: true, JobQueued: true, JobClaimed: true, JobStolen: true,
	JobAttempt: true, JobCheckpoint: true, JobRetry: true, JobFenced: true,
	JobCached: true, JobTerminal: true,
}

// JobEvent is one job-lifecycle span: a state transition (or checkpoint
// marker) of one job in a synthesis job service. From/State are the job
// states being left and entered (the service's own vocabulary — this
// package does not constrain them); DwellNs is the wall-clock time the job
// spent in From, so queue wait, execution and recovery time are all
// attributable per job. Checkpoint events instead carry the checkpoint
// save duration and leave the state clock untouched.
type JobEvent struct {
	// Job is the job identifier.
	Job string `json:"job"`
	// Event is one of the Job* constants.
	Event string `json:"event"`
	// From is the state the job leaves; empty for submitted (there is no
	// prior state) and for checkpoint markers.
	From string `json:"from,omitempty"`
	// State is the state the job enters; required for terminal events
	// (done/failed/cancelled/quarantined — the service's terminal states).
	State string `json:"state,omitempty"`
	// Attempt is the 1-based execution attempt this event belongs to; 0
	// when the job has not started executing.
	Attempt int `json:"attempt,omitempty"`
	// Node is the service node that observed the transition; empty in
	// single-node deployments.
	Node string `json:"node,omitempty"`
	// Epoch is the fleet lease epoch under which the node held the job; 0
	// outside fleet mode.
	Epoch int `json:"epoch,omitempty"`
	// DwellNs is the time spent in From (or, for checkpoint events, the
	// snapshot save duration) in nanoseconds.
	DwellNs int64 `json:"dwell_ns,omitempty"`
	// Detail carries the human-readable cause (error text, backoff, ...).
	Detail string `json:"detail,omitempty"`
}

// RunEndEvent closes a synthesis run's trace.
type RunEndEvent struct {
	Generations int    `json:"generations"`
	Evaluations int    `json:"evaluations"`
	BestFitness Float  `json:"best_fitness"`
	AvgPower    Float  `json:"avg_power"`
	Feasible    bool   `json:"feasible"`
	Partial     bool   `json:"partial,omitempty"`
	Reason      string `json:"reason,omitempty"`
	ElapsedNs   int64  `json:"elapsed_ns"`
}

// Sink consumes trace events. Implementations must be safe for concurrent
// Emit calls (the bench harness runs synthesis repetitions in parallel
// against one sink).
type Sink interface {
	Emit(*Event) error
	Close() error
}

// NopSink discards every event. It is the explicit form of the default
// disabled state (a nil *Run short-circuits before any event is built).
type NopSink struct{}

// Emit implements Sink.
func (NopSink) Emit(*Event) error { return nil }

// Close implements Sink.
func (NopSink) Close() error { return nil }

// JSONLSink writes one JSON document per event, newline-delimited, through
// a buffered writer. Emit is serialised by a mutex; the first write error
// is kept and returned by every later Emit and by Close.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	c      io.Closer
	closed bool
	err    error
}

// NewJSONLSink returns a sink writing JSONL to w. When w is also an
// io.Closer, Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(ev *Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	data, err := json.Marshal(ev)
	if err == nil {
		_, err = s.bw.Write(data)
	}
	if err == nil {
		err = s.bw.WriteByte('\n')
	}
	if err != nil {
		s.err = fmt.Errorf("obs: trace write: %w", err)
	}
	return s.err
}

// Close flushes the buffer and closes the underlying writer when it is a
// Closer. Closing twice is safe (Run.Close and the Setup closer may both
// reach the same sink) and returns the sticky error.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("obs: trace flush: %w", err)
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = fmt.Errorf("obs: trace close: %w", err)
		}
	}
	return s.err
}

// CollectSink retains every event in memory; for tests.
type CollectSink struct {
	mu     sync.Mutex
	events []*Event
}

// Emit implements Sink.
func (s *CollectSink) Emit(ev *Event) error {
	cp := *ev
	s.mu.Lock()
	s.events = append(s.events, &cp)
	s.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *CollectSink) Close() error { return nil }

// Events returns the collected events.
func (s *CollectSink) Events() []*Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Event(nil), s.events...)
}

// DecodeEvent parses one JSONL line strictly (unknown fields are schema
// violations) and validates it.
func DecodeEvent(line []byte) (*Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	ev := &Event{}
	if err := dec.Decode(ev); err != nil {
		return nil, fmt.Errorf("obs: trace line: %w", err)
	}
	if err := ValidateEvent(ev); err != nil {
		return nil, err
	}
	return ev, nil
}

// ValidateEvent checks the structural schema of one event: a known kind,
// exactly the matching payload section present, and per-kind field sanity.
func ValidateEvent(ev *Event) error {
	sections := []struct {
		name string
		set  bool
	}{
		{EvRunStart, ev.Run != nil},
		{EvGeneration, ev.Gen != nil},
		{EvEval, ev.Eval != nil},
		{EvSpan, ev.Span != nil},
		{EvBenchRow, ev.Row != nil},
		{EvRunEnd, ev.End != nil},
		{EvJob, ev.Job != nil},
	}
	known := false
	for _, s := range sections {
		if s.name == ev.Ev {
			known = true
			if !s.set {
				return fmt.Errorf("obs: %s event is missing its payload section", ev.Ev)
			}
		} else if s.set {
			return fmt.Errorf("obs: %s event carries a stray %s payload", ev.Ev, s.name)
		}
	}
	if !known {
		return fmt.Errorf("obs: unknown event kind %q", ev.Ev)
	}
	if ev.T < 0 {
		return fmt.Errorf("obs: %s event has negative timestamp %d", ev.Ev, ev.T)
	}
	switch ev.Ev {
	case EvGeneration:
		g := ev.Gen
		if g.Gen < 1 {
			return fmt.Errorf("obs: generation event numbered %d (generations are 1-based)", g.Gen)
		}
		if g.Evaluations < 0 || g.Stagnant < 0 || g.Restarts < 0 {
			return fmt.Errorf("obs: generation %d has negative progress counters", g.Gen)
		}
		if g.CacheHitRate < 0 || g.CacheHitRate > 1 {
			return fmt.Errorf("obs: generation %d cache hit rate %g outside [0,1]", g.Gen, g.CacheHitRate)
		}
		if g.Diversity < 0 || g.Diversity > 1 {
			return fmt.Errorf("obs: generation %d diversity %g outside [0,1]", g.Gen, g.Diversity)
		}
		for _, m := range g.Mutations {
			if m.Accepted > m.Attempts || m.Improved > m.Accepted {
				return fmt.Errorf("obs: generation %d mutation %q counts are inconsistent (%d/%d/%d)",
					g.Gen, m.Name, m.Improved, m.Accepted, m.Attempts)
			}
		}
	case EvEval:
		e := ev.Eval
		if e.MobilityNs < 0 || e.CoreAllocNs < 0 || e.ListSchedNs < 0 ||
			e.CommMapNs < 0 || e.DVSNs < 0 || e.TotalNs < 0 {
			return fmt.Errorf("obs: eval span %d has a negative duration", e.Seq)
		}
		if e.CommMapNs > e.ListSchedNs {
			return fmt.Errorf("obs: eval span %d comm-mapping time exceeds its enclosing scheduling time", e.Seq)
		}
	case EvSpan:
		if ev.Span.Name == "" {
			return fmt.Errorf("obs: span event without a name")
		}
		if ev.Span.Ns < 0 {
			return fmt.Errorf("obs: span %q has negative duration", ev.Span.Name)
		}
	case EvRunEnd:
		if ev.End.Generations < 0 || ev.End.Evaluations < 0 {
			return fmt.Errorf("obs: run_end has negative progress counters")
		}
	case EvJob:
		j := ev.Job
		if j.Job == "" {
			return fmt.Errorf("obs: job event without a job id")
		}
		if !jobEventNames[j.Event] {
			return fmt.Errorf("obs: job %s has unknown lifecycle event %q", j.Job, j.Event)
		}
		if j.DwellNs < 0 {
			return fmt.Errorf("obs: job %s %s event has negative dwell %d", j.Job, j.Event, j.DwellNs)
		}
		if j.Attempt < 0 || j.Epoch < 0 {
			return fmt.Errorf("obs: job %s %s event has negative attempt or epoch", j.Job, j.Event)
		}
		if j.Event == JobTerminal && j.State == "" {
			return fmt.Errorf("obs: job %s terminal event names no terminal state", j.Job)
		}
	}
	return nil
}

// ReadEvents decodes and validates a whole JSONL trace stream. It returns
// the events parsed up to the first invalid line, whose 1-based line
// number is included in the error.
func ReadEvents(r io.Reader) ([]*Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var events []*Event
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		ev, err := DecodeEvent(sc.Bytes())
		if err != nil {
			return events, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("obs: trace read: %w", err)
	}
	return events, nil
}
