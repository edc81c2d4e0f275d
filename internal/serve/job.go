package serve

import (
	"fmt"
	"sync"
	"time"

	"momosyn/internal/fleet"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/specio"
)

// State is one stage of the job lifecycle. The machine is strictly
// forward: queued → running → (done | failed | cancelled | quarantined),
// with two backward edges: running → queued when a server drain interrupts
// a job so a restarted server can resume it from its checkpoint, and
// running → queued with a retry delay when an attempt fails but the job
// still has attempt budget left. A job whose failures exhaust the budget
// lands in quarantined — terminal, never re-enqueued, locally or by a
// stealing fleet node.
type State string

// The job states.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateQuarantined State = "quarantined"
)

// Terminal reports whether the state ends the lifecycle.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateQuarantined:
		return true
	case StateQueued, StateRunning:
		return false
	default:
		return false
	}
}

// valid reports whether s is a known state (manifests are external input).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateQuarantined:
		return true
	default:
		return false
	}
}

// GAParams is the subset of the GA configuration a job may tune.
type GAParams struct {
	PopSize        int `json:"pop_size,omitempty"`
	MaxGenerations int `json:"max_generations,omitempty"`
	Stagnation     int `json:"stagnation,omitempty"`
}

// JobRequest is the body of POST /v1/jobs. Exactly one of Spec (inline
// specification text) and SpecName (a spec from the server's spec
// directory) must be set; SpecName is resolved at submission time and the
// resolved text stored, so a job survives a restart without the directory.
type JobRequest struct {
	Spec                 string   `json:"spec,omitempty"`
	SpecName             string   `json:"spec_name,omitempty"`
	DVS                  bool     `json:"dvs,omitempty"`
	NeglectProbabilities bool     `json:"neglect_probabilities,omitempty"`
	Seed                 int64    `json:"seed,omitempty"`
	GA                   GAParams `json:"ga,omitempty"`
	StallWindow          int      `json:"stall_window,omitempty"`
	// Certify defaults to true: results leave the server certified by the
	// independent verifier unless the client opts out explicitly.
	Certify *bool `json:"certify,omitempty"`
	// DeadlineMS is an optional wall-clock budget in milliseconds, counted
	// from submission. It covers queue wait: a submission the server cannot
	// plausibly start and finish in time is shed at admission (429), and a
	// run that outlives it is stopped at the next generation boundary with
	// its best-so-far result recorded.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Failpoint injects a deterministic fault into the job's execution for
	// lifecycle drills ("fail", "fail:N", "panic", "hang", "hang-coop").
	// Rejected unless the server runs with failpoints enabled.
	Failpoint string `json:"failpoint,omitempty"`
}

// certify resolves the tri-state Certify field.
func (r *JobRequest) certify() bool { return r.Certify == nil || *r.Certify }

// Progress is the live convergence snapshot of a running (or finished)
// job, fed passively from the per-job obs registry the synthesis run
// updates each generation. Reading it never perturbs the search.
type Progress struct {
	Generation  int     `json:"generation"`
	BestFitness float64 `json:"best_fitness"`
	MeanFitness float64 `json:"mean_fitness"`
	Diversity   float64 `json:"diversity"`
	Stagnant    int     `json:"stagnant"`
	Restarts    int     `json:"restarts"`
}

// Job is one synthesis job owned by the server. The mutex guards every
// mutable field; the identity fields (ID, Request, system, key) are
// immutable after construction.
type Job struct {
	ID      string
	Request JobRequest
	// system is the specification's system name, resolved at submission
	// (or recovery) time for display.
	system string
	// key is the result-cache key computed at admission, which the
	// terminal commit publishes under; empty when the request is
	// uncacheable or the job was recovered or adopted from disk (its
	// publish derives the key from the parsed spec).
	key string

	mu       sync.Mutex
	state    State
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	// transitioned is when the job last changed state, feeding the
	// dwell-time attribution of lifecycle span events; zero means "use
	// created".
	transitioned time.Time
	// resumedFrom is the checkpointed generation the current (or last) run
	// continued from; 0 for fresh runs.
	resumedFrom int
	// attempts counts failed executions so far (in-process failures, and
	// executions presumed dead at recovery or fleet steal time). It stays 0
	// on the happy path, keeping non-retried manifests unchanged.
	attempts int
	// notBefore delays the next attempt of a failed-but-retryable job
	// (exponential backoff); zero when the job is runnable immediately.
	notBefore time.Time
	// cancelRequested distinguishes a client DELETE from a server drain:
	// both cancel the run context, but only the former is terminal.
	cancelRequested bool
	// cancel stops the running synthesis at its next generation boundary;
	// nil unless the job is running.
	cancel func(error)
	// obsRun is the per-job instrumentation run whose registry carries the
	// live GA gauges; nil until the job first runs.
	obsRun *obs.Run
	// lease is this node's claim on the job (fleet mode); nil while the job
	// is unclaimed, held elsewhere, or the server is single-node.
	lease *fleet.Lease
	// fenced marks a run abandoned because a higher lease epoch appeared;
	// nothing from it may be persisted.
	fenced bool
	// node is the fleet node that owns (or last owned) the job, for
	// display; empty in single-node mode.
	node string
	// cached marks a job that was born terminal from the result cache: it
	// never queued, never ran, and owns no checkpoint or trace state.
	cached bool
	// sys is the system admission parsed, so an attempt need not parse the
	// spec again; nil for jobs recovered or adopted from disk (each of
	// their attempts parses the request's spec) and dropped once the job
	// is terminal.
	sys *model.System
	// manifestRequest is Request encoded once for the manifest writes of a
	// job that can still change state; see manifestRequestDoc.
	manifestRequest []byte
	// doc is the result document rendered at the terminal commit of a run
	// in this process, served to every later result request; nil for jobs
	// whose document lives only on disk (cache hits among them).
	doc []byte
	// gauges are the server's per-state job gauges once the job is in the
	// table, nil before; see setStateLocked.
	gauges stateGauges
}

// stateGauges holds one serve.jobs_state_<state> gauge per state. A job
// in the table is counted under its current state: addJobLocked counts it
// in and every state change moves it from one gauge to the other, so the
// gauges always equal a recount of the table without ever doing one.
type stateGauges map[State]*obs.Gauge

// setStateLocked moves the job to state st and its count with it. A
// terminal job lets its parsed system go: no attempt follows. j.mu must
// be held.
func (j *Job) setStateLocked(st State) {
	if j.gauges != nil && st != j.state {
		j.gauges[j.state].Add(-1)
		j.gauges[st].Add(1)
	}
	j.state = st
	if st.Terminal() {
		j.sys = nil
	}
}

// parsedSpec returns the system an attempt runs on: the one parsed at
// admission, or a parse of the request's spec for a job that came from
// disk.
func (j *Job) parsedSpec() (*model.System, error) {
	j.mu.Lock()
	sys := j.sys
	j.mu.Unlock()
	if sys != nil {
		return sys, nil
	}
	sys, _, err := specio.ReadWarnString(j.Request.Spec)
	return sys, err
}

// snapshot captures the mutable fields under the lock.
type jobSnapshot struct {
	State           State
	Err             string
	Created         time.Time
	Started         time.Time
	Finished        time.Time
	ResumedFrom     int
	Attempts        int
	NotBefore       time.Time
	CancelRequested bool
	ObsRun          *obs.Run
	Node            string
	Cached          bool
}

func (j *Job) snapshot() jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked is snapshot for callers already holding j.mu.
func (j *Job) snapshotLocked() jobSnapshot {
	return jobSnapshot{
		State: j.state, Err: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
		ResumedFrom: j.resumedFrom, Attempts: j.attempts, NotBefore: j.notBefore,
		CancelRequested: j.cancelRequested,
		ObsRun:          j.obsRun, Node: j.node, Cached: j.cached,
	}
}

// StatusView is the JSON shape of GET /v1/jobs/{id} and of each entry in
// the listing.
type StatusView struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	System   string `json:"system,omitempty"`
	SpecName string `json:"spec_name,omitempty"`
	Seed     int64  `json:"seed"`
	DVS      bool   `json:"dvs"`
	Error    string `json:"error,omitempty"`
	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// ResumedFrom is the checkpointed generation this job's run continued
	// from after a server restart; 0 means it started from generation 0.
	ResumedFrom int `json:"resumed_from,omitempty"`
	// Attempts counts failed executions so far; 0 on the happy path.
	Attempts int `json:"attempts,omitempty"`
	// RetryAt is when a failed-but-retryable job becomes runnable again.
	RetryAt string `json:"retry_at,omitempty"`
	// Node is the fleet node owning (or that last owned) the job; empty in
	// single-node mode.
	Node string `json:"node,omitempty"`
	// Cached marks a job answered from the content-addressed result cache:
	// it was terminal at submission and burned no synthesis work.
	Cached   bool      `json:"cached,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
}

// status renders the job for the API. The system name comes from the
// parsed spec when available.
func (j *Job) status(systemName string) StatusView {
	s := j.snapshot()
	v := StatusView{
		ID:          j.ID,
		State:       s.State,
		System:      systemName,
		SpecName:    j.Request.SpecName,
		Seed:        j.Request.Seed,
		DVS:         j.Request.DVS,
		Error:       s.Err,
		ResumedFrom: s.ResumedFrom,
		Attempts:    s.Attempts,
		Node:        s.Node,
		Cached:      s.Cached,
	}
	if s.State == StateQueued && !s.NotBefore.IsZero() {
		v.RetryAt = s.NotBefore.UTC().Format(time.RFC3339Nano)
	}
	if !s.Created.IsZero() {
		v.Created = s.Created.UTC().Format(time.RFC3339Nano)
	}
	if !s.Started.IsZero() {
		v.Started = s.Started.UTC().Format(time.RFC3339Nano)
	}
	if !s.Finished.IsZero() {
		v.Finished = s.Finished.UTC().Format(time.RFC3339Nano)
	}
	if s.ObsRun.Active() && (s.State == StateRunning || s.State.Terminal()) {
		reg := s.ObsRun.Registry()
		v.Progress = &Progress{
			Generation:  int(reg.Gauge("ga.generation").Value()),
			BestFitness: reg.Gauge("ga.best_fitness").Value(),
			MeanFitness: reg.Gauge("ga.mean_fitness").Value(),
			Diversity:   reg.Gauge("ga.diversity").Value(),
			Stagnant:    int(reg.Gauge("ga.stagnant").Value()),
			Restarts:    int(reg.Gauge("ga.restarts").Value()),
		}
	}
	return v
}

// requestCancel flips the job towards cancellation: a queued job becomes
// cancelled on the spot, a running one has its context cancelled and is
// marked cancelled by its worker at the next generation boundary. It
// returns the state after the call and whether anything changed.
func (j *Job) requestCancel(cause error) (State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.cancelQueuedLocked()
		return j.state, true
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel(cause)
		}
		return j.state, true
	case StateDone, StateFailed, StateCancelled, StateQuarantined:
		return j.state, false
	default:
		return j.state, false
	}
}

// cancelQueuedLocked makes a job that has not started its attempt
// cancelled. j.mu must be held.
func (j *Job) cancelQueuedLocked() {
	j.cancelRequested = true
	j.setStateLocked(StateCancelled)
	j.err = ""
	j.finished = time.Now()
}

// jobIDPattern validates client-supplied job identifiers before they touch
// the filesystem: the server only ever mints IDs of this shape.
func validJobID(id string) bool {
	if len(id) < 2 || len(id) > 32 || id[0] != 'j' {
		return false
	}
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// jobID renders sequence number n as a job identifier.
func jobID(n int) string { return fmt.Sprintf("j%06d", n) }
