package serve

import (
	"errors"
	"fmt"
	"time"

	"momosyn/internal/fleet"
	"momosyn/internal/obs"
)

// The job lifecycle rules both serving modes share: persistence, the
// attempt budget, died-attempt accounting and the terminal commit. Each is
// written once and reaches the disk through the jobStore seam, so
// single-node and fleet mode differ only in where the bytes go. Admission
// (admitJob) and cache-hit materialisation (materializeCached) are shared
// the same way.

// persist writes the job's manifest. Persistence failures are logged, not
// fatal: the in-memory job table keeps serving, the job merely loses
// restart durability.
func (s *Server) persist(j *Job) { s.persistSnap(j, j.snapshot()) }

// persistSnap is persist with an explicit snapshot, for commits whose
// manifest must carry a state the in-memory job does not show yet.
func (s *Server) persistSnap(j *Job, snap jobSnapshot) {
	s.checkPersist(j, "manifest", s.store.writeManifest(j, snap))
}

// checkPersist handles the outcome of one state write: a write the lease
// fence rejects means another node owns the job now, so the job is fenced;
// any other failure is logged.
func (s *Server) checkPersist(j *Job, what string, err error) {
	switch {
	case err == nil:
	case errors.Is(err, fleet.ErrLeaseLost):
		s.fence(j, nil, err)
	default:
		s.logf("serve: job %s: persist %s: %v", j.ID, what, err)
	}
}

// spendLocked applies the attempt budget: once the job's failed executions
// reach Config.MaxAttempts it is quarantined — terminal, never re-enqueued
// here, by a restarted server, or by another fleet node — with last as its
// final failure, and true is returned. j.mu must be held.
func (s *Server) spendLocked(j *Job, last error, now time.Time) bool {
	if j.attempts < s.cfg.MaxAttempts {
		return false
	}
	j.setStateLocked(StateQuarantined)
	j.err = quarantineCause(j.attempts, last)
	j.finished = now
	return true
}

// reclaimLocked decides the fate of a job found queued or running with no
// live execution, at restart recovery or when a fleet node claims it. A
// running state means the execution in flight died with its owner (named
// by owner): that attempt is spent, so a poison job that kills its server
// or node cannot crash-loop forever. The job is then queued again, or
// quarantined when its budget is spent. It reports whether an attempt was
// charged and whether the job is now quarantined. j.mu must be held.
func (s *Server) reclaimLocked(j *Job, owner string, now time.Time) (died, quarantined bool) {
	died = j.state == StateRunning
	if died {
		j.attempts++
	}
	if s.spendLocked(j, fmt.Errorf("attempt died with %s (last error: %s)", owner, orNone(j.err)), now) {
		return died, true
	}
	j.setStateLocked(StateQueued)
	j.started = time.Time{}
	return died, false
}

// commitTerminal commits a terminal decision: the manifest carrying snap's
// final state, the checkpoint removed (the job never runs again), then the
// reveal — the in-memory state and its terminal counter move together
// under j.mu, so state and /metrics can never disagree — the terminal span
// (from the state the job left, with dwellNs spent there) and log line,
// and the job handed back. A caller with a result document persists it
// first: recovery and fleet adoption trust a terminal manifest to have its
// result beside it.
func (s *Server) commitTerminal(j *Job, snap jobSnapshot, from State, dwellNs int64, detail string) {
	s.persistSnap(j, snap)
	s.store.removeCheckpoints(j)
	j.mu.Lock()
	j.setStateLocked(snap.State)
	epoch := leaseEpoch(j.lease)
	switch snap.State {
	case StateDone:
		s.reg.Counter("serve.jobs_done").Inc()
	case StateFailed:
		s.reg.Counter("serve.jobs_failed").Inc()
	case StateCancelled:
		s.reg.Counter("serve.jobs_cancelled").Inc()
	case StateQuarantined:
		s.reg.Counter("serve.jobs_quarantined").Inc()
	default:
		// Non-terminal states are never committed here.
	}
	j.mu.Unlock()
	s.emitTerminal(j, from, snap.State, snap.Attempts, dwellNs, epoch, detail)
	switch snap.State {
	case StateFailed:
		s.logf("serve: job %s failed: %s", j.ID, snap.Err)
	case StateQuarantined:
		s.quarWindow.record(time.Now())
		s.logf("serve: job %s %s", j.ID, snap.Err)
	default:
		// Done and cancelled outcomes need no log line.
	}
	s.store.handBack(j, 0)
}

// commitCancel commits a client cancel of a job this server holds and has
// not started: it was cancelled while it waited for a worker, and turns
// terminal on the spot. (A fleet claim that finds the cancel marker
// commits through commitTerminal directly.)
func (s *Server) commitCancel(j *Job) {
	j.mu.Lock()
	var dwellNs int64
	if s.lifecycleTracing() {
		dwellNs = j.dwellLocked(time.Now())
	}
	snap := j.snapshotLocked()
	j.mu.Unlock()
	s.commitTerminal(j, snap, StateQueued, dwellNs, "cancelled by client")
}

// leaseEpoch is the epoch a job's state is written at: its lease's, or 0
// without one (single-node mode, or a fleet job nobody here holds).
func leaseEpoch(l *fleet.Lease) int {
	if l == nil {
		return 0
	}
	return l.Epoch
}

// addJobLocked makes a created job visible in the table and counts it in
// the per-state gauges. s.mu must be held.
func (s *Server) addJobLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	j.mu.Lock()
	j.gauges = s.stateGauges
	j.gauges[j.state].Add(1)
	j.mu.Unlock()
}

// Job-lifecycle span events. When Config.Lifecycle carries a tracing obs
// run, the server emits one structured `job` event into its JSONL stream
// at every lifecycle edge: submitted → queued → claimed → attempt N →
// checkpoint → stolen/fenced → terminal. Each transition event names the
// state being left (from), the state entered (state) and the wall-clock
// time spent in the left state (dwell_ns), so `mmtrace -lifecycle` can
// build per-state dwell tables by a straight group-by on `from`.
// Checkpoint events are instantaneous markers whose dwell_ns is the save
// duration; they do not touch the job's transition clock.
//
// The whole facility is zero-cost when off: every site guards on
// lifecycleTracing() before computing dwell times or building events, and
// obs.Run.EmitJob's split fast path keeps the event struct on the stack
// (see the AllocsPerRun pin in the obs tests). Events are always emitted
// after j.mu is released — the sink does I/O.

// lifecycleTracing reports whether lifecycle span events are recorded.
func (s *Server) lifecycleTracing() bool { return s.cfg.Lifecycle.Tracing() }

// emitJobSpan forwards one lifecycle event to the configured run;
// nil-safe and allocation-free when tracing is off.
func (s *Server) emitJobSpan(e obs.JobEvent) { s.cfg.Lifecycle.EmitJob(e) }

// dwellLocked returns the nanoseconds the job spent in its current state
// and restarts the dwell clock at now. j.mu must be held. The first call
// after construction measures from creation time.
func (j *Job) dwellLocked(now time.Time) int64 {
	prev := j.transitioned
	if prev.IsZero() {
		prev = j.created
	}
	j.transitioned = now
	if prev.IsZero() || now.Before(prev) {
		return 0
	}
	return now.Sub(prev).Nanoseconds()
}

// emitTerminal emits the terminal lifecycle event for a job that just
// left `from` for terminal state `state`.
func (s *Server) emitTerminal(j *Job, from, state State, attempt int, dwellNs int64, epoch int, detail string) {
	if !s.lifecycleTracing() {
		return
	}
	s.emitJobSpan(obs.JobEvent{
		Job: j.ID, Event: obs.JobTerminal,
		From: string(from), State: string(state),
		Attempt: attempt, DwellNs: dwellNs,
		Node: s.cfg.NodeID, Epoch: epoch, Detail: detail,
	})
}
