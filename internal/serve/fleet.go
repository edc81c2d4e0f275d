package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"momosyn/internal/fleet"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/synth"
)

// Fleet mode. With Config.FleetDir set the server becomes one node of a
// shared-filesystem fleet: submissions publish jobs into the fleet
// directory instead of a private queue, a claim loop leases runnable jobs
// to the local worker pool, heartbeats renew the leases, and every persist
// of job state is fenced by the lease epoch so a node that died, hung or
// was partitioned can never clobber the state of a job another node
// reclaimed. See docs/FLEET.md for the protocol and its failure matrix.

// fleetManifestValid accepts a fleet manifest document for the given job.
func fleetManifestValid(job string) func([]byte) error {
	return func(data []byte) error {
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return err
		}
		if m.ID != job {
			return fmt.Errorf("manifest names job %q, want %q", m.ID, job)
		}
		if !m.State.valid() {
			return fmt.Errorf("unknown state %q", m.State)
		}
		return nil
	}
}

// fleetManifest renders the job's manifest for a fleet persist at the
// given epoch.
func (s *Server) fleetManifest(j *Job, snap jobSnapshot, epoch int) ([]byte, error) {
	m := manifest{
		ID:          j.ID,
		Request:     j.Request,
		System:      j.system,
		State:       snap.State,
		Error:       snap.Err,
		Created:     snap.Created,
		Started:     snap.Started,
		Finished:    snap.Finished,
		ResumedFrom: snap.ResumedFrom,
		Node:        s.cfg.NodeID,
		Epoch:       epoch,
		Cached:      snap.Cached,
	}
	m.Attempts, m.NotBefore = manifestRetry(snap)
	return json.MarshalIndent(&m, "", "  ")
}

// submitFleet publishes a new job into the fleet directory. The caller has
// already validated the request, resolved the spec inline and checked
// admission.
func (s *Server) submitFleet(req JobRequest, system string) (*Job, error) {
	id, err := s.fleetStore.NewJobID()
	if err != nil {
		return nil, err
	}
	j := &Job{ID: id, Request: req, system: system}
	j.state = StateQueued
	j.created = time.Now()
	j.node = s.cfg.NodeID
	spec, err := json.MarshalIndent(&req, "", "  ")
	if err != nil {
		return nil, err
	}
	man, err := s.fleetManifest(j, j.snapshot(), 0)
	if err != nil {
		return nil, err
	}
	if err := s.fleetStore.CreateJob(id, spec, man); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.jobsByState()
	s.mu.Unlock()
	return j, nil
}

// fleetLoop is the node's coordination loop: it refreshes the local view
// of the shared directory, advertises node liveness, claims runnable jobs
// for free worker slots and maintains the fleet gauges. It runs until the
// root context dies.
func (s *Server) fleetLoop(ctx context.Context) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: fleet loop crashed: %v", p)
		}
	}()
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		s.fleetTick(ctx)
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// fleetTick is one pass of the coordination loop.
func (s *Server) fleetTick(ctx context.Context) {
	if err := s.fleetStore.HeartbeatNode(); err != nil {
		s.logf("serve: fleet: node heartbeat: %v", err)
	}
	if err := s.syncFleet(); err != nil {
		s.logf("serve: fleet: sync: %v", err)
		s.fleetDegraded.Set(1)
		return
	}
	s.claimRunnable(ctx)
	s.updateFleetGauges()
}

// syncFleet reconciles the in-memory job table with the fleet directory:
// unknown jobs are adopted, and jobs this node is not itself holding are
// refreshed from their latest valid manifest.
func (s *Server) syncFleet() error {
	ids, err := s.fleetStore.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			j, err = s.adoptFleetJob(id)
			if err != nil {
				s.logf("serve: fleet: adopt %s: %v", id, err)
				continue
			}
			s.mu.Lock()
			if s.jobs[id] == nil {
				s.jobs[id] = j
				s.order = append(s.order, id)
			}
			s.mu.Unlock()
			continue
		}
		j.mu.Lock()
		local := j.lease != nil
		j.mu.Unlock()
		if !local {
			if err := s.refreshFleetJob(j, false); err != nil {
				s.logf("serve: fleet: refresh %s: %v", id, err)
			}
		}
	}
	s.mu.Lock()
	s.jobsByState()
	s.mu.Unlock()
	return nil
}

// adoptFleetJob builds the local view of a job another node (or an earlier
// incarnation of this one) published.
func (s *Server) adoptFleetJob(id string) (*Job, error) {
	spec, err := s.fleetStore.Spec(id)
	if err != nil {
		return nil, err
	}
	var req JobRequest
	if err := json.Unmarshal(spec, &req); err != nil {
		return nil, fmt.Errorf("spec document: %w", err)
	}
	data, _, err := s.fleetStore.Latest(id, fleet.KindManifest, fleetManifestValid(id))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	// system is set before the job becomes visible to handlers, which read
	// it without the job lock by the immutability convention.
	j := &Job{ID: id, Request: req, system: m.System}
	j.applyManifest(&m)
	return j, nil
}

// refreshFleetJob overwrites the job's mutable view from its latest valid
// manifest. Unless held is set it refuses to touch a job this node holds a
// lease on — the local run owns that view.
func (s *Server) refreshFleetJob(j *Job, held bool) error {
	data, _, err := s.fleetStore.Latest(j.ID, fleet.KindManifest, fleetManifestValid(j.ID))
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lease != nil && !held {
		return nil // raced with a local claim
	}
	j.applyManifestLocked(&m)
	return nil
}

// applyManifest copies the manifest's mutable fields into the job.
func (j *Job) applyManifest(m *manifest) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.applyManifestLocked(m)
}

func (j *Job) applyManifestLocked(m *manifest) {
	if j.state != m.State {
		// A remote transition: restart the local dwell clock so span
		// events emitted here attribute time from when we observed it.
		j.transitioned = time.Now()
	}
	j.state = m.State
	j.err = m.Error
	j.created = m.Created
	j.started = m.Started
	j.finished = m.Finished
	j.resumedFrom = m.ResumedFrom
	j.attempts = m.Attempts
	j.notBefore = time.Time{}
	if m.NotBefore != nil {
		j.notBefore = *m.NotBefore
	}
	j.node = m.Node
	j.cached = m.Cached
}

// claimRunnable claims jobs for this node's free capacity and enqueues
// them for the worker pool.
func (s *Server) claimRunnable(ctx context.Context) {
	s.mu.Lock()
	draining := s.draining
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	if draining || ctx.Err() != nil {
		return
	}
	free := s.cfg.Workers - int(s.busy.Value()) - len(s.queue)
	now := time.Now()
	for _, id := range ids {
		if free <= 0 {
			return
		}
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			continue
		}
		j.mu.Lock()
		claimable := j.lease == nil && !j.state.Terminal() &&
			// Retry backoff: a failed job stays unclaimed fleet-wide until
			// its not_before passes (except running manifests — an expired
			// lease on those must be stolen regardless, if only to count the
			// dead attempt).
			(j.state != StateQueued || j.notBefore.IsZero() || !now.Before(j.notBefore))
		j.mu.Unlock()
		if !claimable {
			continue
		}
		if s.claimJob(j) {
			free--
		}
	}
}

// claimJob attempts to lease one job and hand it to the local pool. It
// returns true when a worker slot was consumed.
func (s *Server) claimJob(j *Job) bool {
	cs, err := s.fleetStore.ClaimState(j.ID)
	if err != nil || cs.Held {
		return false
	}
	lease, err := s.fleetStore.Claim(j.ID)
	if err != nil {
		if !errors.Is(err, fleet.ErrUnavailable) {
			s.logf("serve: fleet: claim %s: %v", j.ID, err)
		}
		return false
	}
	j.mu.Lock()
	j.lease = lease
	j.fenced = false
	j.mu.Unlock()
	// Post-claim re-check: the previous holder may have committed a
	// terminal state between our scan and our claim. Never re-run (or
	// cancel) a finished job.
	if err := s.refreshFleetJob(j, true); err != nil {
		s.logf("serve: fleet: claim %s: manifest: %v", j.ID, err)
		s.dropLease(j, lease)
		return false
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	prev := j.state
	// A stolen running manifest means the previous holder's execution died
	// with it (crash, hang, partition): that attempt is spent. The counter
	// rides the manifests, so a poison job burns one budget fleet-wide no
	// matter which nodes execute it.
	stolenRunning := !terminal && j.state == StateRunning
	if stolenRunning {
		j.attempts++
	}
	quarantine := !terminal && j.attempts >= s.cfg.MaxAttempts
	attempts := j.attempts
	lastErr := j.err
	j.mu.Unlock()
	if terminal {
		s.dropLease(j, lease)
		return false
	}
	if quarantine {
		// Budget exhausted: commit the terminal quarantine manifest at our
		// epoch instead of re-running. No node will claim it again.
		j.mu.Lock()
		j.state = StateQuarantined
		j.err = quarantineCause(attempts, fmt.Errorf("attempt died with its node (last error: %s)", orNone(lastErr)))
		j.finished = time.Now()
		j.node = s.cfg.NodeID
		cause := j.err
		var dwellNs int64
		if s.lifecycleTracing() {
			dwellNs = j.dwellLocked(j.finished)
		}
		j.mu.Unlock()
		s.emitTerminal(j, prev, StateQuarantined, attempts, dwellNs, lease.Epoch, cause)
		if data, merr := s.fleetManifest(j, j.snapshot(), lease.Epoch); merr == nil {
			if werr := lease.Write(fleet.KindManifest, data); werr != nil {
				s.logf("serve: fleet: quarantine %s: %v", j.ID, werr)
			}
		}
		s.reg.Counter("serve.jobs_quarantined").Inc()
		s.quarWindow.record(time.Now())
		s.logf("serve: fleet: job %s quarantined after %d attempts", j.ID, attempts)
		s.fleetStore.RemoveCheckpoints(j.ID)
		s.dropLease(j, lease)
		return false
	}
	// A cancel marker on a not-yet-running job terminates it on the spot.
	if s.fleetStore.CancelRequested(j.ID) {
		j.mu.Lock()
		j.state = StateCancelled
		j.err = ""
		j.finished = time.Now()
		j.cancelRequested = true
		j.node = s.cfg.NodeID
		var dwellNs int64
		if s.lifecycleTracing() {
			dwellNs = j.dwellLocked(j.finished)
		}
		j.mu.Unlock()
		s.emitTerminal(j, prev, StateCancelled, attempts, dwellNs, lease.Epoch, "cancelled by client")
		if data, merr := s.fleetManifest(j, j.snapshot(), lease.Epoch); merr == nil {
			if werr := lease.Write(fleet.KindManifest, data); werr != nil {
				s.logf("serve: fleet: cancel %s: %v", j.ID, werr)
			}
		}
		s.reg.Counter("serve.jobs_cancelled").Inc()
		s.dropLease(j, lease)
		return false
	}
	j.mu.Lock()
	j.state = StateQueued
	j.node = s.cfg.NodeID
	var claimDwell int64
	if s.lifecycleTracing() {
		claimDwell = j.dwellLocked(time.Now())
	}
	j.mu.Unlock()
	if s.lifecycleTracing() {
		ev := obs.JobClaimed
		if stolenRunning {
			ev = obs.JobStolen
		}
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: ev,
			From: string(prev), State: string(StateQueued),
			Attempt: attempts, DwellNs: claimDwell,
			Node: s.cfg.NodeID, Epoch: lease.Epoch})
	}
	if stolenRunning {
		// Make the consumed attempt durable (as queued, at our epoch) before
		// the job runs again, so a chain of node deaths cannot launder the
		// budget away.
		s.fleetPersist(j)
	}
	select {
	case s.queue <- j:
		s.qDepth.Set(float64(len(s.queue)))
		return true
	default:
		// The pool filled up between the capacity check and here; back out.
		s.dropLease(j, lease)
		return false
	}
}

// dropLease releases a lease and detaches it from the job. Release
// failures are logged only: once superseded or unwritable the lease dies
// by TTL anyway.
func (s *Server) dropLease(j *Job, l *fleet.Lease) {
	if err := l.Release(); err != nil && !errors.Is(err, fleet.ErrLeaseLost) {
		s.logf("serve: fleet: release %s: %v", l.Job, err)
	}
	j.mu.Lock()
	if j.lease == l {
		j.lease = nil
	}
	j.mu.Unlock()
}

// updateFleetGauges recomputes the fleet summary gauges the claim loop and
// /readyz report: unclaimed queue depth, jobs awaiting lease recovery
// (latest manifest says running but no live lease protects them), and the
// live node count.
func (s *Server) updateFleetGauges() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	queued, recovering := 0, 0
	for _, j := range jobs {
		j.mu.Lock()
		state, local := j.state, j.lease != nil
		j.mu.Unlock()
		if local || state.Terminal() {
			continue
		}
		cs, err := s.fleetStore.ClaimState(j.ID)
		if err != nil || cs.Held {
			continue
		}
		if state == StateRunning {
			// Its holder stopped renewing: the job is down until some node
			// (maybe this one, next tick) claims and resumes it.
			recovering++
		} else {
			queued++
		}
	}
	live, err := s.fleetStore.LiveNodes()
	if err != nil {
		s.logf("serve: fleet: live nodes: %v", err)
	}
	s.qDepth.Set(float64(queued))
	s.fleetRecovering.Set(float64(recovering))
	s.fleetLiveNodes.Set(float64(live))
	if recovering > 0 {
		s.fleetDegraded.Set(1)
	} else {
		s.fleetDegraded.Set(0)
	}
}

// ---- fenced execution plumbing ----

// fleetHeartbeat renews the job's lease until stop is closed, watching for
// fencing (a higher epoch appeared: abandon the run immediately) and for
// the job's cancel marker. It runs as a goroutine owned by the job's
// worker; done is closed when it exits.
func (s *Server) fleetHeartbeat(cancelJob context.CancelCauseFunc, j *Job, lease *fleet.Lease, stop <-chan struct{}, done chan<- struct{}) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: fleet: heartbeat for %s crashed: %v", j.ID, p)
		}
	}()
	defer close(done)
	ticker := time.NewTicker(s.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if s.fleetStore.CancelRequested(j.ID) {
			j.requestCancel(errors.New("cancelled by client (fleet marker)"))
		}
		if err := lease.Renew(); err != nil {
			if errors.Is(err, fleet.ErrLeaseLost) {
				s.fence(j, cancelJob, err)
				return
			}
			// Transient renewal trouble (EIO, ENOSPC): keep trying; the
			// lease only dies for real when its deadline passes.
			s.logf("serve: fleet: renew %s: %v", j.ID, err)
		}
	}
}

// fence marks the job abandoned-by-fencing and stops its run: a higher
// lease epoch exists, so another node owns the job now and nothing more
// may be persisted from here.
func (s *Server) fence(j *Job, cancelJob context.CancelCauseFunc, cause error) {
	j.mu.Lock()
	already := j.fenced
	j.fenced = true
	state := j.state
	epoch := 0
	if j.lease != nil {
		epoch = j.lease.Epoch
	}
	var dwellNs int64
	if !already && s.lifecycleTracing() {
		dwellNs = j.dwellLocked(time.Now())
	}
	j.mu.Unlock()
	if already {
		return
	}
	s.reg.Counter("serve.jobs_fenced").Inc()
	s.logf("serve: fleet: job %s fenced: %v", j.ID, cause)
	if s.lifecycleTracing() {
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobFenced,
			From: string(state), DwellNs: dwellNs, Node: s.cfg.NodeID,
			Epoch: epoch, Detail: cause.Error()})
	}
	if cancelJob != nil {
		cancelJob(cause)
	}
}

// fleetPersist writes the job's manifest through the lease fence. On fence
// rejection the job is marked fenced; other write failures are logged like
// single-node persist failures.
func (s *Server) fleetPersist(j *Job) { s.fleetPersistSnap(j, j.snapshot()) }

// fleetPersistSnap is fleetPersist with an explicit snapshot (see
// persistSnap).
func (s *Server) fleetPersistSnap(j *Job, snap jobSnapshot) {
	j.mu.Lock()
	lease := j.lease
	j.mu.Unlock()
	if lease == nil {
		return
	}
	data, err := s.fleetManifest(j, snap, lease.Epoch)
	if err == nil {
		err = lease.Write(fleet.KindManifest, data)
	}
	switch {
	case err == nil:
	case errors.Is(err, fleet.ErrLeaseLost):
		s.fence(j, nil, err)
	default:
		s.logf("serve: fleet: job %s: persist manifest: %v", j.ID, err)
	}
}

// fleetCheckpointing wires the job's synthesis options for fenced,
// fault-injectable checkpointing: resume comes from the newest epoch whose
// checkpoint still loads (corrupt epochs degrade to the last good one),
// and every save lands at this lease's epoch behind a fence check.
func (s *Server) fleetCheckpointing(j *Job, lease *fleet.Lease, opts *synth.Options) error {
	opts.CheckpointPath = lease.StatePath(fleet.KindCheckpoint)
	opts.CheckpointSave = func(p string, cp *runctl.Checkpoint) error {
		return lease.Fenced(func() error { return runctl.SaveFS(s.cfg.FS, p, cp) })
	}
	var latest *runctl.Checkpoint
	path, epoch, err := s.fleetStore.LatestPath(j.ID, fleet.KindCheckpoint, func(p string) error {
		cp, lerr := runctl.Load(p)
		if lerr != nil {
			return lerr
		}
		latest = cp
		return nil
	})
	if err != nil {
		if errors.Is(err, fleet.ErrNoState) {
			return nil // fresh run
		}
		return err
	}
	if epoch != lease.Epoch {
		// Re-home the inherited checkpoint at our epoch so save and resume
		// share one path.
		data, rerr := s.cfg.FS.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		if werr := lease.Write(fleet.KindCheckpoint, data); werr != nil {
			return werr
		}
	}
	opts.Resume = true
	j.mu.Lock()
	j.resumedFrom = latest.Snapshot.Generation
	j.mu.Unlock()
	s.reg.Counter("serve.jobs_resumed").Inc()
	return nil
}
