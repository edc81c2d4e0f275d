package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
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

// fleetJobs is the fleet layout behind the jobStore seam: a job lives in
// the shared fleet directory as an immutable spec.json plus
// epoch-suffixed manifests, results and checkpoints. The submitter writes
// epoch 0 before any lease exists; every later write goes through the
// job's fleet.Lease at the lease's epoch, so a node that lost the lease
// can never clobber the state of the node that reclaimed it. Admitted jobs
// wait in the directory until some node's claim loop leases them.
type fleetJobs struct {
	s  *Server
	st *fleet.Store
}

func (f *fleetJobs) newJobID() (string, error) { return f.st.NewJobID() }

// create publishes the job's spec document and, at epoch 0, its result
// (when born done) and its manifest.
func (f *fleetJobs) create(j *Job, result []byte) error {
	j.node = f.st.Node()
	spec := appendRequest(nil, &j.Request, "")
	man, err := renderManifest(j, j.snapshot(), f.st.Node(), 0)
	if err != nil {
		return err
	}
	if result == nil {
		return f.st.CreateJob(j.ID, spec, man)
	}
	return f.st.CreateDoneJob(j.ID, spec, man, result)
}

// writeManifest and writeResult write nothing for a job this node holds no
// lease on: its state is not ours to write.
func (f *fleetJobs) writeManifest(j *Job, snap jobSnapshot) error {
	lease := j.heldLease()
	if lease == nil {
		return nil
	}
	data, err := renderManifest(j, snap, f.st.Node(), lease.Epoch)
	if err != nil {
		return err
	}
	return lease.Write(fleet.KindManifest, data)
}

func (f *fleetJobs) writeResult(j *Job, doc []byte) error {
	lease := j.heldLease()
	if lease == nil {
		return nil
	}
	return lease.Write(fleet.KindResult, doc)
}

// readResult skips corrupt epochs down to the last valid one.
func (f *fleetJobs) readResult(j *Job) []byte {
	data, _, err := f.st.Latest(j.ID, fleet.KindResult, func(d []byte) error {
		if !json.Valid(d) {
			return errors.New("result document is not valid JSON")
		}
		return nil
	})
	if err != nil {
		return nil
	}
	return data
}

// checkpointing wires fenced, fault-injectable checkpointing: resume comes
// from the newest epoch whose checkpoint still loads (corrupt epochs
// degrade to the last good one), and every save lands at this lease's
// epoch behind a fence check.
func (f *fleetJobs) checkpointing(j *Job, opts *synth.Options) (*runctl.Checkpoint, error) {
	lease := j.heldLease()
	opts.CheckpointPath = lease.StatePath(fleet.KindCheckpoint)
	opts.CheckpointSave = func(p string, cp *runctl.Checkpoint) error {
		return lease.Fenced(func() error { return runctl.SaveFS(f.s.cfg.FS, p, cp) })
	}
	var latest *runctl.Checkpoint
	path, epoch, err := f.st.LatestPath(j.ID, fleet.KindCheckpoint, func(p string) error {
		cp, lerr := runctl.Load(p)
		if lerr != nil {
			return lerr
		}
		latest = cp
		return nil
	})
	if errors.Is(err, fleet.ErrNoState) {
		return nil, nil // fresh run
	}
	if err != nil {
		return nil, err
	}
	if epoch != lease.Epoch {
		// Re-home the inherited checkpoint at our epoch so save and resume
		// share one path.
		data, rerr := f.s.cfg.FS.ReadFile(path)
		if rerr != nil {
			return nil, rerr
		}
		if werr := lease.Write(fleet.KindCheckpoint, data); werr != nil {
			return nil, werr
		}
	}
	return latest, nil
}

// tracePath names a per-epoch trace, which keeps concurrent holders (a
// stale one and its successor) from interleaving into one file.
func (f *fleetJobs) tracePath(j *Job) string {
	return f.st.TracePath(j.ID, leaseEpoch(j.heldLease()))
}

func (f *fleetJobs) removeCheckpoints(j *Job) { f.st.RemoveCheckpoints(j.ID) }

// requestCancel drops the durable cancel marker, which reaches whichever
// node holds (or will claim) the job, even if that is not this one.
func (f *fleetJobs) requestCancel(j *Job) (bool, error) {
	if err := f.st.RequestCancel(j.ID); err != nil {
		return false, err
	}
	return j.heldLease() != nil, nil
}

// backlog counts the fleet-wide unstarted jobs this node knows of.
func (f *fleetJobs) backlog() (int, int) {
	queued := 0
	for _, j := range f.s.jobs {
		if j.snapshot().State == StateQueued {
			queued++
		}
	}
	return queued, f.s.cfg.QueueDepth
}

// dispatch leaves the published job to the claim loops of the fleet.
func (f *fleetJobs) dispatch(*Job) bool { return true }

// handBack releases the lease, so the fleet can act on the queued job at
// once; the claim loops honour a retry delay through the manifest's
// not_before.
func (f *fleetJobs) handBack(j *Job, _ time.Duration) {
	if lease := j.heldLease(); lease != nil {
		f.s.dropLease(j, lease)
	}
}

// heldLease returns this node's lease on the job, or nil.
func (j *Job) heldLease() *fleet.Lease {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lease
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
			s.adopt(id)
			continue
		}
		if j.heldLease() == nil {
			if err := s.refreshFleetJob(j, false); err != nil {
				s.logf("serve: fleet: refresh %s: %v", id, err)
			}
		}
	}
	return nil
}

// adopt adds a job this node has not seen to its table from the fleet
// directory and returns the table's entry, which a concurrent adoption or
// submission may have made first. It returns nil when the job cannot be
// adopted: silently while its spec or epoch-0 manifest is not written yet
// (the submitter is between the two writes of CreateJob, or the ID is
// unknown), with a log line when its directory is corrupt.
func (s *Server) adopt(id string) *Job {
	j, err := s.adoptFleetJob(id)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, fleet.ErrNoState) {
			s.logf("serve: fleet: adopt %s: %v", id, err)
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior := s.jobs[id]; prior != nil {
		return prior
	}
	s.addJobLocked(j)
	return j
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
	m, err := s.latestManifest(id)
	if err != nil {
		return nil, err
	}
	// system is set before the job becomes visible to handlers, which read
	// it without the job lock by the immutability convention.
	j := &Job{ID: id, Request: req, system: m.System}
	j.applyManifest(m)
	return j, nil
}

// latestManifest returns the job's newest manifest that decodes, skipping
// corrupt epochs.
func (s *Server) latestManifest(id string) (*manifest, error) {
	var m *manifest
	_, _, err := s.fleetStore.Latest(id, fleet.KindManifest, func(data []byte) (err error) {
		m, err = decodeManifest(data, id)
		return err
	})
	return m, err
}

// refreshFleetJob overwrites the job's mutable view from its latest valid
// manifest. Unless held is set it refuses to touch a job this node holds a
// lease on — the local run owns that view.
func (s *Server) refreshFleetJob(j *Job, held bool) error {
	m, err := s.latestManifest(j.ID)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lease != nil && !held {
		return nil // raced with a local claim
	}
	j.applyManifestLocked(m)
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
	j.setStateLocked(m.State)
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
// returns true when a worker slot was consumed. A lease another node holds
// is the common case of a failed claim and logs nothing.
func (s *Server) claimJob(j *Job) bool {
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
	cancelled := s.fleetStore.CancelRequested(j.ID)
	now := time.Now()
	j.mu.Lock()
	prev := j.state
	if prev.Terminal() {
		j.mu.Unlock()
		s.dropLease(j, lease)
		return false
	}
	// The attempt budget rides the manifests, so a poison job burns one
	// budget fleet-wide no matter which nodes execute it.
	died, quarantined := s.reclaimLocked(j, "its node", now)
	j.node = s.cfg.NodeID
	if cancelled && !quarantined {
		j.cancelQueuedLocked()
	}
	var dwellNs int64
	if s.lifecycleTracing() {
		dwellNs = j.dwellLocked(now)
	}
	snap := j.snapshotLocked()
	j.mu.Unlock()
	switch {
	case quarantined:
		// Commit the quarantine at our epoch instead of re-running; no node
		// claims the job again.
		s.commitTerminal(j, snap, prev, dwellNs, snap.Err)
		return false
	case cancelled:
		s.commitTerminal(j, snap, prev, dwellNs, "cancelled by client")
		return false
	}
	if s.lifecycleTracing() {
		ev := obs.JobClaimed
		if died {
			ev = obs.JobStolen
		}
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: ev,
			From: string(prev), State: string(StateQueued),
			Attempt: snap.Attempts, DwellNs: dwellNs,
			Node: s.cfg.NodeID, Epoch: lease.Epoch})
	}
	if died {
		// Make the consumed attempt durable (as queued, at our epoch) before
		// the job runs again, so a chain of node deaths cannot launder the
		// budget away.
		s.persist(j)
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

// holdLease keeps the job's lease alive through one attempt: a heartbeat
// renews it, passes on the cancel marker and fences the attempt when a
// higher epoch appears. The returned stop ends the heartbeat — renewals
// must stop before the final persists, or a renewal after Release would
// resurrect the lease and block the fleet from reclaiming — and re-checks
// the fence: a fenced checkpoint write surfaces as a Partial result, not an
// error, and a superseded run must never be classified, even locally, as
// completed. A job without a lease (single-node mode) needs none of this.
func (s *Server) holdLease(cancel context.CancelCauseFunc, j *Job, lease *fleet.Lease) (stop func()) {
	if lease == nil {
		return func() {}
	}
	hbStop, hbDone := make(chan struct{}), make(chan struct{})
	go s.fleetHeartbeat(cancel, j, lease, hbStop, hbDone)
	return func() {
		close(hbStop)
		<-hbDone
		if err := lease.Verify(); errors.Is(err, fleet.ErrLeaseLost) {
			s.fence(j, nil, err)
		}
	}
}

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
	epoch := leaseEpoch(j.lease)
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
