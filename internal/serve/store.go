package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/fleet"
)

// manifest is the on-disk record of one job, written atomically on every
// state transition so a killed server can reconstruct its job table. The
// resolved spec text is embedded: recovery never needs the spec directory
// the job was submitted against.
type manifest struct {
	ID       string     `json:"id"`
	Request  JobRequest `json:"request"`
	System   string     `json:"system,omitempty"`
	State    State      `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  time.Time  `json:"started,omitempty"`
	Finished time.Time  `json:"finished,omitempty"`
	// ResumedFrom records the checkpoint generation the last run continued
	// from, so restart semantics stay observable across restarts.
	ResumedFrom int `json:"resumed_from,omitempty"`
	// Attempts counts failed executions of this job so far; it is carried
	// through restarts and fleet steals so a poison job exhausts its budget
	// fleet-wide, not per node. NotBefore (a pointer so the happy path
	// omits it — time.Time has no empty encoding) delays the next retry.
	// Both are absent for jobs that never failed, keeping their manifests
	// byte-identical to earlier releases.
	Attempts  int        `json:"attempts,omitempty"`
	NotBefore *time.Time `json:"not_before,omitempty"`
	// Node and Epoch record fleet provenance: which node wrote this
	// manifest under which lease epoch. Both are zero in single-node mode,
	// keeping its manifests byte-identical to earlier releases.
	Node  string `json:"node,omitempty"`
	Epoch int    `json:"epoch,omitempty"`
	// Cached marks a job answered from the content-addressed result cache;
	// absent for jobs that ran, keeping their manifests byte-identical to
	// earlier releases.
	Cached bool `json:"cached,omitempty"`
}

// renderManifest renders the job's manifest document from a snapshot.
// node and epoch are fleet provenance; single-node mode passes "" and 0,
// which the encoding omits, so both modes share one layout.
func renderManifest(j *Job, snap jobSnapshot, node string, epoch int) ([]byte, error) {
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
		Attempts:    snap.Attempts,
		Node:        node,
		Epoch:       epoch,
		Cached:      snap.Cached,
	}
	if !snap.NotBefore.IsZero() {
		nb := snap.NotBefore
		m.NotBefore = &nb
	}
	return json.MarshalIndent(&m, "", "  ")
}

// decodeManifest parses a manifest document and checks that it is usable
// for job id: valid JSON, naming that job, in a known state. Single-node
// recovery and the fleet's latest-valid reader both go through it.
func decodeManifest(data []byte, id string) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corrupt manifest: %w", err)
	}
	if m.ID != id {
		return nil, fmt.Errorf("corrupt manifest: names job %q, want %q", m.ID, id)
	}
	if !m.State.valid() {
		return nil, fmt.Errorf("corrupt manifest: unknown state %q", m.State)
	}
	return &m, nil
}

// manifestValid is decodeManifest as a fleet-store validator.
func manifestValid(id string) func([]byte) error {
	return func(data []byte) error {
		_, err := decodeManifest(data, id)
		return err
	}
}

const (
	manifestFile   = "manifest.json"
	checkpointFile = "job.ckpt"
	resultFile     = "result.json"
	traceFile      = "trace.jsonl"
)

// jobDir returns the directory owning the job's artefacts.
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}

// persist writes the job's manifest. Persistence failures are logged, not
// fatal: the in-memory job table keeps serving, the job merely loses
// restart durability. In fleet mode the write goes through the lease
// fence instead.
func (s *Server) persist(j *Job) { s.persistSnap(j, j.snapshot()) }

// persistSnap is persist with an explicit snapshot, for the worker's
// terminal path where the manifest must carry the job's final state while
// the in-memory job still hides it.
func (s *Server) persistSnap(j *Job, snap jobSnapshot) {
	if s.fleetStore != nil {
		s.fleetPersistSnap(j, snap)
		return
	}
	data, err := renderManifest(j, snap, "", 0)
	if err == nil {
		err = durable.WriteAtomic(s.cfg.FS, filepath.Join(j.dir, manifestFile), data)
	}
	if err != nil {
		s.logf("serve: job %s: persist manifest: %v", j.ID, err)
	}
}

// persistResult stores the rendered result document next to the manifest
// so terminal jobs keep serving their result across restarts. Fleet mode
// writes it through the lease fence at the lease's epoch.
func (s *Server) persistResult(j *Job, doc []byte) {
	var err error
	if s.fleetStore != nil {
		j.mu.Lock()
		lease := j.lease
		j.mu.Unlock()
		if lease == nil {
			return
		}
		err = lease.Write(fleet.KindResult, doc)
	} else {
		err = durable.WriteAtomic(s.cfg.FS, filepath.Join(j.dir, resultFile), doc)
	}
	if err != nil {
		s.logf("serve: job %s: persist result: %v", j.ID, err)
	}
}

// loadResult returns the persisted result document, or nil.
func (j *Job) loadResult() []byte {
	data, err := os.ReadFile(filepath.Join(j.dir, resultFile))
	if err != nil {
		return nil
	}
	return data
}

// recover scans the data directory and rebuilds the job table: terminal
// jobs come back for listing and result serving; queued and running jobs
// are re-queued (running ones were interrupted — they resume from their
// checkpoint when one exists). It returns the jobs to enqueue, in ID
// order, and the highest sequence number seen.
func (s *Server) recoverJobs() (requeue []*Job, maxSeq int, err error) {
	root := filepath.Join(s.cfg.DataDir, "jobs")
	if err := durable.Mkdir(s.cfg.FS, root); err != nil {
		return nil, 0, fmt.Errorf("serve: data dir: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: data dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && validJobID(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	skipped := s.reg.Counter("serve.manifests_skipped")
	for _, name := range names {
		dir := filepath.Join(root, name)
		path := filepath.Join(dir, manifestFile)
		data, err := os.ReadFile(path)
		if err != nil {
			s.logf("serve: recovery: skipping %s: unreadable manifest: %v", path, err)
			skipped.Inc()
			continue
		}
		m, err := decodeManifest(data, name)
		if err != nil {
			s.logf("serve: recovery: skipping %s: %v", path, err)
			skipped.Inc()
			continue
		}
		if n, err := strconv.Atoi(name[1:]); err == nil && n > maxSeq {
			maxSeq = n
		}
		j := &Job{ID: m.ID, Request: m.Request, dir: dir, system: m.System}
		j.created = m.Created
		j.cached = m.Cached
		j.resumedFrom = m.ResumedFrom
		j.attempts = m.Attempts
		if m.NotBefore != nil {
			j.notBefore = *m.NotBefore
		}
		j.err = m.Error
		switch m.State {
		case StateDone, StateFailed, StateCancelled, StateQuarantined:
			j.state = m.State
			j.started = m.Started
			j.finished = m.Finished
		case StateQueued, StateRunning:
			// An interrupted run: the execution that was in flight died with
			// the process and counts against the attempt budget. A job whose
			// budget is spent is quarantined here instead of re-queued —
			// this is what stops a poison job that kills the server from
			// crash-looping across restarts forever.
			if m.State == StateRunning {
				j.attempts++
			}
			if j.attempts >= s.cfg.MaxAttempts {
				j.state = StateQuarantined
				j.started = m.Started
				j.finished = time.Now()
				j.err = quarantineCause(j.attempts, fmt.Errorf("attempt died with the server (last error: %s)", orNone(m.Error)))
				s.reg.Counter("serve.jobs_quarantined").Inc()
				s.quarWindow.record(time.Now())
				s.logf("serve: recovery: job %s quarantined after %d attempts", j.ID, j.attempts)
				s.persistRecovered(j)
				break
			}
			// Back to the queue. The worker decides between resume and
			// fresh start when it finds (or fails to load) the checkpoint.
			j.state = StateQueued
			if m.State == StateRunning {
				s.persistRecovered(j) // make the consumed attempt durable
			}
			s.reg.Counter("serve.jobs_requeued").Inc()
			requeue = append(requeue, j)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	return requeue, maxSeq, nil
}

// persistRecovered persists a state decision made during recovery. It runs
// before the fleet/single-node split matters (recovery is single-node only)
// and before the job is visible, so a plain persist is safe.
func (s *Server) persistRecovered(j *Job) { s.persist(j) }

func orNone(s string) string {
	if s == "" {
		return "none recorded"
	}
	return s
}
