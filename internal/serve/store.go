package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/runctl"
	"momosyn/internal/synth"
)

// manifest is the on-disk record of one job, written atomically on every
// state transition so a killed server can reconstruct its job table. The
// resolved spec text is embedded: recovery never needs the spec directory
// the job was submitted against. Recovery decodes this struct, and
// renderManifest writes its encoding field by field: a field added here
// must be added there (and to TestManifestWriterMatchesMarshal's
// reference).
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

// renderManifest renders the job's manifest document from a snapshot. The
// bytes are those of json.MarshalIndent of the manifest struct, written
// field by field around the request part, which the job encodes once
// (manifestRequestDoc): the spec text in it is most of every manifest, and
// a job that runs writes several. node and epoch are fleet provenance;
// single-node mode passes "" and 0, which the encoding omits, so both
// modes share one layout.
func renderManifest(j *Job, snap jobSnapshot, node string, epoch int) ([]byte, error) {
	req, err := j.manifestRequestDoc(snap.State.Terminal())
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(req)+512)
	b = appendJSONString(append(b, "{\n  \"id\": "...), j.ID)
	b = append(append(b, ",\n  \"request\": "...), req...)
	if j.system != "" {
		b = appendJSONString(append(b, ",\n  \"system\": "...), j.system)
	}
	b = appendJSONString(append(b, ",\n  \"state\": "...), string(snap.State))
	if snap.Err != "" {
		b = appendJSONString(append(b, ",\n  \"error\": "...), snap.Err)
	}
	if b, err = appendJSONTime(append(b, ",\n  \"created\": "...), snap.Created); err != nil {
		return nil, err
	}
	if b, err = appendJSONTime(append(b, ",\n  \"started\": "...), snap.Started); err != nil {
		return nil, err
	}
	if b, err = appendJSONTime(append(b, ",\n  \"finished\": "...), snap.Finished); err != nil {
		return nil, err
	}
	if snap.ResumedFrom != 0 {
		b = strconv.AppendInt(append(b, ",\n  \"resumed_from\": "...), int64(snap.ResumedFrom), 10)
	}
	if snap.Attempts != 0 {
		b = strconv.AppendInt(append(b, ",\n  \"attempts\": "...), int64(snap.Attempts), 10)
	}
	if !snap.NotBefore.IsZero() {
		if b, err = appendJSONTime(append(b, ",\n  \"not_before\": "...), snap.NotBefore); err != nil {
			return nil, err
		}
	}
	if node != "" {
		b = appendJSONString(append(b, ",\n  \"node\": "...), node)
	}
	if epoch != 0 {
		b = strconv.AppendInt(append(b, ",\n  \"epoch\": "...), int64(epoch), 10)
	}
	if snap.Cached {
		b = append(b, ",\n  \"cached\": true"...)
	}
	return append(b, "\n}"...), nil
}

// manifestRequestDoc returns the job's request encoded as the manifest
// nests it (json.MarshalIndent with a two-space prefix). It is encoded
// once per job: a job that can still change state keeps the encoding for
// its next manifest, and the last write, with last set, takes it along
// (no manifest follows a terminal one).
func (j *Job) manifestRequestDoc(last bool) ([]byte, error) {
	j.mu.Lock()
	req := j.manifestRequest
	if last {
		j.manifestRequest = nil
	}
	j.mu.Unlock()
	if req != nil {
		return req, nil
	}
	req, err := json.MarshalIndent(&j.Request, "  ", "  ")
	if err == nil && !last {
		j.mu.Lock()
		j.manifestRequest = req
		j.mu.Unlock()
	}
	return req, err
}

// appendJSONString appends s as encoding/json encodes a string. Printable
// ASCII without a quote, backslash or HTML-escaped byte is copied as is;
// anything else goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONTime appends t as encoding/json encodes a time.Time.
func appendJSONTime(b []byte, t time.Time) ([]byte, error) {
	q, err := t.MarshalJSON()
	return append(b, q...), err
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

const (
	manifestFile   = "manifest.json"
	checkpointFile = "job.ckpt"
	resultFile     = "result.json"
	traceFile      = "trace.jsonl"
)

// jobStore is the one seam between the shared job lifecycle and the two
// on-disk layouts. The lifecycle code decides what a job's state is and
// what to write when; a store decides only where the bytes go, who may
// write them, and how a job is handed to execution. dirStore is the
// single-node job directory; fleetJobs is the lease-fenced fleet
// directory (see fleet.go).
type jobStore interface {
	// newJobID allocates the next job ID. s.mu is held.
	newJobID() (string, error)
	// create makes a new job and its first manifest durable. A job born
	// terminal (a cache hit) carries its result document, which lands
	// before the manifest. s.mu is held.
	create(j *Job, result []byte) error
	// writeManifest persists the manifest rendered from snap.
	writeManifest(j *Job, snap jobSnapshot) error
	// writeResult persists the job's rendered result document.
	writeResult(j *Job, doc []byte) error
	// readResult returns the job's persisted result document, or nil.
	readResult(j *Job) []byte
	// checkpointing points opts at the job's checkpoint and returns the
	// checkpoint the attempt resumes from; nil means a fresh start.
	checkpointing(j *Job, opts *synth.Options) (*runctl.Checkpoint, error)
	// tracePath names the file of the attempt's JSONL run trace.
	tracePath(j *Job) string
	// removeCheckpoints deletes the checkpoint of a job that will never
	// run again (best effort).
	removeCheckpoints(j *Job)
	// requestCancel records a client's cancel where the job's owner will
	// see it, and reports whether this server holds the job and so must
	// cancel it itself.
	requestCancel(j *Job) (held bool, err error)
	// backlog reports the admitted jobs that wait to start and the bound
	// admission holds them to. s.mu is held.
	backlog() (queued, limit int)
	// dispatch hands a freshly created queued job to execution; false
	// means there is no room and the creation is undone. s.mu and j.mu
	// are held.
	dispatch(j *Job) bool
	// handBack returns a job after an attempt that left it queued;
	// retryIn > 0 runs it again once that backoff has passed.
	handBack(j *Job, retryIn time.Duration)
}

// dirStore is the single-node layout: DataDir/jobs/<id>/ holds
// manifest.json, result.json and job.ckpt (and trace.jsonl with
// Config.TraceJobs), and admitted jobs go straight onto the server's own
// queue.
type dirStore struct {
	s    *Server
	root string // DataDir/jobs
	// seq is the highest job sequence number in use, guarded by s.mu. An
	// ID counts as used once its job is created; a creation undone at
	// dispatch gives it back.
	seq int
}

func (d *dirStore) dir(id string) string { return filepath.Join(d.root, id) }

func (d *dirStore) newJobID() (string, error) { return jobID(d.seq + 1), nil }

func (d *dirStore) create(j *Job, result []byte) error {
	dir := d.dir(j.ID)
	if err := durable.Mkdir(d.s.cfg.FS, dir); err != nil {
		return fmt.Errorf("job dir: %w", err)
	}
	var err error
	if result != nil {
		err = d.writeResult(j, result)
	}
	if err == nil {
		err = d.writeManifest(j, j.snapshot())
	}
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	d.seq++
	return nil
}

func (d *dirStore) writeManifest(j *Job, snap jobSnapshot) error {
	data, err := renderManifest(j, snap, "", 0)
	if err != nil {
		return err
	}
	return durable.WriteAtomic(d.s.cfg.FS, filepath.Join(d.dir(j.ID), manifestFile), data)
}

func (d *dirStore) writeResult(j *Job, doc []byte) error {
	return durable.WriteAtomic(d.s.cfg.FS, filepath.Join(d.dir(j.ID), resultFile), doc)
}

func (d *dirStore) readResult(j *Job) []byte {
	data, err := os.ReadFile(filepath.Join(d.dir(j.ID), resultFile))
	if err != nil {
		return nil
	}
	return data
}

func (d *dirStore) checkpointing(j *Job, opts *synth.Options) (*runctl.Checkpoint, error) {
	ckpt := filepath.Join(d.dir(j.ID), checkpointFile)
	opts.CheckpointPath = ckpt
	opts.CheckpointSave = func(p string, cp *runctl.Checkpoint) error { return runctl.SaveFS(d.s.cfg.FS, p, cp) }
	cp, err := runctl.Load(ckpt)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		_ = d.s.cfg.FS.Remove(ckpt) // best effort: the first save replaces it
		return nil, err
	}
	return cp, nil
}

func (d *dirStore) tracePath(j *Job) string { return filepath.Join(d.dir(j.ID), traceFile) }

func (d *dirStore) removeCheckpoints(j *Job) {
	_ = d.s.cfg.FS.Remove(filepath.Join(d.dir(j.ID), checkpointFile)) // best effort, see jobStore
}

func (d *dirStore) requestCancel(*Job) (bool, error) { return true, nil }

func (d *dirStore) backlog() (int, int) { return len(d.s.queue), cap(d.s.queue) }

func (d *dirStore) dispatch(j *Job) bool {
	select {
	case d.s.queue <- j:
		d.s.qDepth.Set(float64(len(d.s.queue)))
		return true
	default:
		os.RemoveAll(d.dir(j.ID))
		d.seq--
		return false
	}
}

func (d *dirStore) handBack(j *Job, retryIn time.Duration) {
	if retryIn > 0 {
		d.s.requeueAfter(j, retryIn)
	}
}

// recoverJobs scans the job directory and rebuilds the job table: terminal
// jobs come back for listing and result serving; queued and running jobs
// go through the reclaim rule (a running manifest's attempt died with the
// server) and are re-queued, or quarantined when their budget is spent.
// Re-queued jobs resume from their checkpoints when one exists. It returns
// the jobs to enqueue, in ID order, and sets the store's sequence to the
// highest ID seen.
func (s *Server) recoverJobs(d *dirStore) (requeue []*Job, err error) {
	if err := durable.Mkdir(s.cfg.FS, d.root); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
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
		path := filepath.Join(d.dir(name), manifestFile)
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
		if n, err := strconv.Atoi(name[1:]); err == nil && n > d.seq {
			d.seq = n
		}
		j := &Job{ID: m.ID, Request: m.Request, system: m.System}
		j.applyManifest(m)
		s.addJobLocked(j)
		if m.State.Terminal() {
			continue
		}
		j.mu.Lock()
		died, quarantined := s.reclaimLocked(j, "the server", time.Now())
		snap := j.snapshotLocked()
		j.mu.Unlock()
		if quarantined {
			s.commitTerminal(j, snap, m.State, 0, snap.Err)
			continue
		}
		if died {
			s.persist(j) // make the consumed attempt durable
		}
		s.reg.Counter("serve.jobs_requeued").Inc()
		requeue = append(requeue, j)
	}
	return requeue, nil
}

func orNone(s string) string {
	if s == "" {
		return "none recorded"
	}
	return s
}
