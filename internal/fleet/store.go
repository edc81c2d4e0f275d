// Package fleet is the shared-filesystem work-distribution layer behind
// multi-node mmserved: any number of nodes observe the same fleet
// directory, claim jobs by atomically creating epoch-numbered lease files,
// renew their claims with heartbeats, and recover jobs whose holder died,
// hung or was partitioned by claiming the next epoch once the lease
// deadline passes.
//
// Safety rests on two primitives:
//
//   - Claims are exclusive creations of epoch-named lease files
//     (lease.e<epoch>), so for any given epoch number exactly one node in
//     the fleet can ever win the claim, no matter how many race for it.
//   - Every piece of job state a lease holder writes (manifest, checkpoint,
//     result) carries its lease epoch in the file name. A resurrected
//     stale node can only ever write files named with its old epoch, which
//     are shadowed by the reclaimed epoch's files and ignored by every
//     reader — a stale node can never clobber a reclaimed job's state.
//
// The protocol, its failure matrix and the operational runbook are
// documented in docs/FLEET.md.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/obs"
)

// Kind identifies one of the epoch-suffixed job state files.
type Kind int

// The job state kinds.
const (
	// KindManifest is the job's lifecycle manifest (manifest.e<E>.json).
	KindManifest Kind = iota
	// KindCheckpoint is the engine checkpoint (job.e<E>.ckpt).
	KindCheckpoint
	// KindResult is the rendered terminal result (result.e<E>.json).
	KindResult
)

// statePattern returns the filename prefix and suffix bracketing the epoch.
func (k Kind) statePattern() (prefix, suffix string) {
	switch k {
	case KindManifest:
		return "manifest.e", ".json"
	case KindCheckpoint:
		return "job.e", ".ckpt"
	case KindResult:
		return "result.e", ".json"
	default:
		return "unknown.e", ""
	}
}

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindManifest:
		return "manifest"
	case KindCheckpoint:
		return "checkpoint"
	case KindResult:
		return "result"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

const (
	leasePrefix = "lease.e"
	specFile    = "spec.json"
	cancelFile  = "cancel"
	epochDigits = 8
)

// ErrNoState reports that no valid state file of the requested kind exists.
var ErrNoState = errors.New("fleet: no valid state file")

// Config tunes one Store. Dir and Node are required.
type Config struct {
	// Dir is the shared fleet directory every node of the fleet points at.
	Dir string
	// Node is this node's unique identifier; it is embedded in leases and
	// the node heartbeat file.
	Node string
	// TTL is the lease time-to-live: a lease not renewed within TTL of its
	// last renewal is claimable by any node (default 5s).
	TTL time.Duration
	// FS is the filesystem the store runs on (default durable.OS; tests
	// inject chaosfs).
	FS durable.FS
	// Registry receives the fleet counters (created when nil).
	Registry *obs.Registry
	// Now is the clock (default time.Now; test seam).
	Now func() time.Time
}

// Store is one node's view of the shared fleet directory.
type Store struct {
	dir  string
	node string
	ttl  time.Duration
	fs   durable.FS
	reg  *obs.Registry
	now  func() time.Time

	claims, steals, expiredLeases  *obs.Counter
	claimConflicts, corruptLeases  *obs.Counter
	renewals, releases             *obs.Counter
	fenceRejects, corruptStateFile *obs.Counter
}

// nodeRe constrains node IDs to filesystem- and JSON-safe names.
var validNodeID = func(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Open attaches to (creating if necessary) the shared fleet directory.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("fleet: Config.Dir is required")
	}
	if !validNodeID(cfg.Node) {
		return nil, fmt.Errorf("fleet: invalid node ID %q (want [A-Za-z0-9._-]{1,64})", cfg.Node)
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = durable.OS{}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Store{
		dir: cfg.Dir, node: cfg.Node, ttl: cfg.TTL,
		fs: cfg.FS, reg: cfg.Registry, now: cfg.Now,
	}
	for _, sub := range []string{s.jobsDir(), s.nodesDir()} {
		if err := durable.Mkdir(s.fs, sub); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	s.claims = s.reg.Counter("fleet.claims")
	s.steals = s.reg.Counter("fleet.steals")
	s.expiredLeases = s.reg.Counter("fleet.expired_leases")
	s.claimConflicts = s.reg.Counter("fleet.claim_conflicts")
	s.corruptLeases = s.reg.Counter("fleet.corrupt_leases")
	s.renewals = s.reg.Counter("fleet.renewals")
	s.releases = s.reg.Counter("fleet.releases")
	s.fenceRejects = s.reg.Counter("fleet.fence_rejects")
	s.corruptStateFile = s.reg.Counter("fleet.corrupt_state_files")
	return s, nil
}

// Node returns this store's node ID.
func (s *Store) Node() string { return s.node }

// TTL returns the configured lease time-to-live.
func (s *Store) TTL() time.Duration { return s.ttl }

// Dir returns the fleet directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobsDir() string          { return filepath.Join(s.dir, "jobs") }
func (s *Store) nodesDir() string         { return filepath.Join(s.dir, "nodes") }
func (s *Store) jobDir(job string) string { return filepath.Join(s.jobsDir(), job) }

func (s *Store) leasePath(job string, epoch int) string {
	return filepath.Join(s.jobDir(job), fmt.Sprintf("%s%0*d", leasePrefix, epochDigits, epoch))
}

// StatePath returns the path of the kind's state file at the given epoch.
func (s *Store) StatePath(job string, kind Kind, epoch int) string {
	prefix, suffix := kind.statePattern()
	return filepath.Join(s.jobDir(job), fmt.Sprintf("%s%0*d%s", prefix, epochDigits, epoch, suffix))
}

// TracePath returns a per-epoch trace file path (observability output, not
// protocol state; the epoch in the name keeps a stale holder's trace from
// interleaving with its successor's).
func (s *Store) TracePath(job string, epoch int) string {
	return filepath.Join(s.jobDir(job), fmt.Sprintf("trace.e%0*d.jsonl", epochDigits, epoch))
}

// SpecPath returns the path of the job's immutable spec document.
func (s *Store) SpecPath(job string) string { return filepath.Join(s.jobDir(job), specFile) }

// parseEpoch parses the zero-padded epoch between prefix and suffix.
func parseEpoch(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) < epochDigits {
		return 0, false
	}
	e, err := strconv.Atoi(digits)
	if err != nil || e < 0 {
		return 0, false
	}
	return e, true
}

func parseLeaseName(name string) (int, bool) {
	e, ok := parseEpoch(name, leasePrefix, "")
	if !ok || e == 0 {
		return 0, false // lease epochs start at 1; epoch 0 is the submitter's
	}
	return e, true
}

// parseStateName classifies an epoch-suffixed state file name.
func parseStateName(name string) (Kind, int, bool) {
	for _, k := range []Kind{KindManifest, KindCheckpoint, KindResult} {
		prefix, suffix := k.statePattern()
		if e, ok := parseEpoch(name, prefix, suffix); ok {
			return k, e, true
		}
	}
	return 0, 0, false
}

// ---- job identity and submission ----

// validFleetJobID matches the IDs the fleet mints (same shape as the
// single-node server's).
func validFleetJobID(id string) bool {
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

// NewJobID allocates the next fleet-wide unique job ID by atomically
// creating its directory: Mkdir fails on collision, so concurrent
// submitters on different nodes each walk forward until they win a slot.
func (s *Store) NewJobID() (string, error) {
	jobs, err := s.Jobs()
	if err != nil {
		return "", err
	}
	next := 1
	for _, id := range jobs {
		if n, err := strconv.Atoi(id[1:]); err == nil && n >= next {
			next = n + 1
		}
	}
	for attempt := 0; attempt < 1000; attempt++ {
		id := fmt.Sprintf("j%06d", next)
		err := s.fs.Mkdir(s.jobDir(id))
		if err == nil {
			if serr := s.fs.SyncDir(s.jobsDir()); serr != nil {
				return "", fmt.Errorf("fleet: new job: %w", serr)
			}
			return id, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", fmt.Errorf("fleet: new job: %w", err)
		}
		next++
	}
	return "", errors.New("fleet: could not allocate a job ID after 1000 attempts")
}

// Jobs lists the fleet's job IDs in ascending order.
func (s *Store) Jobs() ([]string, error) {
	names, err := s.fs.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	ids := names[:0]
	for _, name := range names {
		if validFleetJobID(name) {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// CreateJob publishes a freshly allocated job: the immutable spec document
// (exclusive create — a job is submitted once) and its epoch-0 queued
// manifest, written by the submitter before any lease exists. Epoch 0 is
// reserved for exactly this pre-claim write.
func (s *Store) CreateJob(job string, spec, manifest []byte) error {
	if err := s.fs.CreateExclusive(s.SpecPath(job), spec); err != nil {
		return fmt.Errorf("fleet: job %s spec: %w", job, err)
	}
	if err := durable.WriteAtomic(s.fs, s.StatePath(job, KindManifest, 0), manifest); err != nil {
		return fmt.Errorf("fleet: job %s manifest: %w", job, err)
	}
	return nil
}

// CreateDoneJob publishes a job that is born terminal — a submission
// answered from the content-addressed result cache. Like CreateJob it is
// the submitter's pre-claim write, so everything lands at epoch 0: the
// immutable spec, the rendered result, and last the terminal manifest
// (peers adopt a job from its manifest, so the result must already be in
// place when the manifest appears). No lease ever exists for such a job.
func (s *Store) CreateDoneJob(job string, spec, manifest, result []byte) error {
	if err := s.fs.CreateExclusive(s.SpecPath(job), spec); err != nil {
		return fmt.Errorf("fleet: job %s spec: %w", job, err)
	}
	if err := durable.WriteAtomic(s.fs, s.StatePath(job, KindResult, 0), result); err != nil {
		return fmt.Errorf("fleet: job %s result: %w", job, err)
	}
	if err := durable.WriteAtomic(s.fs, s.StatePath(job, KindManifest, 0), manifest); err != nil {
		return fmt.Errorf("fleet: job %s manifest: %w", job, err)
	}
	return nil
}

// Spec returns the job's immutable spec document.
func (s *Store) Spec(job string) ([]byte, error) {
	data, err := s.fs.ReadFile(s.SpecPath(job))
	if err != nil {
		return nil, fmt.Errorf("fleet: job %s spec: %w", job, err)
	}
	return data, nil
}

// ---- epoch-suffixed state ----

// Epochs returns the epochs at which state files of the kind exist,
// descending (newest first). Epoch 0 (the submitter's pre-claim manifest)
// is included.
func (s *Store) Epochs(job string, kind Kind) ([]int, error) {
	names, err := s.fs.ReadDir(s.jobDir(job))
	if err != nil {
		return nil, fmt.Errorf("fleet: job %s: %w", job, err)
	}
	prefix, suffix := kind.statePattern()
	var epochs []int
	for _, name := range names {
		if e, ok := parseEpoch(name, prefix, suffix); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	return epochs, nil
}

// Latest returns the contents and epoch of the newest state file of the
// kind that the valid callback accepts (nil valid accepts any readable
// file). Corrupt or rejected epochs are skipped — detection degrades to
// the last good epoch instead of wedging the job — and counted. ErrNoState
// reports that no epoch survived.
func (s *Store) Latest(job string, kind Kind, valid func([]byte) error) ([]byte, int, error) {
	epochs, err := s.Epochs(job, kind)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range epochs {
		data, err := s.fs.ReadFile(s.StatePath(job, kind, e))
		if err != nil {
			s.corruptStateFile.Inc()
			continue
		}
		if valid != nil {
			if verr := valid(data); verr != nil {
				s.corruptStateFile.Inc()
				continue
			}
		}
		return data, e, nil
	}
	return nil, 0, fmt.Errorf("%w: job %s has no usable %s", ErrNoState, job, kind)
}

// LatestPath is Latest for consumers that read the file themselves (the
// runctl checkpoint loader): valid receives the candidate path.
func (s *Store) LatestPath(job string, kind Kind, valid func(path string) error) (string, int, error) {
	epochs, err := s.Epochs(job, kind)
	if err != nil {
		return "", 0, err
	}
	for _, e := range epochs {
		path := s.StatePath(job, kind, e)
		if valid != nil {
			if verr := valid(path); verr != nil {
				s.corruptStateFile.Inc()
				continue
			}
		}
		return path, e, nil
	}
	return "", 0, fmt.Errorf("%w: job %s has no usable %s", ErrNoState, job, kind)
}

// Write is the fenced state write: it verifies the lease epoch, writes the
// kind's file at this lease's epoch with full crash-atomicity, then
// verifies again. A pre-write ErrLeaseLost means nothing was written; a
// post-write ErrLeaseLost means the write landed but is (or will be)
// shadowed by a higher epoch — the caller must treat the operation as
// rejected and stop. Either way a stale holder cannot clobber the
// reclaimed job's state, because its epoch names different files.
func (l *Lease) Write(kind Kind, data []byte) error {
	return l.Fenced(func() error {
		return durable.WriteAtomic(l.store.fs, l.store.StatePath(l.Job, kind, l.Epoch), data)
	})
}

// Fenced brackets an arbitrary state write (e.g. a streamed checkpoint
// save) with fence verification, as described at Write.
func (l *Lease) Fenced(write func() error) error {
	if err := l.Verify(); err != nil {
		return err
	}
	if err := write(); err != nil {
		return err
	}
	return l.Verify()
}

// StatePath returns the epoch-suffixed path this lease writes the kind to,
// for writers that stream to the file themselves (inside Fenced).
func (l *Lease) StatePath(kind Kind) string {
	return l.store.StatePath(l.Job, kind, l.Epoch)
}

// RemoveCheckpoints deletes the job's checkpoint files (best-effort, for
// terminal cleanup; failures are ignored — shadowing already makes stale
// checkpoints harmless).
func (s *Store) RemoveCheckpoints(job string) {
	epochs, err := s.Epochs(job, KindCheckpoint)
	if err != nil {
		return
	}
	for _, e := range epochs {
		_ = s.fs.Remove(s.StatePath(job, KindCheckpoint, e))
	}
}

// ---- cancellation markers ----

// RequestCancel drops the job's cancel marker; the lease holder observes
// it at its next heartbeat and stops the run. Requesting twice is fine.
func (s *Store) RequestCancel(job string) error {
	err := s.fs.CreateExclusive(filepath.Join(s.jobDir(job), cancelFile), []byte(s.node+"\n"))
	if err != nil && !errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("fleet: cancel %s: %w", job, err)
	}
	return nil
}

// CancelRequested reports whether the job's cancel marker exists.
func (s *Store) CancelRequested(job string) bool {
	_, err := s.fs.ReadFile(filepath.Join(s.jobDir(job), cancelFile))
	return err == nil
}

// ---- node heartbeats ----

// nodeRecord is the JSON content of a node heartbeat file.
type nodeRecord struct {
	Node     string    `json:"node"`
	PID      int       `json:"pid"`
	Deadline time.Time `json:"deadline"`
}

// HeartbeatNode refreshes this node's liveness record. It is operational
// metadata (feeding /readyz fleet summaries), not part of the safety
// protocol — leases are.
func (s *Store) HeartbeatNode() error {
	rec := nodeRecord{Node: s.node, PID: os.Getpid(), Deadline: s.now().Add(s.ttl)}
	data, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("fleet: node heartbeat: %w", err)
	}
	if err := durable.WriteAtomic(s.fs, filepath.Join(s.nodesDir(), s.node+".json"), data); err != nil {
		return fmt.Errorf("fleet: node heartbeat: %w", err)
	}
	return nil
}

// LiveNodes counts nodes whose heartbeat deadline has not passed. Only
// <node>.json records count: a heartbeat temp left behind by a crash
// holds a valid record too, and must not count its node twice.
func (s *Store) LiveNodes() (int, error) {
	names, err := s.fs.ReadDir(s.nodesDir())
	if err != nil {
		return 0, fmt.Errorf("fleet: nodes: %w", err)
	}
	live := 0
	for _, name := range names {
		if id, ok := strings.CutSuffix(name, ".json"); !ok || !validNodeID(id) {
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(s.nodesDir(), name))
		if err != nil {
			continue
		}
		var rec nodeRecord
		if json.Unmarshal(data, &rec) == nil && s.now().Before(rec.Deadline) {
			live++
		}
	}
	return live, nil
}
