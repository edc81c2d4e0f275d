// Package serve is the synthesis job service behind cmd/mmserved: a
// standard-library-only HTTP JSON API that accepts multi-mode
// specification uploads, queues synthesis jobs into a bounded queue with
// backpressure, and executes them on a worker pool where every job runs
// synth.Synthesize under its own context with panic isolation, per-job
// runctl checkpoints and a passive obs instrumentation run feeding live
// generation progress.
//
// Lifecycle: queued → running → done | failed | cancelled | quarantined.
// Jobs persist a manifest (and, when finished, their rendered result)
// under the data directory, so a restarted server lists old jobs,
// re-queues interrupted ones and resumes them from their checkpoints
// rather than from generation 0. Graceful shutdown drains the workers:
// running jobs stop at their next generation boundary, write a final
// checkpoint and return to the queued state on disk.
//
// The lifecycle is hardened against hostile inputs and overload: every
// failed execution counts against a per-job attempt budget (with
// exponential backoff between retries) and a job that exhausts it is
// quarantined — terminal, never re-enqueued, by this server, a restarted
// one, or a stealing fleet node. Wall-clock deadlines and a generation
// cap bound each run; a watchdog kills attempts that stop making
// generation progress; and submissions whose deadline cannot plausibly be
// met are shed at admission with 429 + Retry-After. See docs/SERVER.md.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"momosyn/internal/cas"
	"momosyn/internal/durable"
	"momosyn/internal/fleet"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// Config tunes one Server. The zero value of optional fields selects the
// documented defaults.
type Config struct {
	// Workers is the synthesis worker pool size (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 16).
	// A full queue rejects submissions with 429 and a Retry-After hint.
	QueueDepth int
	// DataDir is where jobs persist manifests, checkpoints, results and
	// traces (required).
	DataDir string
	// SpecDir, when set, lets jobs name a built-in specification
	// ("spec_name": "mul1" resolves to SpecDir/mul1.spec).
	SpecDir string
	// CheckpointEvery is the generation interval of per-job checkpoints
	// (default 5).
	CheckpointEvery int
	// TraceJobs writes a JSONL run-trace per job into its data directory.
	TraceJobs bool
	// Registry receives the server metrics (created when nil); it backs
	// GET /metrics.
	Registry *obs.Registry
	// Lifecycle, when it carries a tracing obs run, receives one `job`
	// span event per lifecycle edge (submitted, attempt, checkpoint,
	// claimed/stolen, fenced, terminal) in its JSONL trace stream; nil or
	// a non-tracing run disables emission at zero cost. See
	// docs/OBSERVABILITY.md.
	Lifecycle *obs.Run
	// AccessLog, when non-nil, receives one structured JSON line per
	// handled HTTP request (method, path, status, duration, job id when
	// one is involved). Off by default.
	AccessLog io.Writer
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)

	// MaxAttempts is the per-job execution budget (default 3): a job whose
	// failed executions — in-process errors, panics, watchdog kills, and
	// executions presumed dead at recovery or fleet-steal time — reach this
	// count is quarantined instead of retried.
	MaxAttempts int
	// RetryBackoff seeds the exponential backoff separating a failed
	// attempt from the next execution (default 2s, doubling per failure,
	// capped at one minute).
	RetryBackoff time.Duration
	// JobTimeout, when positive, bounds each execution's wall-clock time;
	// an expired run stops at its next generation boundary, records its
	// best-so-far partial result and fails terminally (a deadline miss is
	// not retried — more attempts cannot make the clock move backwards).
	// Requests may tighten this further with deadline_ms.
	JobTimeout time.Duration
	// MaxGenerations, when positive, caps the GA generation budget of every
	// job: requests asking for more (or for the engine default by leaving
	// it zero) are clamped at admission.
	MaxGenerations int
	// WatchdogStall, when positive, arms the worker watchdog: an execution
	// whose GA generation gauge does not move for this long is cancelled
	// and the attempt failed rather than hanging its pool slot.
	WatchdogStall time.Duration
	// WatchdogGrace is how long the watchdog waits after cancelling a
	// stalled attempt before abandoning the slot entirely (default 10s).
	WatchdogGrace time.Duration
	// Failpoints permits submissions carrying a "failpoint" fault
	// injection; off by default — lifecycle drills only.
	Failpoints bool

	// FleetDir, when set, turns the server into one node of a
	// shared-filesystem fleet: jobs are published into this directory and
	// executed by whichever node claims their lease. DataDir is not used in
	// fleet mode. See docs/FLEET.md.
	FleetDir string
	// NodeID is this node's fleet-wide unique identifier
	// ([A-Za-z0-9._-]{1,64}; default "node-<pid>"). Fleet mode only.
	NodeID string
	// LeaseTTL is how long a job lease stays valid without renewal; a node
	// that misses renewals for this long loses its jobs to the rest of the
	// fleet (default 5s). Fleet mode only.
	LeaseTTL time.Duration
	// Heartbeat is the lease renewal and fleet scan interval (default
	// LeaseTTL/3). Fleet mode only.
	Heartbeat time.Duration
	// FS is the filesystem every job, batch and checkpoint write goes
	// through, in both modes (default durable.OS; tests inject chaosfs).
	FS durable.FS

	// CacheDir, when set, enables the content-addressed result cache:
	// completed certified jobs publish their result under the canonical
	// (spec, seed, options, engine version) key and semantically identical
	// resubmissions are answered terminally at admission. In fleet mode it
	// defaults to FleetDir/cache so every node shares one cache; in
	// single-node mode empty means disabled. See docs/CACHE.md.
	CacheDir string
	// CacheMaxBytes caps the total size of cache entries; beyond it the
	// least-recently-used entries are evicted. 0 means unbounded.
	CacheMaxBytes int64
}

const (
	// maxSpecBytes bounds the accepted body of a job submission.
	maxSpecBytes = 1 << 20
	// shedDegradeThreshold marks the node degraded in /readyz when at
	// least this many submissions were shed in the last minute.
	shedDegradeThreshold = 10
	// quarantineDegradeThreshold marks the node degraded when at least
	// this many jobs were quarantined in the last minute.
	quarantineDegradeThreshold = 1
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 5
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Second
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 10 * time.Second
	}
	if c.FS == nil {
		c.FS = durable.OS{}
	}
	if c.FleetDir != "" {
		if c.NodeID == "" {
			c.NodeID = fmt.Sprintf("node-%d", os.Getpid())
		}
		if c.LeaseTTL <= 0 {
			c.LeaseTTL = 5 * time.Second
		}
		if c.Heartbeat <= 0 {
			c.Heartbeat = c.LeaseTTL / 3
		}
		if c.CacheDir == "" {
			// Fleet nodes share one cache through the fleet directory:
			// a result computed anywhere is a hit everywhere.
			c.CacheDir = filepath.Join(c.FleetDir, "cache")
		}
	}
	return c
}

// Server owns the job table, the bounded queue and the worker pool.
type Server struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in creation order (listing order)
	draining bool
	started  bool

	queue      chan *Job
	wg         sync.WaitGroup
	cancelRoot context.CancelCauseFunc
	// rootCtx is the worker pool's context, kept so retry timers die with
	// the pool instead of firing into a drained server.
	rootCtx context.Context

	// Observed per-job service time (EWMA seconds) behind the admission
	// estimator, and the sliding shed/quarantine windows behind /readyz
	// degradation.
	svcMu      sync.Mutex
	svcAvg     float64
	shedWindow eventWindow
	quarWindow eventWindow

	// store is where job state goes: the single-node job directory or the
	// fleet directory.
	store jobStore
	// fleetStore is the fleet directory behind store in fleet mode, for the
	// coordination loop; nil in single-node mode.
	fleetStore *fleet.Store

	// cache is the content-addressed result store; nil when disabled.
	cache *cas.Store

	// Batch records, guarded by mu; cells are immutable once created.
	batches    map[string]*Batch
	batchOrder []string
	batchSeq   int

	// Metric handles held once so the hot paths skip the registry map.
	stateGauges     stateGauges
	qDepth          *obs.Gauge
	running         *obs.Gauge
	busy            *obs.Gauge
	jobSeconds      *obs.Histogram
	fleetRecovering *obs.Gauge
	fleetLiveNodes  *obs.Gauge
	fleetDegraded   *obs.Gauge
	batchesGauge    *obs.Gauge
}

// New builds a Server over cfg.DataDir, recovering previously persisted
// jobs: terminal jobs return for listing and result serving, interrupted
// ones go back to the queue (and resume from their checkpoints once a
// worker picks them up). Call Start to launch the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" && cfg.FleetDir == "" {
		return nil, errors.New("serve: Config.DataDir is required")
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		jobs:    make(map[string]*Job),
		batches: make(map[string]*Batch),
	}
	s.stateGauges = make(stateGauges)
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateQuarantined} {
		g := s.reg.Gauge("serve.jobs_state_" + string(st))
		g.Set(0) // a shared registry may hold an earlier server's counts
		s.stateGauges[st] = g
	}
	s.batchesGauge = s.reg.Gauge("serve.batches")
	s.qDepth = s.reg.Gauge("serve.queue_depth")
	s.running = s.reg.Gauge("serve.jobs_running")
	s.busy = s.reg.Gauge("serve.workers_busy")
	s.jobSeconds = s.reg.Histogram("serve.job_seconds", obs.DefTimeBuckets)
	s.reg.Gauge("serve.workers").Set(float64(cfg.Workers))
	// Batch counters register eagerly so scrapers see every series from the
	// first /metrics exposition, not only after the first batch arrives.
	for _, name := range []string{
		"serve.batches_submitted", "serve.batch_cells", "serve.batch_dedup",
		"serve.batch_cache_hits", "serve.batch_rejected",
	} {
		s.reg.Counter(name)
	}

	if cfg.CacheDir != "" {
		store, err := cas.OpenFS(cfg.FS, cfg.CacheDir, cfg.CacheMaxBytes, cas.Metrics{
			Hits:      s.reg.Counter("serve.cache_hits"),
			Misses:    s.reg.Counter("serve.cache_misses"),
			Evictions: s.reg.Counter("serve.cache_evictions"),
			Corrupt:   s.reg.Counter("serve.cache_corrupt"),
		})
		if err != nil {
			return nil, fmt.Errorf("serve: cache: %w", err)
		}
		s.cache = store
	}

	if cfg.FleetDir != "" {
		store, err := fleet.Open(fleet.Config{
			Dir: cfg.FleetDir, Node: cfg.NodeID, TTL: cfg.LeaseTTL,
			FS: cfg.FS, Registry: cfg.Registry,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.fleetStore = store
		s.store = &fleetJobs{s: s, st: store}
		s.fleetRecovering = s.reg.Gauge("fleet.jobs_recoverable")
		s.fleetLiveNodes = s.reg.Gauge("fleet.live_nodes")
		s.fleetDegraded = s.reg.Gauge("fleet.degraded")
		s.queue = make(chan *Job, cfg.QueueDepth)
		// Recovery is the claim loop's job: populate the table now so the
		// API lists existing work immediately, but claim nothing before
		// Start.
		if err := s.syncFleet(); err != nil {
			return nil, fmt.Errorf("serve: fleet: %w", err)
		}
		return s, nil
	}

	d := &dirStore{s: s, root: filepath.Join(cfg.DataDir, "jobs")}
	s.store = d
	requeue, err := s.recoverJobs(d)
	if err != nil {
		return nil, err
	}
	s.recoverBatches()
	// The queue must hold every recovered job plus the configured depth's
	// worth of new ones; recovery must never hit its own backpressure.
	depth := cfg.QueueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s.queue = make(chan *Job, depth)
	for _, j := range requeue {
		s.queue <- j
		if s.lifecycleTracing() {
			s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobQueued,
				State: string(StateQueued), Detail: "recovered at restart"})
		}
	}
	s.qDepth.Set(float64(len(s.queue)))
	return s, nil
}

// Start launches the worker pool. The context bounds every job the pool
// will ever run: cancelling it (directly or via Shutdown) stops in-flight
// syntheses at their next generation boundary.
func (s *Server) Start(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	root, cancel := context.WithCancelCause(ctx)
	s.cancelRoot = cancel
	s.rootCtx = root
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(root)
	}
	if s.fleetStore != nil {
		s.wg.Add(1)
		go s.fleetLoop(root)
	}
}

// ErrDrainTimeout reports a Shutdown that gave up waiting for the workers.
var ErrDrainTimeout = errors.New("serve: drain deadline exceeded before all workers stopped")

// Shutdown drains the server: submissions are refused from now on,
// in-flight syntheses are cancelled (they stop at the next generation
// boundary and write their final checkpoints), and the call waits for the
// worker pool until ctx expires. Interrupted jobs are left queued on disk
// for the next server to resume.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.draining = true
	cancel := s.cancelRoot
	s.mu.Unlock()
	if cancel != nil {
		cancel(errors.New("server shutting down"))
	}
	done := make(chan struct{})
	go func() {
		defer func() { recover() }() // wg misuse must not kill the drain
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ErrDrainTimeout
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }

// ---- worker pool ----

// worker pulls jobs off the queue until the root context dies. The
// top-level recover barrier keeps a defect in job bookkeeping from taking
// the whole process down (the synthesis itself is already panic-isolated
// inside runJob and runctl.Guard).
func (s *Server) worker(ctx context.Context) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("serve: worker crashed: %v", p)
		}
	}()
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		select {
		case <-ctx.Done():
			return
		case j := <-s.queue:
			s.qDepth.Set(float64(len(s.queue)))
			s.runJob(ctx, j)
		}
	}
}

// runJob executes one job end to end: state transitions, per-job obs run,
// checkpoint resume decision, the synthesis itself behind a recover
// barrier, outcome classification and persistence.
func (s *Server) runJob(ctx context.Context, j *Job) {
	// A job cancelled while it waited here was committed by its canceller.
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	jobCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	j.setStateLocked(StateRunning)
	j.started = time.Now()
	j.finished = time.Time{}
	j.notBefore = time.Time{}
	j.cancel = cancel
	lease := j.lease
	epoch := leaseEpoch(lease)
	created := j.created
	attempt := j.attempts + 1
	var queuedNs int64
	if s.lifecycleTracing() {
		queuedNs = j.dwellLocked(j.started)
	}
	j.mu.Unlock()
	if s.lifecycleTracing() {
		s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobAttempt,
			From: string(StateQueued), State: string(StateRunning),
			Attempt: attempt, DwellNs: queuedNs, Node: s.cfg.NodeID, Epoch: epoch})
	}
	s.reg.Counter("serve.attempts_total").Inc()
	// The execution context: the job context (worker pool + client cancel +
	// watchdog) further bounded by the tighter of the server's per-attempt
	// timeout and the request's wall-clock deadline (counted from
	// submission, so queue wait spends it too).
	runCtx := jobCtx
	var deadline time.Time
	if j.Request.DeadlineMS > 0 {
		deadline = created.Add(time.Duration(j.Request.DeadlineMS) * time.Millisecond)
	}
	if s.cfg.JobTimeout > 0 {
		if t := time.Now().Add(s.cfg.JobTimeout); deadline.IsZero() || t.Before(deadline) {
			deadline = t
		}
	}
	if !deadline.IsZero() {
		var cancelDeadline context.CancelFunc
		runCtx, cancelDeadline = context.WithDeadlineCause(jobCtx, deadline, errJobDeadline)
		defer cancelDeadline()
	}
	stopLease := s.holdLease(cancel, j, lease)
	s.persist(j)
	s.running.Add(1)
	s.busy.Add(1)
	start := time.Now()
	defer func() {
		s.running.Add(-1)
		s.busy.Add(-1)
		d := time.Since(start)
		s.jobSeconds.ObserveDuration(d)
		s.observeServiceTime(d)
		s.reg.Gauge("serve.worker_busy_seconds").Add(d.Seconds())
	}()

	// Per-job instrumentation: a private registry for the progress gauges
	// and, when configured, a JSONL trace beside the job's state.
	var sink obs.Sink
	if s.cfg.TraceJobs {
		f, err := os.Create(s.store.tracePath(j))
		if err != nil {
			s.logf("serve: job %s: trace: %v", j.ID, err)
		} else {
			sink = obs.NewJSONLSink(f)
		}
	}
	run := obs.NewRun(obs.NewRegistry(), sink)
	j.mu.Lock()
	j.obsRun = run
	j.mu.Unlock()

	out, abandoned := s.superviseSynthesis(runCtx, cancel, j, run)
	sys, res, err := out.sys, out.res, out.err
	if abandoned {
		// The wedged attempt still owns the run and may yet write to it;
		// closing the sink under it would race. Leak it with the goroutine.
	} else if cerr := run.Close(); cerr != nil {
		s.logf("serve: job %s: trace close: %v", j.ID, cerr)
	}
	stopLease()
	if errors.Is(err, fleet.ErrLeaseLost) {
		// A fence surfaced through the synthesis error instead of the
		// heartbeat: record it the same way (fence is idempotent).
		s.fence(j, nil, err)
	}

	// Classify the outcome.
	j.mu.Lock()
	j.cancel = nil
	cancelled := j.cancelRequested
	if j.fenced {
		// Another node holds a higher lease epoch: it owns the job now and
		// this run's outcome is void. Persist NOTHING — the view refreshes
		// from the new holder's manifests at the next fleet sync.
		j.setStateLocked(StateQueued)
		j.started = time.Time{}
		j.err = ""
		j.lease = nil
		j.mu.Unlock()
		return
	}
	cause := context.Cause(runCtx)
	deadlineHit := errors.Is(cause, errJobDeadline) || errors.Is(err, errJobDeadline)
	if err == nil && errors.Is(cause, errWatchdogStall) && !cancelled {
		// The watchdog cancelled a cooperative run: it returned its partial
		// state cleanly, but the attempt itself failed.
		err = cause
	}
	drained := err == nil && res != nil && res.Partial && ctx.Err() != nil && !cancelled
	now := time.Now()
	var retryIn time.Duration
	switch {
	case drained:
		// Server shutdown interrupted the run mid-flight; its closing
		// checkpoint is on disk. Back to queued so the next server (or a
		// later worker, if only the context was cancelled) resumes it.
		j.setStateLocked(StateQueued)
		j.started = time.Time{}
		j.err = ""
	case deadlineHit && !cancelled:
		// A deadline miss is terminal, not retried: another attempt cannot
		// make the clock move backwards. The best-so-far partial result is
		// persisted below.
		j.setStateLocked(StateFailed)
		j.err = "job deadline exceeded (best-so-far result recorded)"
		j.finished = now
	case err != nil && !cancelled:
		// One failed execution. Within budget the job goes back to queued
		// behind an exponential backoff; past it, quarantine.
		j.attempts++
		if !s.spendLocked(j, err, now) {
			retryIn = retryDelay(s.cfg.RetryBackoff, j.attempts)
			j.setStateLocked(StateQueued)
			j.started = time.Time{}
			j.err = err.Error()
			j.notBefore = now.Add(retryIn)
		}
	case cancelled:
		j.setStateLocked(StateCancelled)
		j.err = ""
		j.finished = now
	default:
		j.setStateLocked(StateDone)
		j.err = ""
		j.finished = now
	}
	var dwellNs int64
	if s.lifecycleTracing() {
		dwellNs = j.dwellLocked(now)
	}
	snap := j.snapshotLocked()
	if snap.State.Terminal() {
		// Hide the terminal state until its artifacts are durable: a
		// client that observes "done" must find the result document, the
		// cache entry and the manifest already on disk (and the checkpoint
		// gone), whether it resubmits, restarts the server or scrapes
		// /metrics in the very next request. The snapshot carries the real
		// final state for the commit below.
		j.setStateLocked(StateRunning)
	} else if retryIn > 0 {
		s.reg.Counter("serve.jobs_retried").Inc()
	}
	j.mu.Unlock()

	if snap.State.Terminal() {
		if res != nil {
			if doc, rerr := renderResult(j, snap, sys, res); rerr == nil {
				// The result document outlives the process, so terminal
				// jobs keep serving it after a restart and on every node;
				// this process serves it from memory.
				s.checkPersist(j, "result", s.store.writeResult(j, doc))
				j.mu.Lock()
				j.doc = doc
				j.mu.Unlock()
				if snap.State == StateDone {
					s.cachePublish(j, snap, sys, res, doc)
				}
			} else {
				s.logf("serve: job %s: render result: %v", j.ID, rerr)
			}
		}
		s.commitTerminal(j, snap, StateRunning, dwellNs, snap.Err)
		return
	}
	s.persistSnap(j, snap)
	if s.lifecycleTracing() {
		if retryIn > 0 {
			s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobRetry,
				From: string(StateRunning), State: string(StateQueued),
				Attempt: snap.Attempts, DwellNs: dwellNs, Node: s.cfg.NodeID, Epoch: epoch,
				Detail: fmt.Sprintf("retrying in %v: %v", retryIn, err)})
		} else {
			// Drained back to queued for the next server (or worker).
			s.emitJobSpan(obs.JobEvent{Job: j.ID, Event: obs.JobQueued,
				From: string(StateRunning), State: string(StateQueued),
				DwellNs: dwellNs, Node: s.cfg.NodeID, Epoch: epoch, Detail: "drained"})
		}
	}
	if retryIn > 0 {
		s.logf("serve: job %s: attempt %d/%d failed (%v); retrying in %v", j.ID, snap.Attempts, s.cfg.MaxAttempts, err, retryIn)
	}
	// Drained or awaiting retry, the state is committed: the fleet lets the
	// lease go so any node can act on the job (the claim loops honour the
	// retry delay in the manifest); a single node re-enqueues after the
	// backoff.
	s.store.handBack(j, retryIn)
}

// requeueAfter re-enqueues a failed-but-retryable job once its backoff
// elapses (single-node mode; fleet retries go through the claim loop). The
// timer dies with the worker pool: a job still waiting out its backoff at
// shutdown stays queued on disk and the next server picks it up.
func (s *Server) requeueAfter(j *Job, delay time.Duration) {
	s.mu.Lock()
	ctx := s.rootCtx
	s.mu.Unlock()
	if ctx == nil { // not started (tests): run the timer unbounded
		ctx = context.Background()
	}
	s.wg.Add(1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.logf("serve: job %s: requeue timer crashed: %v", j.ID, p)
			}
		}()
		defer s.wg.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		select {
		case <-ctx.Done():
		case s.queue <- j:
			s.qDepth.Set(float64(len(s.queue)))
		}
	}()
}

// synthesize takes the job's parsed spec, decides fresh-versus-resume from
// the job's checkpoint, and runs the synthesis behind a recover barrier. A
// checkpoint that fails to load or resume degrades gracefully to a fresh
// run instead of failing the job.
func (s *Server) synthesize(ctx context.Context, j *Job, run *obs.Run) (*model.System, *synth.Result, error) {
	sys, err := j.parsedSpec()
	if err != nil {
		return nil, nil, err
	}
	if fp := j.Request.Failpoint; fp != "" {
		// Fault injection for lifecycle drills, behind Config.Failpoints
		// (enforced at admission). It replaces the synthesis so an
		// abandoned hanging attempt owns no checkpoint or trace state.
		if err := s.failpoint(ctx, j, fp); err != nil {
			return sys, nil, err
		}
	}
	// keyOptions is shared with the cache key derivation: what runs here is
	// exactly what a cache hit would have answered for.
	opts := keyOptions(&j.Request)
	opts.Context = ctx
	opts.CheckpointEvery = s.cfg.CheckpointEvery
	opts.Obs = run
	cp, err := s.store.checkpointing(j, &opts)
	switch {
	case errors.Is(err, fleet.ErrLeaseLost):
		return nil, nil, err
	case err != nil:
		s.logf("serve: job %s: unusable checkpoint, starting fresh: %v", j.ID, err)
	case cp != nil:
		opts.Resume = true
		j.mu.Lock()
		j.resumedFrom = cp.Snapshot.Generation
		j.mu.Unlock()
		s.reg.Counter("serve.jobs_resumed").Inc()
	}
	if s.lifecycleTracing() && opts.CheckpointPath != "" {
		// Wrap the save hook so every checkpoint write becomes a span
		// event carrying the save duration (dwell_ns); checkpoint events
		// do not advance the job's transition clock.
		inner := opts.CheckpointSave
		j.mu.Lock()
		epoch := leaseEpoch(j.lease)
		j.mu.Unlock()
		opts.CheckpointSave = func(p string, cp *runctl.Checkpoint) error {
			begin := time.Now()
			serr := inner(p, cp)
			e := obs.JobEvent{Job: j.ID, Event: obs.JobCheckpoint,
				State: string(StateRunning), DwellNs: time.Since(begin).Nanoseconds(),
				Node: s.cfg.NodeID, Epoch: epoch}
			if serr != nil {
				e.Detail = serr.Error()
			}
			s.emitJobSpan(e)
			return serr
		}
	}
	res, err := safeSynthesize(sys, opts)
	if err != nil && opts.Resume && !errors.Is(err, fleet.ErrLeaseLost) {
		s.logf("serve: job %s: resume failed (%v), restarting from generation 0", j.ID, err)
		_ = s.cfg.FS.Remove(opts.CheckpointPath) // best effort: the first save replaces it
		j.mu.Lock()
		j.resumedFrom = 0
		j.mu.Unlock()
		opts.Resume = false
		res, err = safeSynthesize(sys, opts)
	}
	return sys, res, err
}

// safeSynthesize is the per-job panic barrier: a defect anywhere in the
// synthesis stack fails this job, never the worker or the server.
func safeSynthesize(sys *model.System, opts synth.Options) (res *synth.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("synthesis panicked: %v", p)
		}
	}()
	return synth.Synthesize(sys, opts)
}

// ---- HTTP API ----

// Handler returns the HTTP API mux. Every route is wrapped in a
// per-endpoint latency histogram (serve.http_seconds.<method_path>); with
// Config.AccessLog set the whole mux additionally sits behind the
// structured access logger.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		hist := s.reg.Histogram("serve.http_seconds."+routeMetric(pattern), obs.DefTimeBuckets)
		mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			hist.ObserveDuration(time.Since(start))
		}))
	}
	handle("POST /v1/jobs", http.HandlerFunc(s.handleSubmit))
	handle("GET /v1/jobs", http.HandlerFunc(s.handleList))
	handle("GET /v1/jobs/{id}", http.HandlerFunc(s.handleStatus))
	handle("GET /v1/jobs/{id}/result", http.HandlerFunc(s.handleResult))
	handle("DELETE /v1/jobs/{id}", http.HandlerFunc(s.handleCancel))
	handle("POST /v1/batches", http.HandlerFunc(s.handleBatchSubmit))
	handle("GET /v1/batches/{id}", http.HandlerFunc(s.handleBatchStatus))
	handle("GET /v1/batches/{id}/results", http.HandlerFunc(s.handleBatchResults))
	handle("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	}))
	handle("GET /readyz", http.HandlerFunc(s.handleReady))
	handle("GET /metrics", s.reg)
	requests := s.reg.Counter("serve.http_requests")
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		mux.ServeHTTP(w, r)
	})
	if s.cfg.AccessLog != nil {
		h = newAccessLogger(s.cfg.AccessLog, h)
	}
	return h
}

// routeMetric renders a mux pattern as a metric-name segment:
// "GET /v1/jobs/{id}" → "get_v1_jobs_id".
func routeMetric(pattern string) string {
	out := make([]byte, 0, len(pattern))
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
		case c == '{' || c == '}':
			// drop wildcard braces: {id} → id
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	return string(out)
}

// ReadyView is the JSON body of GET /readyz: a structured readiness
// document instead of a bare string, so operators and load balancers can
// see WHY a node is degraded. Status is "ready", "degraded" (still 200:
// the node serves, but the fleet has jobs awaiting lease recovery) or
// "draining" (503).
type ReadyView struct {
	Status      string `json:"status"`
	Workers     int    `json:"workers"`
	WorkersBusy int    `json:"workers_busy"`
	QueueDepth  int    `json:"queue_depth"`
	JobsRunning int    `json:"jobs_running"`
	// Degraded lists the reasons behind a "degraded" status (empty when
	// ready): recovery skipped damaged manifests, the shed or quarantine
	// rate crossed its threshold, or the fleet has jobs awaiting recovery.
	Degraded []string `json:"degraded,omitempty"`
	// ManifestsSkipped counts damaged job manifests skipped at recovery.
	ManifestsSkipped int `json:"manifests_skipped,omitempty"`
	// ShedLastMinute and QuarantinedLastMinute are the sliding-window
	// overload signals the degradation thresholds apply to.
	ShedLastMinute        int             `json:"shed_last_minute,omitempty"`
	QuarantinedLastMinute int             `json:"quarantined_last_minute,omitempty"`
	Fleet                 *FleetReadyView `json:"fleet,omitempty"`
}

// FleetReadyView is the fleet section of ReadyView.
type FleetReadyView struct {
	Node string `json:"node"`
	// LiveNodes counts fleet nodes with an unexpired liveness heartbeat.
	LiveNodes int `json:"live_nodes"`
	// JobsAwaitingRecovery counts jobs whose latest manifest says running
	// but whose lease has lapsed: their holder died or hung, and they wait
	// for some node to claim and resume them.
	JobsAwaitingRecovery int `json:"jobs_awaiting_recovery"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	v := ReadyView{
		Status:                "ready",
		Workers:               s.cfg.Workers,
		WorkersBusy:           int(s.busy.Value()),
		QueueDepth:            int(s.qDepth.Value()),
		JobsRunning:           int(s.running.Value()),
		ManifestsSkipped:      int(s.reg.Counter("serve.manifests_skipped").Value()),
		ShedLastMinute:        s.shedWindow.count(now),
		QuarantinedLastMinute: s.quarWindow.count(now),
	}
	if v.ManifestsSkipped > 0 {
		v.Degraded = append(v.Degraded, fmt.Sprintf("recovery skipped %d damaged job manifests", v.ManifestsSkipped))
	}
	if v.ShedLastMinute >= shedDegradeThreshold {
		v.Degraded = append(v.Degraded, fmt.Sprintf("%d submissions shed in the last minute (threshold %d)", v.ShedLastMinute, shedDegradeThreshold))
	}
	if v.QuarantinedLastMinute >= quarantineDegradeThreshold {
		v.Degraded = append(v.Degraded, fmt.Sprintf("%d jobs quarantined in the last minute (threshold %d)", v.QuarantinedLastMinute, quarantineDegradeThreshold))
	}
	if s.fleetStore != nil {
		v.Fleet = &FleetReadyView{
			Node:                 s.cfg.NodeID,
			LiveNodes:            int(s.fleetLiveNodes.Value()),
			JobsAwaitingRecovery: int(s.fleetRecovering.Value()),
		}
		if s.fleetDegraded.Value() > 0 {
			v.Degraded = append(v.Degraded, "fleet has jobs awaiting lease recovery")
		}
	}
	if len(v.Degraded) > 0 {
		v.Status = "degraded"
	}
	code := http.StatusOK
	if s.Draining() {
		v.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// specNameRe validates named-spec references before they touch the
// filesystem.
var specNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// SubmitView is the JSON body answering POST /v1/jobs.
type SubmitView struct {
	StatusView
	// Warnings are the spec reader's semantic lint findings (probability
	// normalisation, ...); the job runs on the normalised spec.
	Warnings []string `json:"warnings,omitempty"`
}

// maybeShed applies overload-aware admission: a submission carrying a
// deadline the server cannot plausibly meet — given the queue backlog and
// the observed per-job service time — is answered 429 with a Retry-After
// hint instead of queued to certain failure. It reports whether the
// response was written. With no service-time observations yet the server
// admits rather than guessing.
// admitError is an admission or validation failure that has not been written
// to a response yet, so batch expansion can record it per cell while the
// single-job path renders it as the usual HTTP error.
type admitError struct {
	status     int
	retryAfter string // Retry-After header value, when applicable
	msg        string
}

func (e *admitError) Error() string { return e.msg }

func admitErrorf(status int, format string, args ...any) *admitError {
	return &admitError{status: status, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) writeAPIError(w http.ResponseWriter, e *admitError) {
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	writeError(w, e.status, "%s", e.msg)
}

// shedCheck applies deadline-aware admission shedding: a request carrying a
// deadline the server cannot plausibly meet — given the queue backlog and
// the observed per-job service time — is refused with a Retry-After hint
// instead of queued to certain failure. With no service-time observations
// yet the server admits rather than guessing.
func (s *Server) shedCheck(req *JobRequest, queued int) *admitError {
	if req.DeadlineMS <= 0 {
		return nil
	}
	wait, ok := s.estimateWait(queued)
	if !ok {
		return nil
	}
	budget := time.Duration(req.DeadlineMS) * time.Millisecond
	if wait <= budget {
		return nil
	}
	s.reg.Counter("serve.jobs_shed").Inc()
	s.shedWindow.record(time.Now())
	e := admitErrorf(http.StatusTooManyRequests,
		"deadline of %dms cannot be met (estimated completion in %v with %d jobs queued); shed at admission",
		req.DeadlineMS, wait.Round(time.Millisecond), queued)
	e.retryAfter = s.shedRetryAfter(wait)
	return e
}

// validateJob checks a decoded request and resolves spec_name to the spec
// text in place. It owns every per-request check that does not need the
// parsed system model.
func (s *Server) validateJob(req *JobRequest) *admitError {
	switch {
	case req.Spec == "" && req.SpecName == "":
		return admitErrorf(http.StatusBadRequest, "one of spec or spec_name is required")
	case req.Spec != "" && req.SpecName != "":
		return admitErrorf(http.StatusBadRequest, "spec and spec_name are mutually exclusive")
	}
	if aerr := checkBudgets(req); aerr != nil {
		return aerr
	}
	if req.Failpoint != "" {
		if !s.cfg.Failpoints {
			return admitErrorf(http.StatusBadRequest, "failpoints are not enabled on this server")
		}
		if !validFailpoint(req.Failpoint) {
			return admitErrorf(http.StatusBadRequest, "unknown failpoint %q", req.Failpoint)
		}
	}
	// A zero GA field takes the engine default here, so the request names
	// the budget it runs and its cache key is the key of the same budget
	// asked for explicitly. The server's generation cap only lowers it.
	req.GA = GAParams(ga.Config(req.GA).WithDefaults())
	if limit := s.cfg.MaxGenerations; limit > 0 && req.GA.MaxGenerations > limit {
		req.GA.MaxGenerations = limit
	}
	if req.SpecName != "" {
		if s.cfg.SpecDir == "" {
			return admitErrorf(http.StatusBadRequest, "this server has no spec directory; submit an inline spec")
		}
		if !specNameRe.MatchString(req.SpecName) {
			return admitErrorf(http.StatusBadRequest, "invalid spec_name %q", req.SpecName)
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.SpecDir, req.SpecName+".spec"))
		if err != nil {
			return admitErrorf(http.StatusNotFound, "unknown spec %q", req.SpecName)
		}
		req.Spec = string(data)
	}
	return nil
}

// checkBudgets refuses a request's negative budgets. A negative deadline,
// GA budget or stall window means nothing, and admitted it would run the
// engine default under a cache key of its own.
func checkBudgets(req *JobRequest) *admitError {
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"deadline_ms", req.DeadlineMS},
		{"ga.pop_size", int64(req.GA.PopSize)},
		{"ga.max_generations", int64(req.GA.MaxGenerations)},
		{"ga.stagnation", int64(req.GA.Stagnation)},
		{"stall_window", int64(req.StallWindow)},
	} {
		if f.v < 0 {
			return admitErrorf(http.StatusBadRequest, "%s must not be negative", f.name)
		}
	}
	return nil
}

// submit answers one validated request: from the result cache when key
// names an entry that can be served, else by admitting a fresh job that
// carries key to its terminal commit, which publishes the result under it.
// An empty key means the request is uncacheable. A hit consumes no queue
// slot and no worker, so it bypasses backlog bounds and shedding. It
// reports whether the job came from the cache.
func (s *Server) submit(req JobRequest, sys *model.System, key string) (*Job, bool, *admitError) {
	if key != "" {
		if e, hit := s.cache.Get(key); hit {
			j, aerr := s.materializeCached(req, sys.App.Name, e)
			if aerr != nil || j != nil {
				return j, j != nil, aerr
			}
			// The hit could not be materialised; run the job for real.
		}
	}
	j, aerr := s.admitJob(req, sys, key)
	return j, false, aerr
}

// admitJob admits one validated job: it refuses while draining, bounds
// the backlog of jobs waiting to start, sheds deadlines that cannot be
// met, creates the job with its queued manifest and hands it to execution,
// and emits the submitted counter and lifecycle span. The queued manifest
// is durable before a worker can see the job: once dispatched a worker may
// take it to running (or even terminal), and a stale queued write landing
// afterwards would clobber the newer state.
func (s *Server) admitJob(req JobRequest, sys *model.System, key string) (*Job, *admitError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, admitErrorf(http.StatusServiceUnavailable, "server is shutting down")
	}
	queued, limit := s.store.backlog()
	if queued >= limit {
		return nil, s.queueFull(queued)
	}
	if e := s.shedCheck(&req, queued); e != nil {
		return nil, e
	}
	id, err := s.store.newJobID()
	if err != nil {
		return nil, admitErrorf(http.StatusInternalServerError, "job id: %v", err)
	}
	j := &Job{ID: id, Request: req, system: sys.App.Name, key: key, sys: sys}
	j.state = StateQueued
	j.created = time.Now()
	if err := s.store.create(j, nil); err != nil {
		return nil, admitErrorf(http.StatusInternalServerError, "create job %s: %v", id, err)
	}
	// A worker locks j.mu before its attempt span, so holding j.mu until
	// the submitted span is out keeps the job's span stream in order.
	j.mu.Lock()
	if !s.store.dispatch(j) {
		j.mu.Unlock()
		return nil, s.queueFull(limit)
	}
	if s.lifecycleTracing() {
		s.emitJobSpan(obs.JobEvent{Job: id, Event: obs.JobSubmitted,
			State: string(StateQueued), Node: s.cfg.NodeID})
	}
	j.mu.Unlock()
	s.addJobLocked(j)
	s.reg.Counter("serve.jobs_submitted").Inc()
	return j, nil
}

// queueFull refuses a submission for lack of room among the jobs waiting
// to start.
func (s *Server) queueFull(waiting int) *admitError {
	s.reg.Counter("serve.jobs_rejected").Inc()
	e := admitErrorf(http.StatusTooManyRequests, "queue full (%d jobs waiting); retry later", waiting)
	e.retryAfter = "1"
	return e
}

// respondSubmit writes the 202 accepted view for a freshly admitted (or
// cache-materialised) job.
func respondSubmit(w http.ResponseWriter, j *Job, warns []specio.Warning) {
	view := SubmitView{StatusView: j.status(j.system)}
	for _, wn := range warns {
		view.Warnings = append(view.Warnings, wn.String())
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// readJSON reads a request body of at most limit bytes and decodes it
// strictly into v: an unknown field is an error, not ignored. On failure
// it writes the 400 or 413 itself and reports false.
func readJSON(w http.ResponseWriter, r *http.Request, limit int, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(body) > limit {
		writeError(w, http.StatusRequestEntityTooLarge, "request exceeds %d bytes", limit)
		return false
	}
	dec := json.NewDecoder(bytesReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !readJSON(w, r, maxSpecBytes, &req) {
		return
	}
	if aerr := s.validateJob(&req); aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	// Reject malformed specs at the door, with the reader's line-numbered
	// diagnostics, rather than burning a worker on them.
	sys, warns, err := specio.ReadWarnString(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "spec: %v", err)
		return
	}
	j, _, aerr := s.submit(req, sys, s.cacheKey(s.canonicalSpec(sys), &req))
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	respondSubmit(w, j, warns)
}

// ListView is the JSON body answering GET /v1/jobs. Next, when present,
// is the offset cursor of the following page; clients (Client.ListAll)
// follow it until it disappears.
type ListView struct {
	Jobs   []StatusView `json:"jobs"`
	Total  int          `json:"total"`
	Offset int          `json:"offset"`
	Limit  int          `json:"limit"`
	Next   string       `json:"next,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	offset, err := queryInt(r, "offset", 0)
	if err == nil && offset < 0 {
		err = errors.New("negative")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "offset: %v", err)
		return
	}
	limit, err := queryInt(r, "limit", 50)
	if err == nil && (limit <= 0 || limit > 500) {
		err = errors.New("must be in [1,500]")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "limit: %v", err)
		return
	}
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	page := make([]*Job, 0, limit)
	for i := offset; i < len(ids) && len(page) < limit; i++ {
		page = append(page, s.jobs[ids[i]])
	}
	s.mu.Unlock()
	view := ListView{Jobs: make([]StatusView, 0, len(page)), Total: len(ids), Offset: offset, Limit: limit}
	for _, j := range page {
		view.Jobs = append(view.Jobs, j.status(j.system))
	}
	if next := offset + len(page); next < len(ids) {
		view.Next = strconv.Itoa(next)
	}
	writeJSON(w, http.StatusOK, view)
}

// lookup resolves the {id} path segment, writing the 404 itself on a miss.
// In fleet mode a job this node has not synced yet is adopted first, so a
// job created on another node is visible everywhere as soon as it exists.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	if !validJobID(id) {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil && s.fleetStore != nil {
		j = s.adopt(id)
	}
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status(j.system))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	state := j.snapshot().State
	if !state.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; no result yet", j.ID, state)
		return
	}
	doc := s.resultDoc(j)
	if doc == nil {
		writeError(w, http.StatusConflict, "job %s is %s and produced no result", j.ID, state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// resultDoc returns a terminal job's result document: the one committed
// in this process, else the persisted copy; nil when it has none.
func (s *Server) resultDoc(j *Job) []byte {
	j.mu.Lock()
	doc := j.doc
	j.mu.Unlock()
	if doc != nil {
		return doc
	}
	return s.store.readResult(j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if state := j.snapshot().State; state.Terminal() {
		writeError(w, http.StatusConflict, "job %s is already %s", j.ID, state)
		return
	}
	held, err := s.store.requestCancel(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "cancel %s: %v", j.ID, err)
		return
	}
	if held {
		// A queued job turns terminal on the spot; a running one stops at
		// its next generation boundary and its worker commits it.
		if state, changed := j.requestCancel(errors.New("cancelled by client")); changed && state == StateCancelled {
			s.commitCancel(j)
		}
	}
	writeJSON(w, http.StatusAccepted, j.status(j.system))
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}
