package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"momosyn/internal/serve"
)

// failingJob is a quick job carrying a fault injection.
func failingJob(spec string, seed int64, failpoint string) serve.JobRequest {
	req := quickJob(spec, seed)
	req.Failpoint = failpoint
	return req
}

// startServer builds and starts a server whose workers stop at test end.
// Cleanup drains the pool rather than just cancelling: a worker still
// persisting a job after the test returns would race the TempDir removal
// and log into a completed test.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *api) {
	t.Helper()
	s := newServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		if err := s.Shutdown(dctx); err != nil {
			t.Errorf("draining server at test end: %v", err)
		}
	})
	s.Start(ctx)
	return s, newAPI(t, s)
}

// TestRetryThenSuccess: a transient failure consumes one attempt, the job
// retries after its backoff and completes. The persisted attempt counter
// and retry metrics must both tell that story.
func TestRetryThenSuccess(t *testing.T) {
	spec := tinySpec(t)
	_, a := startServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		MaxAttempts: 3, RetryBackoff: time.Millisecond,
		Failpoints: true,
	})

	// fail:1 fails while the attempt counter is below 1, then heals.
	j := a.submit(failingJob(spec, 11, "fail:1"))
	v := a.await(j.ID, "done after one retry", stateIs(serve.StateDone))
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (one failed execution)", v.Attempts)
	}
	if got := metricValue(t, a, "serve.jobs_retried"); got != 1 {
		t.Fatalf("serve.jobs_retried = %v, want 1", got)
	}
	if got := metricValue(t, a, "serve.attempts_total"); got != 2 {
		t.Fatalf("serve.attempts_total = %v, want 2", got)
	}
	if got := metricValue(t, a, "serve.jobs_quarantined"); got != 0 {
		t.Fatalf("serve.jobs_quarantined = %v, want 0", got)
	}
	// The healed job has a real result.
	if resp := a.do("GET", "/v1/jobs/"+j.ID+"/result", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("result after retry: status %d", resp.StatusCode)
	}
}

// TestRetryAtExposedWhileBackingOff: between a failed attempt and its
// retry the status view names the time the job becomes runnable again.
func TestRetryAtExposedWhileBackingOff(t *testing.T) {
	spec := tinySpec(t)
	_, a := startServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		MaxAttempts: 3, RetryBackoff: 30 * time.Second, // parked, effectively
		Failpoints: true,
	})

	j := a.submit(failingJob(spec, 12, "fail"))
	v := a.await(j.ID, "queued for retry", func(v serve.StatusView) bool {
		return v.State == serve.StateQueued && v.Attempts == 1
	})
	if v.RetryAt == "" {
		t.Fatalf("backing-off job exposes no retry_at: %+v", v)
	}
	at, err := time.Parse(time.RFC3339Nano, v.RetryAt)
	if err != nil {
		t.Fatalf("retry_at %q: %v", v.RetryAt, err)
	}
	if until := time.Until(at); until <= 0 || until > 31*time.Second {
		t.Fatalf("retry_at %v from now, want within (0, 31s]", until)
	}
	if v.Error == "" {
		t.Fatalf("backing-off job hides its last failure: %+v", v)
	}
}

// TestPoisonJobQuarantined: a job that fails every execution must land in
// quarantined after exactly MaxAttempts executions — terminal, counted,
// with the last failure recorded — and must degrade readiness.
func TestPoisonJobQuarantined(t *testing.T) {
	spec := tinySpec(t)
	_, a := startServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		MaxAttempts: 2, RetryBackoff: time.Millisecond,
		Failpoints: true,
	})

	j := a.submit(failingJob(spec, 13, "panic"))
	v := a.await(j.ID, "quarantined", stateIs(serve.StateQuarantined))
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want exactly the budget of 2", v.Attempts)
	}
	if !strings.Contains(v.Error, "quarantined after 2 failed attempts") {
		t.Fatalf("quarantine cause not recorded: %q", v.Error)
	}
	if got := metricValue(t, a, "serve.attempts_total"); got != 2 {
		t.Fatalf("serve.attempts_total = %v, want 2 (budget exhausted, no third run)", got)
	}
	eventually(t, "serve.jobs_quarantined = 1", func() bool {
		return metricValue(t, a, "serve.jobs_quarantined") == 1
	})
	if got := metricValue(t, a, "serve.jobs_retried"); got != 1 {
		t.Fatalf("serve.jobs_retried = %v, want 1 (only the first failure retried)", got)
	}

	// Quarantined is terminal: no result, no cancellation, state stable.
	if resp := a.do("GET", "/v1/jobs/"+j.ID+"/result", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of quarantined job: status %d, want 409", resp.StatusCode)
	}
	if resp := a.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of quarantined job: status %d, want 409", resp.StatusCode)
	}

	eventually(t, "readyz degraded by the quarantine", func() bool {
		var ready serve.ReadyView
		a.do("GET", "/readyz", nil, &ready)
		return ready.Status == "degraded" && ready.QuarantinedLastMinute >= 1
	})

	// The pool is not poisoned: a healthy job behind the quarantine runs.
	good := a.submit(quickJob(spec, 14))
	a.await(good.ID, "healthy job done", stateIs(serve.StateDone))
}

// TestRecoveryQuarantinesCrashLoop: a running manifest whose attempt
// budget dies with the server must come back quarantined — without a
// single further execution. This is the restart half of the crash-loop
// defence: the process that keeps dying never gets a fourth run.
func TestRecoveryQuarantinesCrashLoop(t *testing.T) {
	dataDir := t.TempDir()
	spec := tinySpec(t)

	// Hand-write what a twice-failed, mid-third-attempt job leaves behind
	// when its server dies: a running manifest carrying attempts=2.
	dir := filepath.Join(dataDir, "jobs", "j000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	req, err := json.Marshal(quickJob(spec, 15))
	if err != nil {
		t.Fatal(err)
	}
	man := []byte(`{"id":"j000001","request":` + string(req) +
		`,"state":"running","created":"2026-08-08T00:00:00Z","attempts":2,"error":"synthesis panicked"}`)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), man, 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery alone decides: the server is never started, so a running
	// state below could only mean a re-enqueued execution.
	s := newServer(t, serve.Config{DataDir: dataDir, MaxAttempts: 3})
	a := newAPI(t, s)
	v := a.status("j000001")
	if v.State != serve.StateQuarantined {
		t.Fatalf("recovered crash-looper is %s, want quarantined", v.State)
	}
	if v.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (the interrupted run counts)", v.Attempts)
	}
	if !strings.Contains(v.Error, "died with the server") || !strings.Contains(v.Error, "synthesis panicked") {
		t.Fatalf("quarantine cause lost the history: %q", v.Error)
	}
	if got := metricValue(t, a, "serve.jobs_quarantined"); got != 1 {
		t.Fatalf("serve.jobs_quarantined = %v, want 1", got)
	}
	if got := metricValue(t, a, "serve.jobs_requeued"); got != 0 {
		t.Fatalf("serve.jobs_requeued = %v, want 0", got)
	}

	// The decision is durable: the next restart sees a terminal manifest.
	s2 := newServer(t, serve.Config{DataDir: dataDir, MaxAttempts: 3})
	a2 := newAPI(t, s2)
	if v := a2.status("j000001"); v.State != serve.StateQuarantined || v.Attempts != 3 {
		t.Fatalf("second recovery: state %s attempts %d, want quarantined/3", v.State, v.Attempts)
	}
	if got := metricValue(t, a2, "serve.jobs_quarantined"); got != 0 {
		t.Fatalf("terminal manifest re-counted as a fresh quarantine: %v", got)
	}
}

// TestJobTimeout: an attempt over its wall-clock budget fails terminally
// (the clock cannot move backwards, so no retry) with its best-so-far
// partial result preserved.
func TestJobTimeout(t *testing.T) {
	long := bigSpec(t)
	_, a := startServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		JobTimeout: 300 * time.Millisecond,
	})

	j := a.submit(longJob(long, 16))
	v := a.await(j.ID, "deadline failure", stateIs(serve.StateFailed))
	if !strings.Contains(v.Error, "deadline exceeded") {
		t.Fatalf("error = %q, want a deadline explanation", v.Error)
	}
	if v.Attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (deadline misses are not retried)", v.Attempts)
	}
	if got := metricValue(t, a, "serve.jobs_retried"); got != 0 {
		t.Fatalf("serve.jobs_retried = %v, want 0", got)
	}
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+j.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("best-so-far result: status %d, want 200", resp.StatusCode)
	}
	if !res.Partial {
		t.Fatalf("deadline result not marked partial: %+v", res)
	}
}

// TestDeadlineShed: once the server has an observed service time, a
// submission whose deadline cannot be met given the backlog is refused at
// admission — 429 with a Retry-After hint — instead of being accepted
// into certain failure.
func TestDeadlineShed(t *testing.T) {
	spec := tinySpec(t)
	long := bigSpec(t)
	_, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8})

	// Seed the service-time estimate, then fill the worker and the queue.
	warm := a.submit(quickJob(spec, 17))
	a.await(warm.ID, "estimator seeded", stateIs(serve.StateDone))
	b1 := a.submit(longJob(long, 18))
	a.await(b1.ID, "worker occupied", stateIs(serve.StateRunning))
	a.submit(longJob(long, 19))

	// A 1ms deadline behind that backlog is unmeetable: shed. The tenth
	// shed within a minute reaches the degradation threshold.
	for i := 1; i <= 10; i++ {
		doomed := failingJob(spec, 20, "") // plain quick job
		doomed.DeadlineMS = 1
		resp := a.do("POST", "/v1/jobs", doomed, nil)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("unmeetable deadline %d: status %d, want 429", i, resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("shed without a usable Retry-After: %q", resp.Header.Get("Retry-After"))
		}
		var ready serve.ReadyView
		a.do("GET", "/readyz", nil, &ready)
		if i < 10 && ready.Status != "ready" {
			t.Fatalf("readyz after %d sheds = %+v, want ready below the threshold of 10", i, ready)
		}
		if i == 10 && (ready.Status != "degraded" || ready.ShedLastMinute < 10) {
			t.Fatalf("readyz after 10 sheds = %+v, want degraded with shed_last_minute >= 10", ready)
		}
	}
	if got := metricValue(t, a, "serve.jobs_shed"); got != 10 {
		t.Fatalf("serve.jobs_shed = %v, want 10", got)
	}

	// A generous deadline on the same backlog is admitted.
	patient := quickJob(spec, 21)
	patient.DeadlineMS = int64((10 * time.Minute).Milliseconds())
	if resp := a.do("POST", "/v1/jobs", patient, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("meetable deadline: status %d, want 202", resp.StatusCode)
	}
}

// TestWatchdogCooperativeStall: an attempt making no GA progress is
// cancelled by the watchdog; when it honours the cancellation the failure
// consumes an attempt like any other and the slot frees immediately.
func TestWatchdogCooperativeStall(t *testing.T) {
	spec := tinySpec(t)
	_, a := startServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		MaxAttempts: 1, Failpoints: true,
		WatchdogStall: 250 * time.Millisecond, WatchdogGrace: 10 * time.Second,
	})

	j := a.submit(failingJob(spec, 22, "hang-coop"))
	v := a.await(j.ID, "watchdog quarantine", stateIs(serve.StateQuarantined))
	if !strings.Contains(v.Error, "watchdog") {
		t.Fatalf("error = %q, want the watchdog named", v.Error)
	}
	if got := metricValue(t, a, "serve.watchdog_kills"); got != 1 {
		t.Fatalf("serve.watchdog_kills = %v, want 1", got)
	}
	// The slot is free: a healthy job completes behind the stall.
	good := a.submit(quickJob(spec, 23))
	a.await(good.ID, "healthy job after stall", stateIs(serve.StateDone))
}

// TestWatchdogAbandonsWedgedAttempt: an attempt that ignores cancellation
// is abandoned after the grace period — the worker slot is reclaimed even
// though the goroutine is unrecoverable. (The wedged goroutine leaks by
// design; the test proves the pool keeps serving regardless.)
func TestWatchdogAbandonsWedgedAttempt(t *testing.T) {
	spec := tinySpec(t)
	_, a := startServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		MaxAttempts: 1, Failpoints: true,
		WatchdogStall: 250 * time.Millisecond, WatchdogGrace: 250 * time.Millisecond,
	})

	j := a.submit(failingJob(spec, 24, "hang"))
	v := a.await(j.ID, "abandoned quarantine", stateIs(serve.StateQuarantined))
	if !strings.Contains(v.Error, "slot abandoned") {
		t.Fatalf("error = %q, want the abandonment named", v.Error)
	}
	if got := metricValue(t, a, "serve.watchdog_kills"); got != 1 {
		t.Fatalf("serve.watchdog_kills = %v, want 1", got)
	}
	// The abandoned slot was reclaimed: the only worker takes new work.
	good := a.submit(quickJob(spec, 25))
	a.await(good.ID, "healthy job after abandonment", stateIs(serve.StateDone))
}

// TestSubmitValidationRejects: malformed budgets and ungated or unknown
// fault injections are client errors, not accepted jobs.
func TestSubmitValidationRejects(t *testing.T) {
	spec := tinySpec(t)

	t.Run("negative deadline", func(t *testing.T) {
		_, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8})
		bad := quickJob(spec, 26)
		bad.DeadlineMS = -5
		if resp := a.do("POST", "/v1/jobs", bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("negative deadline_ms: status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("failpoints gated", func(t *testing.T) {
		_, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8})
		if resp := a.do("POST", "/v1/jobs", failingJob(spec, 27, "panic"), nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("failpoint without -failpoints: status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown failpoint", func(t *testing.T) {
		_, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8, Failpoints: true})
		if resp := a.do("POST", "/v1/jobs", failingJob(spec, 28, "explode"), nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown failpoint: status %d, want 400", resp.StatusCode)
		}
	})
}

// TestRecoverySkipDegradesReadiness: damaged manifests skipped at recovery
// must be visible — a counter, and a named reason on /readyz — not just a
// log line scrolling past.
func TestRecoverySkipDegradesReadiness(t *testing.T) {
	dataDir := t.TempDir()
	bad := filepath.Join(dataDir, "jobs", "j000042")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "manifest.json"), []byte(`{"id":"j000001","state":"queued"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, serve.Config{DataDir: dataDir})
	a := newAPI(t, s)
	if got := metricValue(t, a, "serve.manifests_skipped"); got != 1 {
		t.Fatalf("serve.manifests_skipped = %v, want 1", got)
	}
	var ready serve.ReadyView
	a.do("GET", "/readyz", nil, &ready)
	if ready.Status != "degraded" || ready.ManifestsSkipped != 1 {
		t.Fatalf("readyz = %+v, want degraded with manifests_skipped 1", ready)
	}
	found := false
	for _, r := range ready.Degraded {
		if strings.Contains(r, "damaged job manifests") {
			found = true
		}
	}
	if !found {
		t.Fatalf("degraded reasons %v name no manifest damage", ready.Degraded)
	}
}
