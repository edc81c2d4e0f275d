package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"momosyn/internal/gen"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/serve"
	"momosyn/internal/specio"
)

// tinySpec renders a two-mode, two-PE specification whose synthesis
// finishes in milliseconds.
func tinySpec(t *testing.T) string {
	t.Helper()
	b := model.NewBuilder("servetest")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8, StaticPower: 1e-4})
	b.AddPE(model.PE{Name: "hw", Class: model.ASIC, Vmax: 3.3, Vt: 0.8, Area: 400, StaticPower: 5e-4})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6, StaticPower: 1e-5}, "cpu", "hw")
	b.AddType("shared",
		model.ImplSpec{PE: "cpu", Time: 10e-3, Power: 4e-3},
		model.ImplSpec{PE: "hw", Time: 1e-3, Power: 0.2e-3, Area: 150},
	)
	b.AddType("swonly", model.ImplSpec{PE: "cpu", Time: 5e-3, Power: 2e-3})
	b.BeginMode("m0", 0.7, 0.1)
	b.AddTask("a", "shared", 0)
	b.AddTask("b", "swonly", 0)
	b.AddEdge("a", "b", 500)
	b.BeginMode("m1", 0.3, 0.1)
	b.AddTask("a", "shared", 0)
	b.AddTask("c", "swonly", 0)
	b.AddEdge("a", "c", 500)
	b.AddTransition("m0", "m1", 0.02)
	b.AddTransition("m1", "m0", 0.02)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return writeSpec(t, sys)
}

// bigSpec renders a generated instance large enough that a
// high-generation-limit synthesis runs for many seconds — the "long job"
// for cancellation and restart tests (it is never allowed to finish).
func bigSpec(t *testing.T) string {
	t.Helper()
	sys, err := gen.Generate(gen.NewParams(3))
	if err != nil {
		t.Fatal(err)
	}
	return writeSpec(t, sys)
}

func writeSpec(t *testing.T, sys *model.System) string {
	t.Helper()
	var buf bytes.Buffer
	if err := specio.Write(&buf, sys); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newServer builds a Server over a temp data dir without starting its
// workers (tests that need execution call Start themselves).
func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// api wraps an httptest server over the job API.
type api struct {
	t  *testing.T
	ts *httptest.Server
}

func newAPI(t *testing.T, s *serve.Server) *api {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &api{t: t, ts: ts}
}

// do issues a request and decodes the JSON body into out (when non-nil).
func (a *api) do(method, path string, body any, out any) *http.Response {
	a.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			a.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, a.ts.URL+path, rd)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			a.t.Fatalf("%s %s: decode response: %v", method, path, err)
		}
	}
	return resp
}

// submit posts a job and fails the test unless the server accepts it.
func (a *api) submit(req serve.JobRequest) serve.SubmitView {
	a.t.Helper()
	var view serve.SubmitView
	resp := a.do("POST", "/v1/jobs", req, &view)
	if resp.StatusCode != http.StatusAccepted {
		a.t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+view.ID {
		a.t.Fatalf("submit: Location %q for job %s", loc, view.ID)
	}
	return view
}

// status fetches a job's status view.
func (a *api) status(id string) serve.StatusView {
	a.t.Helper()
	var view serve.StatusView
	resp := a.do("GET", "/v1/jobs/"+id, nil, &view)
	if resp.StatusCode != http.StatusOK {
		a.t.Fatalf("status %s: status %d", id, resp.StatusCode)
	}
	return view
}

// await polls a job until pred holds or the deadline passes.
func (a *api) await(id string, what string, pred func(serve.StatusView) bool) serve.StatusView {
	a.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := a.status(id)
		if pred(v) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.t.Fatalf("job %s: timed out waiting for %s (last state %+v)", id, what, a.status(id))
	return serve.StatusView{}
}

func stateIs(want serve.State) func(serve.StatusView) bool {
	return func(v serve.StatusView) bool { return v.State == want }
}

// metricValue digs one counter or gauge out of a /metrics snapshot.
func metricValue(t *testing.T, a *api, name string) float64 {
	t.Helper()
	var snap struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	resp := a.do("GET", "/metrics", nil, &snap)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if v, ok := snap.Counters[name]; ok {
		return v
	}
	return snap.Gauges[name]
}

// quickJob is a synthesis request that converges almost immediately.
func quickJob(spec string, seed int64) serve.JobRequest {
	return serve.JobRequest{
		Spec: spec,
		Seed: seed,
		GA:   serve.GAParams{PopSize: 12, MaxGenerations: 25, Stagnation: 10},
	}
}

// longJob is a synthesis request sized to run until cancelled.
func longJob(spec string, seed int64) serve.JobRequest {
	return serve.JobRequest{
		Spec: spec,
		Seed: seed,
		GA:   serve.GAParams{PopSize: 48, MaxGenerations: 1_000_000, Stagnation: 1_000_000},
	}
}

// TestLifecycle is the end-to-end happy path the issue demands: two jobs in
// flight on a two-worker pool with a third queued behind them, a mid-run
// cancellation, certified results and a clean drain.
func TestLifecycle(t *testing.T) {
	spec := tinySpec(t)
	long := bigSpec(t)
	s := newServer(t, serve.Config{Workers: 2, QueueDepth: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	a := newAPI(t, s)

	// Two long jobs occupy both workers...
	j1 := a.submit(longJob(long, 1))
	j2 := a.submit(longJob(long, 2))
	a.await(j1.ID, "running", stateIs(serve.StateRunning))
	a.await(j2.ID, "running", stateIs(serve.StateRunning))

	// ...so a third job queues behind them.
	j3 := a.submit(quickJob(spec, 3))
	if v := a.status(j3.ID); v.State != serve.StateQueued {
		t.Fatalf("job %s state = %s, want queued behind the busy pool", j3.ID, v.State)
	}

	// Live progress: the first long job reports advancing generations.
	v := a.await(j1.ID, "progress", func(v serve.StatusView) bool {
		return v.Progress != nil && v.Progress.Generation >= 2
	})
	if v.Progress.BestFitness <= 0 {
		t.Fatalf("job %s progress without fitness: %+v", j1.ID, v.Progress)
	}

	// Cancel both long jobs mid-run; they stop at a generation boundary.
	for _, id := range []string{j1.ID, j2.ID} {
		resp := a.do("DELETE", "/v1/jobs/"+id, nil, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
	}
	a.await(j1.ID, "cancelled", stateIs(serve.StateCancelled))
	a.await(j2.ID, "cancelled", stateIs(serve.StateCancelled))

	// Cancelling a terminal job is a conflict.
	if resp := a.do("DELETE", "/v1/jobs/"+j1.ID, nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409", resp.StatusCode)
	}

	// The freed workers run the queued job to certified completion.
	a.await(j3.ID, "done", stateIs(serve.StateDone))
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+j3.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.State != serve.StateDone || !res.Feasible || res.Generations == 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("job %s finished without certification: %+v", j3.ID, res.Certification)
	}
	if len(res.Modes) != 2 || len(res.Mapping) != 2 {
		t.Fatalf("result has %d modes, %d mappings, want 2/2", len(res.Modes), len(res.Mapping))
	}

	// A cancelled job still serves its best-so-far partial result.
	var part serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+j1.ID+"/result", nil, &part); resp.StatusCode != http.StatusOK {
		t.Fatalf("partial result: status %d", resp.StatusCode)
	}
	if !part.Partial || part.State != serve.StateCancelled {
		t.Fatalf("partial result: partial=%v state=%s", part.Partial, part.State)
	}

	// The metrics endpoint accounts for everything that happened.
	if got := metricValue(t, a, "serve.jobs_submitted"); got != 3 {
		t.Fatalf("serve.jobs_submitted = %v, want 3", got)
	}
	if got := metricValue(t, a, "serve.jobs_cancelled"); got != 2 {
		t.Fatalf("serve.jobs_cancelled = %v, want 2", got)
	}
	if got := metricValue(t, a, "serve.jobs_done"); got != 1 {
		t.Fatalf("serve.jobs_done = %v, want 1", got)
	}

	// Clean drain: all workers exit well before the deadline.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if resp := a.do("GET", "/readyz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if resp := a.do("POST", "/v1/jobs", quickJob(spec, 9), &apiErr); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestSubmitValidation exercises the request-rejection paths.
func TestSubmitValidation(t *testing.T) {
	spec := tinySpec(t)
	s := newServer(t, serve.Config{})
	a := newAPI(t, s) // workers never started: validation needs none

	cases := []struct {
		name string
		body string
		code int
		frag string
	}{
		{"empty", `{}`, http.StatusBadRequest, "one of spec or spec_name"},
		{"both", `{"spec":"x","spec_name":"y"}`, http.StatusBadRequest, "mutually exclusive"},
		{"unknown-field", `{"spec":"x","bogus":1}`, http.StatusBadRequest, "bogus"},
		// Stochastic schedule refinement is gone; its knob is refused, not ignored.
		{"refine-iterations", `{"spec":"x","refine_iterations":4}`, http.StatusBadRequest, "refine_iterations"},
		{"malformed-json", `{"spec":`, http.StatusBadRequest, "request body"},
		{"bad-spec", `{"spec":"pe cpu class=gpp\nfrobnicate"}`, http.StatusBadRequest, "line 2"},
		{"no-spec-dir", `{"spec_name":"mul1"}`, http.StatusBadRequest, "no spec directory"},
		// A negative budget is refused, not run as the engine default under
		// a key of its own.
		{"negative-pop", `{"spec":"x","ga":{"pop_size":-1}}`, http.StatusBadRequest, "ga.pop_size must not be negative"},
		{"negative-gens", `{"spec":"x","ga":{"max_generations":-1}}`, http.StatusBadRequest, "ga.max_generations must not be negative"},
		{"negative-stagnation", `{"spec":"x","ga":{"stagnation":-1}}`, http.StatusBadRequest, "ga.stagnation must not be negative"},
		{"negative-stall", `{"spec":"x","stall_window":-1}`, http.StatusBadRequest, "stall_window must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(a.ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var apiErr struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.code, apiErr.Error)
			}
			if !strings.Contains(apiErr.Error, tc.frag) {
				t.Fatalf("error %q does not mention %q", apiErr.Error, tc.frag)
			}
		})
	}

	// A valid submission reports the reader's lint warnings.
	warned := strings.Replace(spec, "prob=0.7", "prob=0.6", 1)
	view := a.submit(serve.JobRequest{Spec: warned, Seed: 1})
	if len(view.Warnings) == 0 || !strings.Contains(view.Warnings[0], "normalising") {
		t.Fatalf("warnings = %q, want probability normalisation", view.Warnings)
	}

	// Unknown and malformed job IDs 404 on every job endpoint.
	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/evil..id", "/v1/jobs/j1/result"} {
		if resp := a.do("GET", path, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestBackpressure fills the bounded queue (no workers are draining it) and
// expects 429 with a Retry-After hint, leaving no orphaned job state.
func TestBackpressure(t *testing.T) {
	spec := tinySpec(t)
	s := newServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	a := newAPI(t, s)

	a.submit(quickJob(spec, 1))
	a.submit(quickJob(spec, 2))
	var apiErr struct {
		Error string `json:"error"`
	}
	resp := a.do("POST", "/v1/jobs", quickJob(spec, 3), &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(apiErr.Error, "queue full") {
		t.Fatalf("error %q", apiErr.Error)
	}
	var list serve.ListView
	a.do("GET", "/v1/jobs", nil, &list)
	if list.Total != 2 {
		t.Fatalf("rejected job leaked into the table: total = %d, want 2", list.Total)
	}
	if got := metricValue(t, a, "serve.jobs_rejected"); got != 1 {
		t.Fatalf("serve.jobs_rejected = %v, want 1", got)
	}
	if got := metricValue(t, a, "serve.queue_depth"); got != 2 {
		t.Fatalf("serve.queue_depth = %v, want 2", got)
	}
}

// TestCancelQueued cancels a job that never reached a worker: it must turn
// terminal on the spot.
func TestCancelQueued(t *testing.T) {
	spec := tinySpec(t)
	s := newServer(t, serve.Config{})
	a := newAPI(t, s)

	j := a.submit(quickJob(spec, 1))
	var view serve.StatusView
	if resp := a.do("DELETE", "/v1/jobs/"+j.ID, nil, &view); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if view.State != serve.StateCancelled {
		t.Fatalf("state = %s, want cancelled immediately", view.State)
	}
	if resp := a.do("GET", "/v1/jobs/"+j.ID+"/result", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of never-run job: status %d, want 409", resp.StatusCode)
	}
}

// TestListPagination pages through the job listing.
func TestListPagination(t *testing.T) {
	spec := tinySpec(t)
	s := newServer(t, serve.Config{QueueDepth: 16})
	a := newAPI(t, s)
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, a.submit(quickJob(spec, int64(i+1))).ID)
	}
	var list serve.ListView
	a.do("GET", "/v1/jobs?offset=1&limit=2", nil, &list)
	if list.Total != 5 || len(list.Jobs) != 2 {
		t.Fatalf("total %d len %d, want 5/2", list.Total, len(list.Jobs))
	}
	if list.Jobs[0].ID != ids[1] || list.Jobs[1].ID != ids[2] {
		t.Fatalf("page = %s,%s want %s,%s", list.Jobs[0].ID, list.Jobs[1].ID, ids[1], ids[2])
	}
	if resp := a.do("GET", "/v1/jobs?limit=0", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=0: status %d, want 400", resp.StatusCode)
	}
	if resp := a.do("GET", "/v1/jobs?offset=-1", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("offset=-1: status %d, want 400", resp.StatusCode)
	}
}

// TestSpecName resolves named specifications from the configured directory.
func TestSpecName(t *testing.T) {
	specDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(specDir, "tiny.spec"), []byte(tinySpec(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, serve.Config{SpecDir: specDir})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	t.Cleanup(func() {
		// Drain before the TempDir cleanup: the worker may still be
		// settling the finished job's directory.
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	a := newAPI(t, s)

	j := a.submit(serve.JobRequest{SpecName: "tiny", Seed: 1, GA: serve.GAParams{PopSize: 12, MaxGenerations: 25, Stagnation: 10}})
	if j.System != "servetest" {
		t.Fatalf("system = %q, want servetest", j.System)
	}
	a.await(j.ID, "done", stateIs(serve.StateDone))

	for _, name := range []string{"../evil", "absent"} {
		resp, err := http.Post(a.ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"spec_name":%q}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("spec_name %q: status %d, want 400/404", name, resp.StatusCode)
		}
	}
}

// TestRestartResume is the issue's kill-and-restart scenario: a server is
// shut down mid-job; a new server over the same data directory re-queues
// the interrupted job and resumes it from its checkpoint, not generation 0.
func TestRestartResume(t *testing.T) {
	dataDir := t.TempDir()
	long := bigSpec(t)

	s1 := newServer(t, serve.Config{Workers: 1, DataDir: dataDir, CheckpointEvery: 1})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	s1.Start(ctx1)
	a1 := newAPI(t, s1)

	j := a1.submit(longJob(long, 7))
	quick := a1.submit(quickJob(tinySpec(t), 8)) // waits behind the long job
	a1.await(j.ID, "checkpointed progress", func(v serve.StatusView) bool {
		return v.Progress != nil && v.Progress.Generation >= 3
	})

	// "Kill" the server: drain stops the synthesis at the next generation
	// boundary with a final checkpoint on disk.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s1.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	a1.ts.Close()

	// A new server over the same data dir recovers both jobs as queued.
	s2 := newServer(t, serve.Config{Workers: 1, DataDir: dataDir, CheckpointEvery: 1})
	a2 := newAPI(t, s2)
	v := a2.status(j.ID)
	if v.State != serve.StateQueued {
		t.Fatalf("recovered job state = %s, want queued", v.State)
	}
	if got := metricValue(t, a2, "serve.jobs_requeued"); got != 2 {
		t.Fatalf("serve.jobs_requeued = %v, want 2 (the interrupted and the waiting job)", got)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)

	// The resumed run continues from the checkpointed generation.
	v = a2.await(j.ID, "resume", func(v serve.StatusView) bool {
		return v.State == serve.StateRunning && v.ResumedFrom > 0
	})
	if v.ResumedFrom < 3 {
		t.Fatalf("resumed from generation %d, want >= 3", v.ResumedFrom)
	}
	a2.await(j.ID, "post-resume progress", func(v serve.StatusView) bool {
		return v.Progress != nil && v.Progress.Generation > v.ResumedFrom
	})

	// Finish up: cancel the long job, let the queued quick one complete.
	a2.do("DELETE", "/v1/jobs/"+j.ID, nil, nil)
	a2.await(j.ID, "cancelled", stateIs(serve.StateCancelled))
	a2.await(quick.ID, "done", stateIs(serve.StateDone))
	if got := metricValue(t, a2, "serve.jobs_resumed"); got != 1 {
		t.Fatalf("serve.jobs_resumed = %v, want 1", got)
	}

	// The cancelled job's partial result records where it resumed from.
	var res serve.ResultView
	if resp := a2.do("GET", "/v1/jobs/"+j.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.ResumedFrom < 3 {
		t.Fatalf("result resumed_from = %d, want >= 3", res.ResumedFrom)
	}

	sctx2, scancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel2()
	if err := s2.Shutdown(sctx2); err != nil {
		t.Fatalf("shutdown 2: %v", err)
	}
}

// TestRecoverySkipsCorruptManifests: junk in the data dir must not block
// recovery of the healthy jobs around it.
func TestRecoverySkipsCorruptManifests(t *testing.T) {
	dataDir := t.TempDir()
	spec := tinySpec(t)
	s1 := newServer(t, serve.Config{DataDir: dataDir})
	a1 := newAPI(t, s1)
	j := a1.submit(quickJob(spec, 1))
	a1.ts.Close()

	// Corrupt a sibling job dir and drop a non-job dir next to it.
	bad := filepath.Join(dataDir, "jobs", "j000099")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "jobs", "notajob"), 0o755); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, serve.Config{DataDir: dataDir})
	a2 := newAPI(t, s2)
	var list serve.ListView
	a2.do("GET", "/v1/jobs", nil, &list)
	if list.Total != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("recovered %d jobs (%+v), want just %s", list.Total, list.Jobs, j.ID)
	}
	// The corrupt directory must not poison the ID sequence either: a new
	// submission gets a fresh ID above the recovered one.
	nj := a2.submit(quickJob(spec, 2))
	if nj.ID <= j.ID {
		t.Fatalf("new job ID %s not above recovered %s", nj.ID, j.ID)
	}
}

// TestMetricsRegistrySharing: a caller-supplied registry receives the
// server metrics (mmserved shares one registry across subsystems).
func TestMetricsRegistrySharing(t *testing.T) {
	reg := obs.NewRegistry()
	s := newServer(t, serve.Config{Registry: reg, Workers: 3})
	_ = s
	if got := reg.Gauge("serve.workers").Value(); got != 3 {
		t.Fatalf("serve.workers = %v, want 3", got)
	}
}

// eventually polls cond until it holds or the deadline passes. Counters
// move just after the state transition they describe becomes visible, so
// a test that saw the state may be a beat ahead of the metric.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
