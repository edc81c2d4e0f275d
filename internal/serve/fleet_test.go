package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
	"momosyn/internal/fleet"
	"momosyn/internal/obs"
	"momosyn/internal/serve"
)

// fleetServer builds and starts one node of a fleet over dir.
func fleetServer(t *testing.T, dir, node string, cfg serve.Config) (*serve.Server, *api) {
	t.Helper()
	cfg.FleetDir = dir
	cfg.NodeID = node
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	// Drain before t.TempDir cleanup removes the shared directory out from
	// under a still-running node.
	t.Cleanup(func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	return s, newAPI(t, s)
}

// bareStore opens a raw fleet store on dir, impersonating a node outside
// any server (a dead or stale worker in the scenarios below).
func bareStore(t *testing.T, dir, node string, ttl time.Duration, now func() time.Time) *fleet.Store {
	t.Helper()
	st, err := fleet.Open(fleet.Config{
		Dir: dir, Node: node, TTL: ttl,
		Registry: obs.NewRegistry(), Now: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetTwoNodesCompleteJobs runs two nodes over one shared directory:
// jobs submitted to one node are visible on — and may be executed by —
// either, and every result is retrievable from both.
func TestFleetTwoNodesCompleteJobs(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 1})

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, a.submit(quickJob(spec, seed)).ID)
	}
	for _, id := range ids {
		v := a.await(id, "done", stateIs(serve.StateDone))
		if v.Node == "" {
			t.Errorf("job %s finished without node provenance", id)
		}
		// Both nodes serve the status and the certified result, whichever
		// of them ran the job.
		for name, n := range map[string]*api{"nodeA": a, "nodeB": b} {
			bv := n.awaitAdopted(id, "done on "+name, stateIs(serve.StateDone))
			if bv.Node != v.Node {
				t.Errorf("%s reports job %s on node %q, %q elsewhere", name, id, bv.Node, v.Node)
			}
			var res serve.ResultView
			if resp := n.do("GET", "/v1/jobs/"+id+"/result", nil, &res); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: result %s: status %d", name, id, resp.StatusCode)
			}
			if res.State != serve.StateDone || res.Certification == nil || !res.Certification.Certified {
				t.Fatalf("%s: result %s not certified: %+v", name, id, res.Certification)
			}
		}
	}

	// The structured readiness document carries the fleet section.
	var ready serve.ReadyView
	if resp := a.do("GET", "/readyz", nil, &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: status %d", resp.StatusCode)
	}
	if ready.Status != "ready" || ready.Fleet == nil || ready.Fleet.Node != "nodeA" {
		t.Fatalf("/readyz = %+v, want ready with fleet section for nodeA", ready)
	}
	if ready.Fleet.LiveNodes < 2 {
		t.Fatalf("live_nodes = %d, want both nodes heartbeating", ready.Fleet.LiveNodes)
	}
	// The fleet counters are exported through /metrics.
	if got := metricValue(t, a, "fleet.claims") + metricValue(t, b, "fleet.claims"); got < 3 {
		t.Fatalf("fleet.claims across nodes = %v, want >= 3", got)
	}
}

// awaitAdopted is await for a job another node may have created, which
// tolerates a non-200 answer until pred holds.
func (a *api) awaitAdopted(id string, what string, pred func(serve.StatusView) bool) serve.StatusView {
	a.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v serve.StatusView
		if resp := a.do("GET", "/v1/jobs/"+id, nil, &v); resp.StatusCode == http.StatusOK && pred(v) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.t.Fatalf("job %s: timed out waiting for %s", id, what)
	return serve.StatusView{}
}

// TestFleetLookupAdoptsUnsyncedJob asks a node whose fleet sync runs only
// at start-up for a job another node created after it: the lookup adopts
// the job from the fleet directory instead of answering 404.
func TestFleetLookupAdoptsUnsyncedJob(t *testing.T) {
	dir := t.TempDir()
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 1, Heartbeat: time.Hour, LeaseTTL: 3 * time.Hour})

	id := a.submit(quickJob(tinySpec(t), 1)).ID
	if v := b.status(id); v.ID != id {
		t.Fatalf("node B reports job %q for %s", v.ID, id)
	}
	a.await(id, "done", stateIs(serve.StateDone))
	if resp := b.do("GET", "/v1/jobs/j999999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// syncLog collects a server's log lines.
type syncLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *syncLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// matching returns the collected lines containing sub.
func (l *syncLog) matching(sub string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return out
}

// TestFleetSyncSkipsHalfCreatedJobs plants a bare job directory and one
// holding only its spec, the two states a submitter passes through in
// CreateJob, next to one with a corrupt spec. Sync skips the first two
// without a log line and reports the corrupt one.
func TestFleetSyncSkipsHalfCreatedJobs(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs")
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		if err := os.MkdirAll(filepath.Join(jobs, id), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := json.Marshal(quickJob(tinySpec(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, "j000002", "spec.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, "j000003", "spec.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log syncLog
	fleetServer(t, dir, "nodeA", serve.Config{Logf: log.logf})

	// Sync visits the jobs in ID order, so once the corrupt job is
	// reported the other two have been passed over.
	deadline := time.Now().Add(30 * time.Second)
	for len(log.matching("adopt j000003")) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sync never reported the corrupt job j000003")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lines := log.matching("adopt j000001"); len(lines) > 0 {
		t.Errorf("bare job directory logged: %q", lines)
	}
	if lines := log.matching("adopt j000002"); len(lines) > 0 {
		t.Errorf("job without its first manifest logged: %q", lines)
	}
}

// TestFleetClaimOfHeldJobLogsNothing: a job whose lease another node holds
// is passed over by every claim pass without a log line, and stays queued.
func TestFleetClaimOfHeldJobLogsNothing(t *testing.T) {
	dir := t.TempDir()
	holder := bareStore(t, dir, "holder", time.Hour, nil)
	id, err := holder.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(tinySpec(t), 1)
	specDoc, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	man := fmt.Sprintf(`{"id":%q,"state":"queued","created":%q}`, id, time.Now().Format(time.RFC3339Nano))
	if err := holder.CreateJob(id, specDoc, []byte(man)); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Claim(id); err != nil {
		t.Fatal(err)
	}

	cfs := chaosfs.New(durable.OS{})
	var log syncLog
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Logf: log.logf, FS: cfs})
	// Each coordination pass writes the node's liveness record before it
	// claims, so by the third record two claim passes have come and gone.
	beat := regexp.MustCompile(`/nodes/nodeA\.json$`)
	eventually(t, "three coordination passes", func() bool { return cfs.Ops(chaosfs.OpRename, beat) >= 3 })
	if v := a.status(id); v.State != serve.StateQueued {
		t.Fatalf("held job is %s, want queued", v.State)
	}
	if lines := log.matching(id); len(lines) > 0 {
		t.Errorf("claim passes over a held job logged: %q", lines)
	}
	if got := metricValue(t, a, "fleet.claims"); got != 0 {
		t.Errorf("fleet.claims = %v, want 0", got)
	}
}

// TestFleetNodeLossRecovery simulates a worker that claimed a job, wrote a
// running manifest, and died without releasing: a live server must steal
// the lease after expiry and run the job to certified completion.
func TestFleetNodeLossRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)

	// The doomed node claims the job before any server exists.
	dead := bareStore(t, dir, "deadnode", 300*time.Millisecond, nil)
	id, err := dead.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(spec, 42)
	specDoc, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	man := func(state string) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"state":%q,"created":%q}`, id, state, time.Now().Format(time.RFC3339Nano)))
	}
	if err := dead.CreateJob(id, specDoc, man("queued")); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Write(fleet.KindManifest, man("running")); err != nil {
		t.Fatal(err)
	}
	// ...and is never heard from again.

	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	v := a.await(id, "recovered and done", stateIs(serve.StateDone))
	if v.Node != "nodeA" {
		t.Fatalf("recovered job ran on %q, want nodeA", v.Node)
	}
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+id+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("recovered job finished without certification: %+v", res.Certification)
	}
	if got := metricValue(t, a, "fleet.steals"); got < 1 {
		t.Fatalf("fleet.steals = %v, want >= 1 (the dead node's lease)", got)
	}
}

// TestFleetStaleHolderIsFenced reclaims a running job's lease out from
// under a live server (as a partition or long stall would): the server
// must fence itself — count it, stop writing — and, once the usurper
// releases, reclaim and finish the job. No write of the stale epoch may
// shadow the reclaimed state.
func TestFleetStaleHolderIsFenced(t *testing.T) {
	dir := t.TempDir()
	long := bigSpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})

	j := a.submit(longJob(long, 7))
	a.await(j.ID, "running", stateIs(serve.StateRunning))

	// The usurper's clock runs an hour ahead, so the held lease looks
	// long-expired to it — exactly what a node on the wrong side of a
	// partition concludes about a stalled peer.
	ahead := func() time.Time { return time.Now().Add(time.Hour) }
	thief := bareStore(t, dir, "thief", time.Minute, ahead)
	stolen, err := thief.Claim(j.ID)
	if err != nil {
		t.Fatalf("usurper claim: %v", err)
	}

	// The server notices at its next heartbeat: its renew is rejected by
	// the higher epoch and the job is abandoned without further writes.
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, a, "serve.jobs_fenced") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never fenced itself after losing its lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricValue(t, a, "fleet.fence_rejects"); got < 1 {
		t.Fatalf("fleet.fence_rejects = %v, want >= 1", got)
	}

	// The usurper walks away gracefully; the server reclaims the job and
	// the work continues (finished here by cancelling the long run).
	if err := stolen.Release(); err != nil {
		t.Fatalf("usurper release: %v", err)
	}
	a.await(j.ID, "reclaimed and running", stateIs(serve.StateRunning))
	if resp := a.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	v := a.await(j.ID, "cancelled", stateIs(serve.StateCancelled))
	if v.Node != "nodeA" {
		t.Fatalf("final manifest from node %q, want the reclaiming nodeA", v.Node)
	}
}

// TestFleetReadyzReportsAwaitingRecovery pins the degraded-state
// reporting: a job whose holder died shows up in /readyz as awaiting
// recovery while no worker is free to claim it.
func TestFleetReadyzReportsAwaitingRecovery(t *testing.T) {
	dir := t.TempDir()
	long := bigSpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})

	// The only worker is pinned down by a long job...
	j := a.submit(longJob(long, 1))
	a.await(j.ID, "running", stateIs(serve.StateRunning))

	// ...while a second job's holder dies mid-run.
	dead := bareStore(t, dir, "deadnode", 100*time.Millisecond, nil)
	id, err := dead.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(tinySpec(t), 2)
	specDoc, _ := json.Marshal(&req)
	manifest := fmt.Sprintf(`{"id":%q,"state":"queued"}`, id)
	if err := dead.CreateJob(id, specDoc, []byte(manifest)); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	running := fmt.Sprintf(`{"id":%q,"state":"running"}`, id)
	if err := lease.Write(fleet.KindManifest, []byte(running)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var ready serve.ReadyView
		if resp := a.do("GET", "/readyz", nil, &ready); resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz: status %d", resp.StatusCode)
		}
		if ready.Fleet != nil && ready.Fleet.JobsAwaitingRecovery >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported the orphaned job: %+v", ready)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Freeing the worker lets the node pick the orphan up and finish it.
	if resp := a.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	a.await(id, "orphan recovered", stateIs(serve.StateDone))
}

// TestFleetDurableCancel cancels a fleet job through a node that does NOT
// hold its lease: the durable cancel marker must reach the holder.
func TestFleetDurableCancel(t *testing.T) {
	dir := t.TempDir()
	long := bigSpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 0, QueueDepth: 1})

	j := a.submit(longJob(long, 5))
	a.await(j.ID, "running", stateIs(serve.StateRunning))
	b.await(j.ID, "visible on the other node", stateIs(serve.StateRunning))

	if resp := b.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cross-node cancel: status %d", resp.StatusCode)
	}
	a.await(j.ID, "cancelled via the marker", stateIs(serve.StateCancelled))
}

// TestSingleNodeLayoutUnchanged pins the PR 5 on-disk contract: without
// fleet flags, a finished job's directory holds exactly the classic
// manifest.json and result.json, and the manifest carries no fleet fields.
func TestSingleNodeLayoutUnchanged(t *testing.T) {
	spec := tinySpec(t)
	dataDir := t.TempDir()
	s := newServer(t, serve.Config{Workers: 1, QueueDepth: 4, DataDir: dataDir})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	t.Cleanup(func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	a := newAPI(t, s)

	j := a.submit(quickJob(spec, 1))
	v := a.await(j.ID, "done", stateIs(serve.StateDone))
	if v.Node != "" {
		t.Fatalf("single-node status advertises a node ID: %q", v.Node)
	}

	// The done state becomes visible before the worker finishes settling
	// the directory (result write, checkpoint removal), so poll for the
	// final layout instead of reading it once.
	var names []string
	want := []string{"manifest.json", "result.json"}
	eventually(t, fmt.Sprintf("job dir settles to %v", want), func() bool {
		entries, err := os.ReadDir(filepath.Join(dataDir, "jobs", j.ID))
		if err != nil {
			return false
		}
		names = names[:0]
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return len(names) == len(want) && names[0] == want[0] && names[1] == want[1]
	})

	raw, err := os.ReadFile(filepath.Join(dataDir, "jobs", j.ID, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, fleetKey := range []string{"node", "epoch", "attempts", "not_before", "cached"} {
		if _, ok := m[fleetKey]; ok {
			t.Fatalf("single-node manifest grew a field %q: %s", fleetKey, raw)
		}
	}

	// And the readiness document has no fleet section.
	var ready serve.ReadyView
	if resp := a.do("GET", "/readyz", nil, &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: status %d", resp.StatusCode)
	}
	if ready.Status != "ready" || ready.Fleet != nil {
		t.Fatalf("single-node /readyz = %+v, want ready with no fleet section", ready)
	}
}

// TestFleetPoisonJobQuarantined is the issue's acceptance drill: a job
// that fails every execution, submitted to a two-node fleet, must land in
// quarantined after exactly max-attempts executions fleet-wide — the
// budget rides the manifests, not any one node — while a healthy job
// submitted alongside it completes and certifies.
func TestFleetPoisonJobQuarantined(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)
	cfg := serve.Config{
		Workers: 1, MaxAttempts: 3, RetryBackoff: time.Millisecond,
		Failpoints: true,
	}
	_, a := fleetServer(t, dir, "nodeA", cfg)
	_, b := fleetServer(t, dir, "nodeB", cfg)

	poison := quickJob(spec, 31)
	poison.Failpoint = "panic"
	pj := a.submit(poison)
	good := a.submit(quickJob(spec, 32))

	gv := a.await(good.ID, "healthy job done", stateIs(serve.StateDone))
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+good.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy result: status %d", resp.StatusCode)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("healthy job on node %q finished uncertified: %+v", gv.Node, res.Certification)
	}

	pv := a.await(pj.ID, "quarantined", stateIs(serve.StateQuarantined))
	if pv.Attempts != 3 {
		t.Fatalf("attempts = %d, want exactly the fleet-wide budget of 3", pv.Attempts)
	}
	sum := func(name string) float64 { return metricValue(t, a, name) + metricValue(t, b, name) }
	eventually(t, "serve.jobs_quarantined across nodes = 1", func() bool {
		return sum("serve.jobs_quarantined") == 1
	})
	// 3 poison executions + 1 healthy one.
	if got := sum("serve.attempts_total"); got != 4 {
		t.Fatalf("serve.attempts_total across nodes = %v, want 4 (the poison budget plus the healthy run)", got)
	}

	// Never reclaimed: several claim-loop scans later, no node has started
	// a fourth execution and the state is unchanged on both.
	time.Sleep(300 * time.Millisecond)
	if got := sum("serve.attempts_total"); got != 4 {
		t.Fatalf("quarantined job re-executed: attempts_total = %v", got)
	}
	for name, n := range map[string]*api{"nodeA": a, "nodeB": b} {
		if v := n.await(pj.ID, "quarantined on "+name, stateIs(serve.StateQuarantined)); v.Attempts != 3 {
			t.Fatalf("%s: attempts = %d, want 3", name, v.Attempts)
		}
	}
}

// TestFleetStealHonoursBudget: stealing a dead node's running job consumes
// the attempt that died with it — and a job whose budget that exhausts is
// quarantined at claim time, without the thief running it even once. The
// spec is healthy (it would succeed if executed), so a quarantined outcome
// proves the claim path enforced the budget rather than the synthesis
// failing.
func TestFleetStealHonoursBudget(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)

	// The doomed node is two failures deep into a third attempt when it
	// dies without releasing the lease.
	dead := bareStore(t, dir, "deadnode", 300*time.Millisecond, nil)
	id, err := dead.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(spec, 33)
	specDoc, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	man := []byte(fmt.Sprintf(`{"id":%q,"state":"running","created":%q,"attempts":2,"error":"synthesis panicked"}`,
		id, time.Now().Format(time.RFC3339Nano)))
	if err := dead.CreateJob(id, specDoc, man); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Write(fleet.KindManifest, man); err != nil {
		t.Fatal(err)
	}
	// ...and is never heard from again.

	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1, MaxAttempts: 3})
	v := a.await(id, "quarantined at claim", stateIs(serve.StateQuarantined))
	if v.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (the death consumed the last one)", v.Attempts)
	}
	if !strings.Contains(v.Error, "died with its node") || !strings.Contains(v.Error, "synthesis panicked") {
		t.Fatalf("quarantine cause lost the history: %q", v.Error)
	}
	eventually(t, "serve.jobs_quarantined = 1", func() bool {
		return metricValue(t, a, "serve.jobs_quarantined") == 1
	})
	if got := metricValue(t, a, "serve.attempts_total"); got != 0 {
		t.Fatalf("serve.attempts_total = %v, want 0 (the thief never ran it)", got)
	}
}
