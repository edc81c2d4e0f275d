package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"momosyn/internal/serve"
)

// rawResult fetches a job's result document as the server sends it.
func rawResult(t *testing.T, a *api, id string) []byte {
	t.Helper()
	resp, err := http.Get(a.ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result of %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// resumedFromLine matches the top-level resumed_from field of a result
// document.
var resumedFromLine = regexp.MustCompile(`\n  "resumed_from": [0-9]+,`)

// hitDocWant is the document a cache hit of an entry computed by job
// origID must serve: the computing job's result.json with only the id
// rebound to hitID and resumed_from dropped.
func hitDocWant(orig []byte, origID, hitID string) []byte {
	doc := bytes.Replace(orig, []byte(`"id": "`+origID+`"`), []byte(`"id": "`+hitID+`"`), 1)
	return resumedFromLine.ReplaceAll(doc, nil)
}

// checkHitDocument resubmits req, which must be a cache hit of the entry
// job origID published with result document orig, and checks the hit's
// served document and the result file at hitFile(hit id) against
// hitDocWant.
func checkHitDocument(t *testing.T, a *api, req serve.JobRequest, orig []byte, origID string, hitFile func(id string) string) {
	t.Helper()
	hit := a.submit(req)
	if hit.State != serve.StateDone || !hit.Cached {
		t.Fatalf("resubmission = state %s cached %v, want a done cache hit", hit.State, hit.Cached)
	}
	want := hitDocWant(orig, origID, hit.ID)
	if got := rawResult(t, a, hit.ID); !bytes.Equal(got, want) {
		t.Fatalf("served hit document differs from the computing job's result:\n--- got\n%s\n--- want\n%s", got, want)
	}
	onDisk, err := os.ReadFile(hitFile(hit.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatalf("persisted hit document differs from the computing job's result:\n--- got\n%s\n--- want\n%s", onDisk, want)
	}
}

// latestFleetResult returns the path of the newest epoch's result file of
// a fleet job.
func latestFleetResult(t *testing.T, dir, id string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "jobs", id, "result.e*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("fleet job %s has no result file (err %v)", id, err)
	}
	return paths[len(paths)-1] // zero-padded epochs sort in order
}

// TestCacheHitDocumentDifferential pins the cache-hit document against the
// result of the job that computed the entry, for entries from a fresh
// single-node run, a run resumed from its checkpoint after a restart
// (resumed_from > 0, which the hit drops) and a fleet node (served by the
// computing node and by another).
func TestCacheHitDocumentDifferential(t *testing.T) {
	spec := tinySpec(t)

	t.Run("fresh", func(t *testing.T) {
		dataDir := t.TempDir()
		_, a, _ := cacheServer(t, dataDir, t.TempDir(), nil)
		first := a.submit(quickJob(spec, 31))
		a.await(first.ID, "done", stateIs(serve.StateDone))
		jobFile := func(id string) string { return filepath.Join(dataDir, "jobs", id, "result.json") }
		orig, err := os.ReadFile(jobFile(first.ID))
		if err != nil {
			t.Fatal(err)
		}
		if served := rawResult(t, a, first.ID); !bytes.Equal(served, orig) {
			t.Fatalf("computing job serves a document other than its result.json:\n--- served\n%s\n--- file\n%s", served, orig)
		}
		checkHitDocument(t, a, quickJob(spec, 31), orig, first.ID, jobFile)
	})

	t.Run("resumed", func(t *testing.T) {
		dataDir, cacheDir := t.TempDir(), t.TempDir()
		cfg := serve.Config{Workers: 1, DataDir: dataDir, CacheDir: cacheDir, CheckpointEvery: 10}
		req := serve.JobRequest{Spec: bigSpec(t), Seed: 3,
			GA: serve.GAParams{PopSize: 48, MaxGenerations: 3000, Stagnation: 3000}}
		s1 := newServer(t, cfg)
		ctx1, cancel1 := context.WithCancel(context.Background())
		defer cancel1()
		s1.Start(ctx1)
		a1 := newAPI(t, s1)
		j := a1.submit(req)
		a1.await(j.ID, "checkpointed progress", func(v serve.StatusView) bool {
			return v.Progress != nil && v.Progress.Generation >= 20
		})
		drain(t, s1)
		a1.ts.Close()

		_, a2 := startServer(t, cfg)
		v := a2.await(j.ID, "done after resuming", stateIs(serve.StateDone))
		if v.ResumedFrom == 0 {
			t.Fatal("the job finished without resuming; the resumed case is not exercised")
		}
		jobFile := func(id string) string { return filepath.Join(dataDir, "jobs", id, "result.json") }
		orig, err := os.ReadFile(jobFile(j.ID))
		if err != nil {
			t.Fatal(err)
		}
		if !resumedFromLine.Match(orig) {
			t.Fatalf("resumed job's result carries no resumed_from:\n%s", orig)
		}
		checkHitDocument(t, a2, req, orig, j.ID, jobFile)
	})

	t.Run("fleet", func(t *testing.T) {
		dir := t.TempDir()
		_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
		first := a.submit(quickJob(spec, 33))
		a.await(first.ID, "done on nodeA", stateIs(serve.StateDone))
		orig, err := os.ReadFile(latestFleetResult(t, dir, first.ID))
		if err != nil {
			t.Fatal(err)
		}
		hitFile := func(id string) string { return latestFleetResult(t, dir, id) }
		checkHitDocument(t, a, quickJob(spec, 33), orig, first.ID, hitFile)
		_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 1})
		checkHitDocument(t, b, quickJob(spec, 33), orig, first.ID, hitFile)
	})
}

// TestCacheHitDiscardsDamagedEntries: an entry whose result is valid JSON
// of the wrong shape, a truncated entry and an entry filed under another
// request's key are never served; each resubmission runs for real,
// completes certified and republishes the entry, which answers the next
// resubmission.
func TestCacheHitDiscardsDamagedEntries(t *testing.T) {
	spec := tinySpec(t)
	damages := map[string]func(t *testing.T, a *api, entry string){
		"wrong-shape": func(t *testing.T, _ *api, entry string) {
			rewriteEntryResult(t, entry, `{"id": "j000001", "state": "done", "modes": "not a list"}`)
		},
		"wrong-shape-array": func(t *testing.T, _ *api, entry string) {
			rewriteEntryResult(t, entry, `[1, 2, 3]`)
		},
		"truncated": func(t *testing.T, _ *api, entry string) {
			data, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-key": func(t *testing.T, a *api, entry string) {
			// File another request's (valid) entry under this key.
			other := a.submit(quickJob(spec, 99))
			a.await(other.ID, "done", stateIs(serve.StateDone))
			var found string
			err := filepath.WalkDir(filepath.Dir(filepath.Dir(entry)), func(path string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" && path != entry {
					found = path
				}
				return err
			})
			if err != nil || found == "" {
				t.Fatalf("second entry not found (err %v)", err)
			}
			data, err := os.ReadFile(found)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			cacheDir := t.TempDir()
			_, a, _ := cacheServer(t, t.TempDir(), cacheDir, nil)
			first := a.submit(quickJob(spec, 41))
			a.await(first.ID, "done", stateIs(serve.StateDone))
			entry := findCacheEntry(t, cacheDir)
			damage(t, a, entry)

			j := a.submit(quickJob(spec, 41))
			if j.Cached || j.State == serve.StateDone {
				t.Fatalf("damaged entry was served (state %s cached %v)", j.State, j.Cached)
			}
			a.await(j.ID, "re-run", stateIs(serve.StateDone))
			var res serve.ResultView
			if resp := a.do("GET", "/v1/jobs/"+j.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
				t.Fatalf("re-run result: status %d", resp.StatusCode)
			}
			if res.Certification == nil || !res.Certification.Certified || res.ID != j.ID {
				t.Fatalf("re-run result is not the job's certified result: id %s certification %+v", res.ID, res.Certification)
			}
			if again := a.submit(quickJob(spec, 41)); !again.Cached || again.State != serve.StateDone {
				t.Fatalf("resubmission after the re-run: state %s cached %v, want a cache hit", again.State, again.Cached)
			}
		})
	}
}

// rewriteEntryResult replaces the result document of the cache entry file
// with doc, leaving the entry otherwise valid.
func rewriteEntryResult(t *testing.T, entry, doc string) {
	t.Helper()
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]json.RawMessage
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	e["result"] = json.RawMessage(doc)
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// elapsedLine matches the wall-clock run time of a result document, the
// one field two runs of the same request do not share.
var elapsedLine = regexp.MustCompile(`"elapsed": "[^"]*"`)

// TestRecoveredJobResultMatchesUninterrupted: a job recovered from disk at
// restart, which has no system parsed at admission and parses its
// manifest's spec, produces the result.json of the same request run
// without a restart (run time masked).
func TestRecoveredJobResultMatchesUninterrupted(t *testing.T) {
	spec := tinySpec(t)
	req := quickJob(spec, 51)

	direct := t.TempDir()
	_, a := startServer(t, serve.Config{Workers: 1, DataDir: direct})
	j := a.submit(req)
	a.await(j.ID, "done", stateIs(serve.StateDone))
	want, err := os.ReadFile(filepath.Join(direct, "jobs", j.ID, "result.json"))
	if err != nil {
		t.Fatal(err)
	}

	recovered := t.TempDir()
	s1 := newServer(t, serve.Config{Workers: 1, DataDir: recovered})
	a1 := newAPI(t, s1)
	queued := a1.submit(req) // never started: stays queued on disk
	if queued.ID != j.ID {
		t.Fatalf("recovered job id %s, want %s (the documents are compared whole)", queued.ID, j.ID)
	}
	drain(t, s1)
	a1.ts.Close()
	_, a2 := startServer(t, serve.Config{Workers: 1, DataDir: recovered})
	a2.await(queued.ID, "done after recovery", stateIs(serve.StateDone))
	got, err := os.ReadFile(filepath.Join(recovered, "jobs", queued.ID, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	mask := []byte(`"elapsed": "-"`)
	if !bytes.Equal(elapsedLine.ReplaceAll(got, mask), elapsedLine.ReplaceAll(want, mask)) {
		t.Fatalf("recovered job's result differs from the uninterrupted run's:\n--- recovered\n%s\n--- uninterrupted\n%s", got, want)
	}
}

// TestStateGaugesMatchRecount: the per-state job gauges, kept up to date
// on each transition, equal a full recount of the job table after fresh
// jobs, a cache hit, a retry, a quarantine, a cancel while running and one
// while queued, and again after a drain and a restart that recovers the
// interrupted job and runs it on.
func TestStateGaugesMatchRecount(t *testing.T) {
	spec := tinySpec(t)
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	cfg := serve.Config{
		Workers: 1, QueueDepth: 8, DataDir: dataDir, CacheDir: cacheDir,
		CheckpointEvery: 1, MaxAttempts: 2, RetryBackoff: time.Millisecond, Failpoints: true,
	}
	s1 := newServer(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	s1.Start(ctx1)
	a1 := newAPI(t, s1)

	for _, seed := range []int64{1, 2} {
		j := a1.submit(quickJob(spec, seed))
		a1.await(j.ID, "done", stateIs(serve.StateDone))
	}
	if hit := a1.submit(quickJob(spec, 1)); !hit.Cached {
		t.Fatal("resubmission missed the cache")
	}
	retried := a1.submit(failingJob(spec, 3, "fail:1"))
	a1.await(retried.ID, "done after a retry", stateIs(serve.StateDone))
	poison := a1.submit(failingJob(spec, 4, "fail"))
	a1.await(poison.ID, "quarantined", stateIs(serve.StateQuarantined))
	checkStateGauges(t, a1, "after fresh jobs, a hit, a retry and a quarantine")

	cancelled := a1.submit(longJob(spec, 5))
	a1.await(cancelled.ID, "running", stateIs(serve.StateRunning))
	a1.do("DELETE", "/v1/jobs/"+cancelled.ID, nil, nil)
	a1.await(cancelled.ID, "cancelled", stateIs(serve.StateCancelled))

	long := a1.submit(longJob(bigSpec(t), 6))
	a1.await(long.ID, "checkpointed progress", func(v serve.StatusView) bool {
		return v.Progress != nil && v.Progress.Generation >= 2
	})
	waiting := a1.submit(quickJob(spec, 7)) // behind the long job
	a1.do("DELETE", "/v1/jobs/"+waiting.ID, nil, nil)
	a1.await(waiting.ID, "cancelled while queued", stateIs(serve.StateCancelled))
	checkStateGauges(t, a1, "with one job running")

	drain(t, s1)
	checkStateGauges(t, a1, "after the drain")
	a1.ts.Close()

	s2 := newServer(t, cfg)
	a2 := newAPI(t, s2)
	checkStateGauges(t, a2, "after recovery")
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)
	t.Cleanup(func() { drain(t, s2) })
	a2.await(long.ID, "resumed", func(v serve.StatusView) bool {
		return v.State == serve.StateRunning && v.ResumedFrom > 0
	})
	checkStateGauges(t, a2, "with the recovered job running")
	a2.do("DELETE", "/v1/jobs/"+long.ID, nil, nil)
	a2.await(long.ID, "cancelled", stateIs(serve.StateCancelled))
	checkStateGauges(t, a2, "at the end")
}

// checkStateGauges compares every serve.jobs_state_<state> gauge with a
// count of the job listing. The caller holds the table still: every job
// is terminal or stays where it is until the caller acts.
func checkStateGauges(t *testing.T, a *api, when string) {
	t.Helper()
	var list serve.ListView
	if resp := a.do("GET", "/v1/jobs?limit=500", nil, &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: listing: status %d", when, resp.StatusCode)
	}
	counts := map[serve.State]int{}
	for _, v := range list.Jobs {
		counts[v.State]++
	}
	for _, st := range []serve.State{serve.StateQueued, serve.StateRunning, serve.StateDone,
		serve.StateFailed, serve.StateCancelled, serve.StateQuarantined} {
		if got := metricValue(t, a, "serve.jobs_state_"+string(st)); got != float64(counts[st]) {
			t.Errorf("%s: serve.jobs_state_%s = %v, a recount of %d jobs finds %d", when, st, got, list.Total, counts[st])
		}
	}
}

// flipLastDigit flips the lowest bit of the last digit of the number
// following the first occurrence of field (`"avg_power": `) in data, which
// leaves another valid number.
func flipLastDigit(t *testing.T, data []byte, field string) int {
	t.Helper()
	i := bytes.Index(data, []byte(field))
	if i < 0 {
		t.Fatalf("%s not in the cache entry", field)
	}
	end := i + len(field)
	for end < len(data) && (data[end] >= '0' && data[end] <= '9' || data[end] == '.' || data[end] == 'e' || data[end] == '-') {
		end++
	}
	for end--; data[end] < '0' || data[end] > '9'; end-- {
	}
	return end
}

// TestCacheHitRefusesFlippedBits: one flipped bit in a published cache
// entry, in a digit of avg_power, of a slot's start or of the
// certificate's checks, in a PE name, or in the entry's system label, is
// never served: the resubmission runs again and completes certified, and
// the entry it republishes answers the one after it.
func TestCacheHitRefusesFlippedBits(t *testing.T) {
	spec := tinySpec(t)
	cacheDir := t.TempDir()
	_, a, _ := cacheServer(t, t.TempDir(), cacheDir, nil)
	first := a.submit(quickJob(spec, 51))
	a.await(first.ID, "done", stateIs(serve.StateDone))

	flips := []struct {
		name string
		pos  func(data []byte) int
	}{
		{"avg_power digit", func(data []byte) int { return flipLastDigit(t, data, `"avg_power": `) }},
		{"slot start", func(data []byte) int { return flipLastDigit(t, data, `"start": `) }},
		{"certificate checks", func(data []byte) int { return flipLastDigit(t, data, `"checks": `) }},
		{"PE name", func(data []byte) int { return bytes.Index(data, []byte(`"pe": "`)) + len(`"pe": "`) }},
		{"system label", func(data []byte) int { return bytes.Index(data, []byte(`"system": "`)) + len(`"system": "`) }},
	}
	for _, f := range flips {
		entry := findCacheEntry(t, cacheDir)
		data, err := os.ReadFile(entry)
		if err != nil {
			t.Fatal(err)
		}
		data[f.pos(data)] ^= 1
		if err := os.WriteFile(entry, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j := a.submit(quickJob(spec, 51))
		if j.Cached || j.State == serve.StateDone {
			t.Fatalf("%s: an entry with one flipped bit was served (state %s cached %v)", f.name, j.State, j.Cached)
		}
		a.await(j.ID, "re-run", stateIs(serve.StateDone))
		var res serve.ResultView
		if resp := a.do("GET", "/v1/jobs/"+j.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: re-run result: status %d", f.name, resp.StatusCode)
		}
		if res.Certification == nil || !res.Certification.Certified {
			t.Fatalf("%s: re-run result is not certified", f.name)
		}
		if again := a.submit(quickJob(spec, 51)); !again.Cached || again.State != serve.StateDone {
			t.Fatalf("%s: resubmission after the re-run: state %s cached %v, want a cache hit", f.name, again.State, again.Cached)
		}
	}
}
