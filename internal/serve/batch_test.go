package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"momosyn/internal/serve"
)

// quickOption is an options-axis entry (no spec/seed) sized like quickJob.
func quickOption() serve.JobRequest {
	return serve.JobRequest{GA: serve.GAParams{PopSize: 12, MaxGenerations: 25, Stagnation: 10}}
}

func batchClient(a *api) *serve.Client {
	return &serve.Client{BaseURL: a.ts.URL, Logf: a.t.Logf}
}

// TestBatchDedup is the batch acceptance scenario: a batch of 6 cells with
// 2 duplicated (spec, seed, option) triples runs exactly the 4-job
// deduplicated set, the results endpoint pages through all 6 cells, and
// resubmitting the completed batch is answered entirely from the cache.
func TestBatchDedup(t *testing.T) {
	spec := tinySpec(t)
	_, a, _ := cacheServer(t, t.TempDir(), t.TempDir(), nil)
	c := batchClient(a)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req := serve.BatchRequest{
		Specs:   []serve.BatchSpecRef{{Spec: spec}},
		Seeds:   []int64{1, 2, 3, 1, 2, 4}, // seeds 1 and 2 appear twice
		Options: []serve.JobRequest{quickOption()},
	}
	view, err := c.SubmitBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if view.BatchStatusView.Cells != 6 || view.Jobs != 4 || view.Duplicates != 2 ||
		view.Rejected != 0 || view.CacheHits != 0 {
		t.Fatalf("submit = cells %d jobs %d dup %d rejected %d hits %d, want 6/4/2/0/0",
			view.BatchStatusView.Cells, view.Jobs, view.Duplicates, view.Rejected, view.CacheHits)
	}
	if view.ID == "" {
		t.Fatal("submit view has no batch ID")
	}
	cells := view.Cells
	if len(cells) != 6 {
		t.Fatalf("cell_details has %d cells, want 6", len(cells))
	}
	// Expansion order is seed order, so cells 3 and 4 (seeds 1 and 2 again)
	// must collapse into the jobs owned by cells 0 and 1.
	for _, dup := range []struct{ cell, owner int }{{3, 0}, {4, 1}} {
		got, want := cells[dup.cell], cells[dup.owner]
		if !got.Duplicate || got.Job == "" || got.Job != want.Job {
			t.Fatalf("cell %d = job %q duplicate %v, want duplicate of cell %d job %q",
				dup.cell, got.Job, got.Duplicate, dup.owner, want.Job)
		}
	}
	for _, i := range []int{0, 1, 2, 5} {
		if cells[i].Duplicate || cells[i].Job == "" || cells[i].Rejected != "" {
			t.Fatalf("cell %d = %+v, want an owning job", i, cells[i])
		}
	}

	done, err := c.WaitBatch(ctx, view.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Complete || done.Done != 4 || done.States[string(serve.StateDone)] != 4 {
		t.Fatalf("final status = %+v, want 4/4 done", done)
	}

	// Exactly the deduplicated set ran: the server knows 4 jobs, all done.
	jobs, err := c.ListAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("server has %d jobs, want exactly the 4 deduplicated cells", len(jobs))
	}
	for _, j := range jobs {
		if j.State != serve.StateDone {
			t.Fatalf("job %s = state %s, want done", j.ID, j.State)
		}
	}

	// Every cell — duplicates included — serves a result document.
	results, err := c.BatchResults(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results has %d cells, want 6", len(results))
	}
	for _, r := range results {
		if r.State != serve.StateDone || len(r.Result) == 0 {
			t.Fatalf("cell %d = state %s result %d bytes, want a done result", r.Cell, r.State, len(r.Result))
		}
	}

	if got := metricValue(t, a, "serve.batch_cells"); got != 6 {
		t.Fatalf("serve.batch_cells = %v, want 6", got)
	}
	if got := metricValue(t, a, "serve.batch_dedup"); got != 2 {
		t.Fatalf("serve.batch_dedup = %v, want 2", got)
	}
	if got := metricValue(t, a, "serve.batches"); got != 1 {
		t.Fatalf("serve.batches = %v, want 1", got)
	}

	// Resubmitting the identical batch is answered entirely from the result
	// cache: complete at submission, zero new synthesis work.
	again, err := c.SubmitBatch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == view.ID {
		t.Fatalf("resubmission reused batch ID %s", again.ID)
	}
	if again.CacheHits != 4 || again.Duplicates != 2 || again.Jobs != 4 || !again.Complete {
		t.Fatalf("resubmission = hits %d dup %d jobs %d complete %v, want 4/2/4/true",
			again.CacheHits, again.Duplicates, again.Jobs, again.Complete)
	}
}

// TestMetricsCacheBatchSeries checks that a cache-enabled server exposes
// every cache and batch series on the Prometheus endpoint before any
// traffic: scrapers must see the full schema from the first scrape.
func TestMetricsCacheBatchSeries(t *testing.T) {
	_, a, _ := cacheServer(t, t.TempDir(), t.TempDir(), nil)
	req, err := http.NewRequest("GET", a.ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := a.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_cache_hits counter",
		"# TYPE serve_cache_misses counter",
		"# TYPE serve_cache_evictions counter",
		"# TYPE serve_cache_corrupt counter",
		"# TYPE serve_batches gauge",
		"# TYPE serve_batches_submitted counter",
		"# TYPE serve_batch_cells counter",
		"# TYPE serve_batch_dedup counter",
		"# TYPE serve_batch_cache_hits counter",
		"# TYPE serve_batch_rejected counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q", want)
		}
	}
}

// TestBatchResultsPagination walks a batch's results with a small page
// size, following the next cursor.
func TestBatchResultsPagination(t *testing.T) {
	spec := tinySpec(t)
	_, a, _ := cacheServer(t, t.TempDir(), t.TempDir(), nil)
	c := batchClient(a)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	view, err := c.SubmitBatch(ctx, serve.BatchRequest{
		Specs:   []serve.BatchSpecRef{{Spec: spec}},
		Seeds:   []int64{10, 11, 10, 11, 10}, // 5 cells, 2 jobs
		Options: []serve.JobRequest{quickOption()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitBatch(ctx, view.ID, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var seen []int
	cursor := ""
	for page := 0; ; page++ {
		if page > 4 {
			t.Fatal("pagination did not terminate")
		}
		path := "/v1/batches/" + view.ID + "/results?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var pv serve.BatchResultsView
		resp := a.do("GET", path, nil, &pv)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status %d", page, resp.StatusCode)
		}
		if want := []int{2, 2, 1}; page >= len(want) || len(pv.Results) != want[page] {
			t.Fatalf("page %d has %d results, want page sizes 2,2,1", page, len(pv.Results))
		}
		for _, r := range pv.Results {
			seen = append(seen, r.Cell)
		}
		if pv.Next == "" {
			break
		}
		cursor = pv.Next
	}
	if len(seen) != 5 {
		t.Fatalf("paged through %d cells, want 5", len(seen))
	}
	for i, cell := range seen {
		if cell != i {
			t.Fatalf("page order = %v, want cells in expansion order", seen)
		}
	}

	for _, bad := range []string{"?limit=0", "?limit=501", "?cursor=-1", "?cursor=x"} {
		resp := a.do("GET", "/v1/batches/"+view.ID+"/results"+bad, nil, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("results%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestBatchValidation covers whole-batch refusals: nothing may be admitted
// when any part of the matrix is malformed.
func TestBatchValidation(t *testing.T) {
	spec := tinySpec(t)
	_, a, _ := cacheServer(t, t.TempDir(), t.TempDir(), nil)
	c := batchClient(a)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	bad := []struct {
		name string
		req  serve.BatchRequest
		want string
	}{
		{"no specs", serve.BatchRequest{Seeds: []int64{1}}, "specs must not be empty"},
		{"no seeds", serve.BatchRequest{Specs: []serve.BatchSpecRef{{Spec: spec}}}, "seeds must not be empty"},
		{"option with seed", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{Seed: 7}},
		}, "seed belongs to the seeds axis"},
		{"option with spec", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{Spec: spec}},
		}, "spec belongs to the specs axis"},
		{"option with failpoint", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{Failpoint: "run-crash"}},
		}, "failpoints are not allowed"},
		{"negative pop", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{}, {GA: serve.GAParams{PopSize: -1}}},
		}, "options[1]: ga.pop_size must not be negative"},
		{"negative generations", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{GA: serve.GAParams{MaxGenerations: -1}}},
		}, "ga.max_generations must not be negative"},
		{"negative stagnation", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{GA: serve.GAParams{Stagnation: -1}}},
		}, "ga.stagnation must not be negative"},
		{"negative stall window", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}}, Seeds: []int64{1},
			Options: []serve.JobRequest{{StallWindow: -1}},
		}, "stall_window must not be negative"},
		{"malformed spec", serve.BatchRequest{
			Specs: []serve.BatchSpecRef{{Spec: spec}, {Spec: "not a spec"}},
			Seeds: []int64{1, 2},
		}, "specs[1]"},
	}
	for _, tc := range bad {
		_, err := c.SubmitBatch(ctx, tc.req)
		var se *serve.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("%s: err = %v, want HTTP 400", tc.name, err)
		}
		if !strings.Contains(se.Body, tc.want) {
			t.Fatalf("%s: body %q does not mention %q", tc.name, se.Body, tc.want)
		}
	}

	// Stochastic schedule refinement is gone: an options entry that still
	// sets its knob is refused, not silently run without it.
	quoted, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"specs":[{"spec":` + string(quoted) + `}],"seeds":[1],"options":[{"refine_iterations":4}]}`
	resp, err := http.Post(a.ts.URL+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "refine_iterations") {
		t.Fatalf("batch with refine_iterations: status %d body %q, want 400 naming the field", resp.StatusCode, msg)
	}

	// A refused batch admits nothing — the malformed-spec case in
	// particular must not leave the first (valid) spec's cells queued.
	jobs, err := c.ListAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("server has %d jobs after refused batches, want 0", len(jobs))
	}

	for _, id := range []string{"zzz", "b000099"} {
		resp := a.do("GET", "/v1/batches/"+id, nil, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("batch %q: status %d, want 404", id, resp.StatusCode)
		}
	}
}

// TestBatchRecovery restarts the server and checks that batch records come
// back from disk: status still serves, and the sequence continues past the
// recovered IDs.
func TestBatchRecovery(t *testing.T) {
	spec := tinySpec(t)
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	_, a, stop := cacheServer(t, dataDir, cacheDir, nil)
	c := batchClient(a)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	view, err := c.SubmitBatch(ctx, serve.BatchRequest{
		Specs:   []serve.BatchSpecRef{{Spec: spec}},
		Seeds:   []int64{21, 22},
		Options: []serve.JobRequest{quickOption()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitBatch(ctx, view.ID, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stop()

	_, a2, _ := cacheServer(t, dataDir, cacheDir, nil)
	c2 := batchClient(a2)
	status, err := c2.BatchStatus(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.Cells != 2 {
		t.Fatalf("recovered batch has %d cells, want 2", status.Cells)
	}
	if !status.Complete || status.Jobs != 2 || status.States[string(serve.StateDone)] != 2 {
		t.Fatalf("recovered status = %+v, want 2/2 done", status)
	}

	// The recovered children are in the cache, so the next batch — new ID,
	// continuing the sequence — completes at submission.
	again, err := c2.SubmitBatch(ctx, serve.BatchRequest{
		Specs:   []serve.BatchSpecRef{{Spec: spec}},
		Seeds:   []int64{21, 22},
		Options: []serve.JobRequest{quickOption()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID <= view.ID {
		t.Fatalf("post-restart batch ID %s does not continue past %s", again.ID, view.ID)
	}
	if again.CacheHits != 2 || !again.Complete {
		t.Fatalf("post-restart resubmission = hits %d complete %v, want 2/true", again.CacheHits, again.Complete)
	}
}
