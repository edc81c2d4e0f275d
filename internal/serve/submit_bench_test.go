package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/specio"
)

// mul1Request is the body of a submission of mul1 at serve-mix's GA
// budget (population 2, 5 generations) with the given seed.
func mul1Request(tb testing.TB, seed int64) []byte {
	tb.Helper()
	sys, err := bench.MulSystem(1)
	if err != nil {
		tb.Fatal(err)
	}
	var spec bytes.Buffer
	if err := specio.Write(&spec, sys); err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(JobRequest{Spec: spec.String(), Seed: seed,
		GA: GAParams{PopSize: 2, MaxGenerations: 5, Stagnation: 5}})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// BenchmarkSubmit times one submission through the job API's handler, in
// process on temporary directories, with no HTTP client or network: /hit
// resubmits a request whose certified result is cached (parse, canonical
// form and key, cache read, the id splice and the job's two durable
// files), /fresh submits a new seed and waits for its terminal commit
// (admission, the attempt with its checkpoints, certification, result,
// cache publish and manifests). Requests are mul1 at serve-mix's GA budget
// (population 2, 5 generations). allocs/op is the steady figure; ns/op
// includes the fsyncs.
//
//	go test -run '^$' -bench BenchmarkSubmit -benchtime 400x ./internal/serve
func BenchmarkSubmit(b *testing.B) {
	body := func(seed int64) []byte { return mul1Request(b, seed) }
	start := func(b *testing.B) (*Server, http.Handler) {
		s, err := New(Config{Workers: 1, DataDir: b.TempDir(), CacheDir: b.TempDir(), CheckpointEvery: 5})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.Start(ctx)
		b.Cleanup(func() {
			cancel()
			_ = s.Shutdown(context.Background())
		})
		return s, s.Handler()
	}
	// submit posts one request and returns the new job.
	submit := func(b *testing.B, s *Server, h http.Handler, req []byte) *Job {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(req)))
		if rec.Code != http.StatusAccepted {
			b.Fatalf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		id := strings.TrimPrefix(rec.Header().Get("Location"), "/v1/jobs/")
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[id]
	}
	await := func(j *Job) {
		for !j.snapshot().State.Terminal() {
			time.Sleep(20 * time.Microsecond)
		}
	}

	b.Run("hit", func(b *testing.B) {
		s, h := start(b)
		req := body(1)
		await(submit(b, s, h, req))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, s, h, req)
		}
		b.StopTimer()
		if hits := s.reg.Counter("serve.cache_hits").Value(); hits != uint64(b.N) {
			b.Fatalf("%d cache hits in %d resubmissions", hits, b.N)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		s, h := start(b)
		reqs := make([][]byte, b.N)
		for i := range reqs {
			reqs[i] = body(int64(1000 + i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			await(submit(b, s, h, reqs[i]))
		}
		b.StopTimer()
		if done := s.reg.Counter("serve.jobs_done").Value(); done != uint64(b.N) {
			b.Fatalf("%d of %d fresh jobs done", done, b.N)
		}
	})
}
