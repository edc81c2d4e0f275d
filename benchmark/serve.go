package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"momosyn/internal/cas"
	"momosyn/internal/ga"
	"momosyn/internal/obs"
	"momosyn/internal/perf"
	"momosyn/internal/runctl"
	"momosyn/internal/serve"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
	"momosyn/internal/verify"
)

// serve-mix drives an in-process job service with two closed-loop
// clients (each waits for its answer before sending the next request), as
// many as the server has workers. Half the requests, by a seeded draw,
// resubmit a cell the same client already completed (a result-cache hit:
// admission, canonical form, cache read, durable job record); the rest
// are fresh small-budget jobs (queue, attempt with checkpoints,
// certification, result persist, cache publish and reveal). The GA budget
// is small so that the service path, not the engine, sets job latency.
const (
	serveWorkers         = 2
	serveClients         = 2
	serveCheckpointEvery = 5
	hitShare             = 0.5
	// pollInterval is the status-poll period of a client waiting for a
	// fresh job; it bounds job_s resolution. Cache hits are terminal in
	// the submit answer and never poll.
	pollInterval = 2 * time.Millisecond
	// replayPerSpec is how many fresh cells of each spec are re-run in
	// process after the load to time the synthesis itself (synth_s_p50)
	// and its checkpoint saves and certification. The same number per
	// spec keeps the median from depending on which specs the seed drew.
	replayPerSpec = 16
)

// serveGA is the GA budget of every fresh job.
var serveGA = serve.GAParams{PopSize: 2, MaxGenerations: 5, Stagnation: 5}

// serveSpecs are the specifications fresh jobs draw from.
var serveSpecs = []string{"muls"}

// jobRequest builds the request of one cell; a resubmission of the same
// cell is the same request.
func jobRequest(texts []specText, spec int, seed int64) serve.JobRequest {
	return serve.JobRequest{Spec: string(texts[spec].text), Seed: seed, GA: serveGA}
}

// synthOptions are the synth.Options the server runs a jobRequest with.
func synthOptions(seed int64) synth.Options {
	return synth.Options{
		GA:      ga.Config{PopSize: serveGA.PopSize, MaxGenerations: serveGA.MaxGenerations, Stagnation: serveGA.Stagnation},
		Seed:    seed,
		Certify: true,
	}
}

// instance is one running server on a loopback listener.
type instance struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	reg      *obs.Registry
	cacheDir string
	http     *http.Client
	cancel   context.CancelFunc
	served   chan struct{}
}

// startServer builds a server on fresh data and cache directories under
// dir and returns once /readyz answers 200. It polls /readyz back to back,
// without sleeping, so timer slack does not add to setup_s.
func startServer(dir string, lifecycle *obs.Run) (*instance, error) {
	start := time.Now()
	reg := obs.NewRegistry()
	cacheDir := filepath.Join(dir, "cache")
	srv, err := serve.New(serve.Config{
		Workers: serveWorkers, DataDir: filepath.Join(dir, "data"), CacheDir: cacheDir,
		CheckpointEvery: serveCheckpointEvery, Registry: reg, Lifecycle: lifecycle,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		_ = srv.Shutdown(context.Background()) // nothing ran yet
		return nil, err
	}
	in := &instance{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		reg: reg, cacheDir: cacheDir, cancel: cancel, served: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1}},
	}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // ErrServerClosed after stop
	}()
	for {
		resp, err := in.http.Get(in.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 10*time.Second {
			in.stop()
			return nil, fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
	}
	return in, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx) // a timeout leaves nothing to retry
	<-in.served
	_ = in.srv.Shutdown(ctx)
	in.cancel()
	in.http.CloseIdleConnections()
}

// client returns a serve.Client that does not retry: a refused request
// (429 or 503) is a failed operation, not a hidden delay.
func (in *instance) client() *serve.Client {
	return &serve.Client{BaseURL: in.base, HTTPClient: in.http, MaxAttempts: 1}
}

// freshJob is a completed fresh submission; power and evals come from
// its fetched result.
type freshJob struct {
	id      string
	spec    int
	seed    int64
	latency time.Duration
	power   float64
	evals   int
}

// hitJob is a completed cache-hit resubmission of fresh job ref.
type hitJob struct {
	id      string
	ref     *freshJob
	latency time.Duration
}

// clientLog is what one client saw.
type clientLog struct {
	fresh   []*freshJob
	hits    []hitJob
	refused int
	t       tally
}

// runClient plays the first maxOps requests of the client's schedule, or
// fewer if the deadline passes first. Each request waits for its answer
// (closed loop). Any error, refusal, non-done state or unexpected cache
// behaviour counts as a failed operation.
func runClient(ctx context.Context, cl *serve.Client, sc *schedule, texts []specText, maxOps int, deadline time.Time, tr *spans, seg int) *clientLog {
	lg := &clientLog{}
	// byIndex maps the schedule's fresh-op index to the completed job, nil
	// when that fresh op failed.
	var byIndex []*freshJob
	for n := 0; n < maxOps && time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		o := sc.next()
		if o.hit {
			ref := byIndex[o.ref]
			if ref == nil {
				continue // the cell never completed; nothing to resubmit
			}
			view, lat, err := submit(ctx, cl, jobRequest(texts, ref.spec, ref.seed), tr, seg)
			switch {
			case err != nil:
				lg.failRequest(err)
			case view.State != serve.StateDone || !view.Cached:
				lg.t.fail("resubmission of %s: state %s cached=%v, want a done cache hit", ref.id, view.State, view.Cached)
			default:
				lg.t.ok()
				lg.hits = append(lg.hits, hitJob{id: view.ID, ref: ref, latency: lat})
			}
			continue
		}
		byIndex = append(byIndex, nil)
		start := time.Now()
		view, _, err := submit(ctx, cl, jobRequest(texts, o.spec, o.seed), tr, seg)
		if err != nil {
			lg.failRequest(err)
			continue
		}
		if view.Cached {
			lg.t.fail("fresh cell (%d, %d) answered from the cache", o.spec, o.seed)
			continue
		}
		state, err := awaitTerminal(ctx, cl, view.ID, view.State, tr, seg)
		lat := time.Since(start)
		switch {
		case err != nil:
			lg.failRequest(err)
		case state != serve.StateDone:
			lg.t.fail("job %s ended %s", view.ID, state)
		default:
			lg.t.ok()
			j := &freshJob{id: view.ID, spec: o.spec, seed: o.seed, latency: lat}
			byIndex[len(byIndex)-1] = j
			lg.fresh = append(lg.fresh, j)
		}
	}
	return lg
}

// failRequest counts a failed request; refusals are also counted apart.
func (lg *clientLog) failRequest(err error) {
	var se *serve.StatusError
	if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
		lg.refused++
	}
	lg.t.fail("request: %v", err)
}

// jobTrace is the span trace identifier of a job: job ids restart with
// every segment's fresh server.
func jobTrace(seg int, id string) string { return fmt.Sprintf("s%d/%s", seg, id) }

// submit posts one request and returns the answer and its latency; tr,
// when non-nil, receives a span under the new job's trace.
func submit(ctx context.Context, cl *serve.Client, req serve.JobRequest, tr *spans, seg int) (*serve.SubmitView, time.Duration, error) {
	start := time.Now()
	view, err := cl.Submit(ctx, req)
	lat := time.Since(start)
	if tr != nil {
		id := "refused"
		if err == nil {
			id = view.ID
		}
		tr.record(jobTrace(seg, id), "serve.Submit", 0, start, lat)
	}
	return view, lat, err
}

// awaitTerminal polls the job every pollInterval until it is terminal.
func awaitTerminal(ctx context.Context, cl *serve.Client, id string, state serve.State, tr *spans, seg int) (serve.State, error) {
	for !state.Terminal() {
		select {
		case <-ctx.Done():
			return state, ctx.Err()
		case <-time.After(pollInterval):
		}
		var end func() time.Duration
		if tr != nil {
			_, end = tr.begin(jobTrace(seg, id), "serve.Status", 0)
		}
		view, err := cl.Status(ctx, id)
		if end != nil {
			end()
		}
		if err != nil {
			return state, err
		}
		state = view.State
	}
	return state, nil
}

// window is what the clients completed during some measured time.
type window struct {
	wall time.Duration
	// user and sys are the process's CPU time over the same time: the
	// server's and both clients' work, all threads.
	user, sys time.Duration
	// fresh holds the fresh jobs whose results were fetched and certified.
	fresh   []*freshJob
	hits    []hitJob
	refused int
	// cached holds, in a traced run, the fresh jobs' entries read back
	// from the server's cache.
	cached []*cas.Entry
}

func (w *window) add(u *window) {
	w.wall += u.wall
	w.user += u.user
	w.sys += u.sys
	w.fresh = append(w.fresh, u.fresh...)
	w.hits = append(w.hits, u.hits...)
	w.refused += u.refused
	w.cached = append(w.cached, u.cached...)
}

// requests is the number of completed requests, fresh and hits.
func (w *window) requests() float64 { return float64(len(w.fresh) + len(w.hits)) }

// userPerRequest is the process's user CPU time per completed request.
func (w *window) userPerRequest() float64 { return ratio(w.user.Seconds(), w.requests()) }

// full reports whether a segment completed at least half its requests;
// one the deadline cut shorter is left out of the per-segment medians.
func (w *window) full() bool { return 2*w.requests() >= serveClients*segmentOps }

// segFigures are one segment's figures. The end-to-end ones are rates per
// second of the process's user CPU time; the wall-time latencies and rate
// are reported with the per-layer metrics (README.md says why).
type segFigures struct {
	perUserS, evalsPerUserS        float64
	perWallS, sysMSPerRequest      float64
	jobP50, jobP90, hitP50, hitP90 float64 // wall: job in s, hit in ms
}

func figures(w *window) segFigures {
	var jobS, hitMS []float64
	evals := 0
	for _, j := range w.fresh {
		jobS = append(jobS, j.latency.Seconds())
		evals += j.evals
	}
	for _, h := range w.hits {
		hitMS = append(hitMS, millis(h.latency))
	}
	f := segFigures{
		perUserS:        ratio(w.requests(), w.user.Seconds()),
		evalsPerUserS:   ratio(float64(evals), w.user.Seconds()),
		perWallS:        ratio(w.requests(), w.wall.Seconds()),
		sysMSPerRequest: ratio(millis(w.sys), w.requests()),
	}
	f.jobP50, _ = percentile(jobS, 0.5)
	f.jobP90, _ = percentile(jobS, 0.9)
	f.hitP50, _ = percentile(hitMS, 0.5)
	f.hitP90, _ = percentile(hitMS, 0.9)
	return f
}

// medianOf is the median over segments of one figure.
func medianOf(fs []segFigures, get func(segFigures) float64) float64 {
	xs := make([]float64, len(fs))
	for i, f := range fs {
		xs[i] = get(f)
	}
	return median(xs)
}

// loadSegments runs segments numbered from k until the deadline, each on
// a fresh server without tracing, and returns what they completed
// together, the figures of the segments that were not cut short, and the
// next segment number.
func loadSegments(c runConfig, texts []specText, canon [][]byte, k int, deadline time.Time, t *tally) (*window, []segFigures, int, error) {
	total := &window{}
	var figs []segFigures
	for ; time.Now().Before(deadline); k++ {
		seg, _, err := segment(filepath.Join(c.workDir, fmt.Sprintf("segment%d", k)), texts, canon, c.seed, k, deadline, nil, nil, t)
		if err != nil {
			return nil, nil, k, err
		}
		total.add(seg)
		if !seg.full() {
			fmt.Fprintf(c.report, "benchmark: segment %d: %d fresh, %d hits, cut short, left out\n", k, len(seg.fresh), len(seg.hits))
			continue
		}
		f := figures(seg)
		figs = append(figs, f)
		fmt.Fprintf(c.report, "benchmark: segment %d: %d fresh, %d hits, %.1f req/user-cpu-s, %.1f evals/user-cpu-s, %.3f sys ms/req; wall: %.1f req/s, job_s p50 %.4f p90 %.4f, hit_ms p50 %.3f p90 %.3f\n",
			k, len(seg.fresh), len(seg.hits), f.perUserS, f.evalsPerUserS, f.sysMSPerRequest, f.perWallS, f.jobP50, f.jobP90, f.hitP50, f.hitP90)
	}
	return total, figs, k, nil
}

// segmentOps is how many requests each client sends to one server. Load
// runs in segments, each against a fresh server: a server keeps every job
// it has seen in memory, so one server over a whole run would let heap
// size, and with it GC work, latency and peak memory, grow with the run
// length and the throughput. Short segments give about 20 a run, whose
// median is steadier against host contention than that of fewer, longer
// ones.
const segmentOps = 75

// segment starts a fresh server under dir and drives it with the clients
// until each sent segmentOps requests or the deadline passed. Then it
// fetches and checks every result: each fresh job must be certified and
// in the server's cache, and each cache hit must be byte-equal to the
// result of the job that computed it, the job id the server rebinds
// excepted. canon holds each spec's canonical form, which keys the cache.
// The server is stopped on return; its registry stays readable.
func segment(dir string, texts []specText, canon [][]byte, seed int64, k int, deadline time.Time, lifecycle *obs.Run, tr *spans, t *tally) (*window, *instance, error) {
	in, err := startServer(dir, lifecycle)
	if err != nil {
		return nil, nil, err
	}
	// Each segment's files go once it is done, so every segment starts on
	// the same file system state.
	defer os.RemoveAll(dir)
	defer in.stop()
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(60*time.Second))
	defer cancel()
	logs := make([]*clientLog, serveClients)
	var wg sync.WaitGroup
	user0, sys0 := rusageTimes()
	start := time.Now()
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = runClient(ctx, in.client(), newSchedule(seed, k, i, len(texts)), texts, segmentOps, deadline, tr, k)
		}(i)
	}
	wg.Wait()
	w := &window{wall: time.Since(start)}
	user1, sys1 := rusageTimes()
	w.user, w.sys = user1-user0, sys1-sys0

	cl := in.client()
	var fresh []*freshJob
	var hits []hitJob
	for _, lg := range logs {
		t.add(lg.t)
		fresh = append(fresh, lg.fresh...)
		hits = append(hits, lg.hits...)
		w.refused += lg.refused
	}
	docs := make(map[string][]byte)
	for _, j := range fresh {
		data, err := cl.Result(ctx, j.id)
		if err != nil {
			t.fail("result of %s: %v", j.id, err)
			continue
		}
		var v serve.ResultView
		if err := json.Unmarshal(data, &v); err != nil {
			t.fail("result of %s: %v", j.id, err)
			continue
		}
		if v.Certification == nil || !v.Certification.Certified || v.Partial {
			t.fail("result of %s is not certified", j.id)
			continue
		}
		t.ok()
		docs[j.id] = data
		j.power, j.evals = float64(v.AvgPower), v.Evaluations
		w.fresh = append(w.fresh, j)
	}
	for _, h := range hits {
		data, err := cl.Result(ctx, h.id)
		orig, ok := docs[h.ref.id]
		if err != nil || !ok {
			t.fail("result of hit %s (of %s): %v", h.id, h.ref.id, err)
			continue
		}
		want := bytes.Replace(orig, []byte(`"id": "`+h.ref.id+`"`), []byte(`"id": "`+h.id+`"`), 1)
		if t.check(bytes.Equal(data, want), "cache hit %s differs from the result of %s", h.id, h.ref.id) {
			w.hits = append(w.hits, h)
		}
	}
	cached := checkCache(w.fresh, canon, in.cacheDir, tr, k, t)
	if tr != nil {
		w.cached = cached // kept only to time cas.Put in a traced run
	}
	return w, in, nil
}

// checkCache reads every fresh cell back from the server's cache with
// cas.Get: each was certified and published, so each must be present.
// tr, when non-nil, receives a span per read.
func checkCache(fresh []*freshJob, canon [][]byte, cacheDir string, tr *spans, seg int, t *tally) []*cas.Entry {
	store, err := cas.Open(cacheDir, 0, cas.Metrics{})
	if err != nil {
		t.fail("open cache: %v", err)
		return nil
	}
	var entries []*cas.Entry
	for _, j := range fresh {
		key := cas.Key(canon[j.spec], synth.CanonicalOptions(synthOptions(j.seed)), []byte(synth.EngineVersion))
		var end func() time.Duration
		if tr != nil {
			_, end = tr.begin(jobTrace(seg, j.id), "cas.Get", 0)
		}
		e, found := store.Get(key)
		if end != nil {
			end()
		}
		if t.check(found, "cache has no entry for %s", j.id) {
			entries = append(entries, e)
		}
	}
	return entries
}

// canonicalSpecs returns each spec's canonical form.
func canonicalSpecs(specs []loadedSpec) ([][]byte, error) {
	canon := make([][]byte, len(specs))
	for i, ls := range specs {
		c, err := specio.Canonical(ls.sys)
		if err != nil {
			return nil, fmt.Errorf("canonical %s: %w", ls.name, err)
		}
		canon[i] = c
	}
	return canon, nil
}

// replayed is one fresh cell re-run in process.
type replayed struct {
	cpu   time.Duration
	saves int
}

// replayFresh re-runs the first fresh cells of each spec in process with
// the server's options and checkpoint cadence, timing the synthesis (its
// thread's CPU time, a millisecond or so, without the checkpoint saves,
// whose fsync work in the kernel varies from run to run), each
// runctl.Save and the certification, and checks that the power equals
// the server's.
func replayFresh(fresh []*freshJob, specs []loadedSpec, dir string, tr *spans, t *tally) []replayed {
	var out []replayed
	taken := make(map[int]int)
	for i, j := range fresh {
		if taken[j.spec] >= replayPerSpec {
			continue
		}
		taken[j.spec]++
		ls := specs[j.spec]
		trace := fmt.Sprintf("replay%d", i)
		opts := synthOptions(j.seed)
		opts.CheckpointPath = filepath.Join(dir, fmt.Sprintf("replay-%d.ckpt", i))
		opts.CheckpointEvery = serveCheckpointEvery
		saves := 0
		var saveCPU time.Duration
		opts.CheckpointSave = func(path string, cp *runctl.Checkpoint) error {
			saves++
			_, end := tr.begin(trace, "runctl.Save", 0)
			defer end()
			start := threadCPUTime()
			defer func() { saveCPU += threadCPUTime() - start }()
			return runctl.Save(path, cp)
		}
		runtime.GC()
		_, end := tr.begin(trace, "synth.Synthesize", 0)
		runtime.LockOSThread()
		start := threadCPUTime()
		res, err := synth.Synthesize(ls.sys, opts)
		cpu := threadCPUTime() - start - saveCPU
		runtime.UnlockOSThread()
		end()
		os.Remove(opts.CheckpointPath)
		if err != nil {
			t.fail("replay of %s: %v", j.id, err)
			continue
		}
		_, end = tr.begin(trace, "verify.certify", 0)
		rep := synth.CertifyEvaluation(ls.sys, res.Best, nil, verify.Options{})
		end()
		switch {
		case !rep.Certified():
			t.fail("replay of %s not certified", j.id)
		case math.Float64bits(res.Best.AvgPower) != math.Float64bits(j.power):
			t.fail("replay of %s: power %v, server reported %v", j.id, res.Best.AvgPower, j.power)
		default:
			t.ok()
		}
		out = append(out, replayed{cpu: cpu, saves: saves})
	}
	return out
}

// serveSetup is the serve-mix set-up, made setupReps times, each from a
// collected heap: read and validate the spec texts, then start a server
// on fresh directories and wait until /readyz answers 200. It returns the
// specs of the last set-up and the median set-up time, in the process's
// CPU time like the other figures: the set-up is CPU-bound, and its wall
// time also counts the host's steal. The servers are stopped again.
func serveSetup(dir string, texts []specText) ([]loadedSpec, float64, error) {
	var times []float64
	var specs []loadedSpec
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := processCPUTime()
		var err error
		specs, err = loadSpecs(texts, false)
		if err != nil {
			return nil, 0, err
		}
		in, err := startServer(filepath.Join(dir, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, (processCPUTime() - start).Seconds())
		in.stop()
	}
	return specs, median(times), nil
}

func runServeMix(c runConfig) (map[string]metric, tally, error) {
	var t tally
	resolved, err := perf.ResolveSpecs(serveSpecs)
	if err != nil {
		return nil, t, err
	}
	texts, err := renderSpecs(resolved)
	if err != nil {
		return nil, t, err
	}
	specs, setupS, err := serveSetup(c.workDir, texts)
	if err != nil {
		return nil, t, err
	}
	canon, err := canonicalSpecs(specs)
	if err != nil {
		return nil, t, err
	}
	if c.trace {
		return serveLayers(c, texts, canon, specs)
	}
	// Each segment gets its own figures, and the run reports their medians,
	// so a burst of host contention that slows one segment moves the
	// result less.
	w, figs, n, err := loadSegments(c, texts, canon, 0, time.Now().Add(c.seconds), &t)
	if err != nil {
		return nil, t, err
	}
	reps := replayFresh(w.fresh, specs, c.workDir, &spans{}, &t)

	var synthS, powers []float64
	for _, j := range w.fresh {
		powers = append(powers, j.power*1e3)
	}
	for _, r := range reps {
		synthS = append(synthS, r.cpu.Seconds())
	}
	synthP50, ns := percentile(synthS, 0.5)
	m := e2eMetrics(map[string]float64{
		"setup_s":      setupS,
		"synth_s_p50":  synthP50,
		"evals_per_s":  medianOf(figs, func(f segFigures) float64 { return f.evalsPerUserS }),
		"power_mw_geo": geomean(powers),
		"jobs_per_s":   medianOf(figs, func(f segFigures) float64 { return f.perUserS }),
		"peak_rss_mb":  peakRSSMB(),
	})
	fmt.Fprintf(c.report, "benchmark: %d clients, %d workers, %.1fs: %d fresh jobs, %d cache hits (hit share %.2f), %d refused; rates are medians over n=%d of %d segments; synth_s_p50 over n=%d replayed cells; poll interval %v; fail_frac %.4f\n",
		serveClients, serveWorkers, w.wall.Seconds(), len(w.fresh), len(w.hits),
		ratio(float64(len(w.hits)), w.requests()), w.refused, len(figs), n, ns, pollInterval, t.failFrac())
	return m, t, nil
}

// serveLayers is the traced serve-mix run: segments without tracing for
// half the run time, which give the wall-time latencies and rate, then
// segments against servers recording lifecycle spans while the clients
// time every request, then timed replays of the checkpoint, cache and
// certification paths.
func serveLayers(c runConfig, texts []specText, canon [][]byte, specs []loadedSpec) (map[string]metric, tally, error) {
	var t tally
	vals := map[string]float64{}
	half := time.Now().Add(c.seconds / 2)
	end := half.Add(c.seconds / 2)
	wu, figs, k, err := loadSegments(c, texts, canon, 0, half, &t)
	if err != nil {
		return nil, t, err
	}
	for name, get := range map[string]func(segFigures) float64{
		"serve.job_ms_p50":          func(f segFigures) float64 { return f.jobP50 * 1e3 },
		"serve.job_ms_p90":          func(f segFigures) float64 { return f.jobP90 * 1e3 },
		"serve.hit_ms_p50":          func(f segFigures) float64 { return f.hitP50 },
		"serve.hit_ms_p90":          func(f segFigures) float64 { return f.hitP90 },
		"serve.requests_per_wall_s": func(f segFigures) float64 { return f.perWallS },
		"serve.sys_ms_per_request":  func(f segFigures) float64 { return f.sysMSPerRequest },
	} {
		vals[name] = medianOf(figs, get)
	}
	wt := &window{}
	tr := &spans{}
	var queue, attempt, persist []float64
	var shed, retried, cacheHits, cacheMisses uint64
	for ; time.Now().Before(end); k++ {
		dir := filepath.Join(c.workDir, fmt.Sprintf("segment%d", k))
		sink := &obs.CollectSink{}
		seg, in, err := segment(dir, texts, canon, c.seed, k, end, obs.NewRun(obs.NewRegistry(), sink), tr, &t)
		if err != nil {
			return nil, t, err
		}
		wt.add(seg)
		q, a, p := lifecycleDwells(sink.Events(), tr, k)
		queue, attempt, persist = append(queue, q...), append(attempt, a...), append(persist, p...)
		shed += in.reg.Counter("serve.jobs_shed").Value()
		retried += in.reg.Counter("serve.jobs_retried").Value()
		cacheHits += in.reg.Counter("serve.cache_hits").Value()
		cacheMisses += in.reg.Counter("serve.cache_misses").Value()
		timePut(seg.cached, filepath.Join(c.workDir, fmt.Sprintf("cas-put%d", k)), tr, k, &t)
	}
	vals["obs.trace_overhead_frac"] = ratio(wt.userPerRequest()-wu.userPerRequest(), wu.userPerRequest())
	vals["serve.submit_ms_p50"] = tr.p50MS("serve.Submit")
	vals["serve.status_ms_p50"] = tr.p50MS("serve.Status")
	vals["serve.queue_ms_p50"] = median(queue)
	vals["serve.attempt_ms_p50"] = median(attempt)
	vals["serve.persist_ms_p50"] = median(persist)
	vals["serve.shed_count"] = float64(shed)
	vals["serve.retries"] = float64(retried)
	vals["cas.hit_frac"] = ratio(float64(cacheHits), float64(cacheHits+cacheMisses))
	vals["cas.get_us"] = tr.meanUS("cas.Get")
	vals["cas.put_ms"] = tr.meanMS("cas.Put")

	reps := replayFresh(wt.fresh, specs, c.workDir, tr, &t)
	saves := 0
	for _, r := range reps {
		saves += r.saves
	}
	vals["runctl.save_ms"] = tr.meanMS("runctl.Save")
	vals["runctl.saves_per_job"] = ratio(float64(saves), float64(len(reps)))
	vals["verify.certify_ms"] = tr.meanMS("verify.certify")

	timeSpecio(texts, specs, tr)
	vals["specio.read_us"] = tr.meanUS("specio.Read")
	vals["specio.canonical_us"] = tr.meanUS("specio.Canonical")
	vals["fail_frac"] = t.failFrac()

	where, err := tr.write(c.spanDir, fmt.Sprintf("spans-serve-mix-seed%d.jsonl", c.seed))
	if err != nil {
		return nil, t, err
	}
	fmt.Fprintf(c.report, "benchmark: traced %d fresh + %d hits, untraced %d + %d; lifecycle n=%d; spans in %s\n",
		len(wt.fresh), len(wt.hits), len(wu.fresh), len(wu.hits), len(attempt), where)
	return layerMetrics(vals), t, nil
}

// lifecycleDwells splits each fresh job's life from its lifecycle events:
// queue is the queued dwell reported on the attempt event, attempt the
// running dwell reported on the terminal event (measured before the
// result is persisted), and persist the rest of the way to the terminal
// event, which the server emits once the result is durable and revealed.
// Each split is also recorded as a span. Events other than job events are
// skipped.
func lifecycleDwells(events []*obs.Event, tr *spans, seg int) (queue, attempt, persist []float64) {
	started := make(map[string]int64)
	for _, e := range events {
		j := e.Job
		if j == nil {
			continue
		}
		switch j.Event {
		case obs.JobAttempt:
			started[j.Job] = e.T
			queue = append(queue, float64(j.DwellNs)/1e6)
			tr.record(jobTrace(seg, j.Job), "serve.queue", 0, time.Unix(0, e.T-j.DwellNs), time.Duration(j.DwellNs))
		case obs.JobTerminal:
			begin, ok := started[j.Job]
			if !ok {
				continue // cache hits never start
			}
			attempt = append(attempt, float64(j.DwellNs)/1e6)
			p := e.T - begin - j.DwellNs
			persist = append(persist, float64(p)/1e6)
			tr.record(jobTrace(seg, j.Job), "serve.attempt", 0, time.Unix(0, begin), time.Duration(j.DwellNs))
			tr.record(jobTrace(seg, j.Job), "serve.persist", 0, time.Unix(0, begin+j.DwellNs), time.Duration(p))
		}
	}
	return queue, attempt, persist
}

// timePut times cas.Put of the entries read from a server's cache into a
// fresh store under putDir.
func timePut(entries []*cas.Entry, putDir string, tr *spans, seg int, t *tally) {
	store, err := cas.Open(putDir, 0, cas.Metrics{})
	if err != nil {
		t.fail("open cache copy: %v", err)
		return
	}
	for _, e := range entries {
		_, end := tr.begin(jobTrace(seg, e.Key), "cas.Put", 0)
		err := store.Put(e)
		end()
		t.check(err == nil, "cache put of %s: %v", e.Key, err)
	}
}
