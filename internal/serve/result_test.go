package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"momosyn/internal/cas"
	"momosyn/internal/obs"
)

// viewFloats are the plain float64 values random views draw from: both
// format switches of encoding/json, negative zero and the extremes.
var viewFloats = []float64{0, math.Copysign(0, -1), 1, 0.0006000000000000001, 1e-6, 9.99e-7, 2.5e-9,
	1e20, 1e21, 3.3, 0.1, -12.5, math.MaxFloat64, math.SmallestNonzeroFloat64}

// randomView builds a ResultView whose shape (omitted fields, nil and
// empty slices and maps, ±Inf and NaN power figures, strings that need
// escaping) is drawn from r, with text taken from s.
func randomView(r *rand.Rand, s string) ResultView {
	str := func() string {
		switch r.Intn(4) {
		case 0:
			return ""
		case 1:
			return "plain"
		case 2:
			return "odd <name> & \"q\" \\ \t\n  é \xff"
		default:
			if s == "" {
				return s
			}
			i := r.Intn(len(s))
			return s[i : i+r.Intn(len(s)-i+1)]
		}
	}
	flt := func() float64 { return viewFloats[r.Intn(len(viewFloats))] }
	ofl := func() obs.Float {
		switch r.Intn(6) {
		case 0:
			return obs.Float(math.Inf(1))
		case 1:
			return obs.Float(math.Inf(-1))
		case 2:
			return obs.Float(math.NaN())
		default:
			return obs.Float(flt())
		}
	}
	v := ResultView{
		ID: str(), State: State(str()), System: str(), Seed: r.Int63() - r.Int63(), DVS: r.Intn(2) == 0,
		AvgPower: ofl(), ObjectivePower: ofl(), Feasible: r.Intn(2) == 0, Partial: r.Intn(2) == 0,
		Reason: str(), Generations: r.Intn(3) * r.Int(), Evaluations: r.Intn(1000), Restarts: r.Intn(2) * r.Intn(5),
		Elapsed: str(), ResumedFrom: r.Intn(2) * r.Intn(100),
	}
	if r.Intn(4) > 0 {
		v.Modes = []ModeView{}
		for m := r.Intn(3); m > 0; m-- {
			mv := ModeView{Name: str(), Prob: flt(), Period: flt(), Makespan: flt(),
				DynamicW: ofl(), StaticW: ofl(), WeightedW: ofl()}
			if r.Intn(4) > 0 {
				mv.Schedule = []SlotView{}
				for k := r.Intn(4); k > 0; k-- {
					sv := SlotView{Task: str(), PE: str(), Start: flt(), Finish: flt(), Energy: ofl()}
					if r.Intn(2) == 0 {
						sv.Voltage = flt()
					}
					mv.Schedule = append(mv.Schedule, sv)
				}
			}
			v.Modes = append(v.Modes, mv)
		}
	}
	if r.Intn(4) > 0 {
		v.Mapping = []MappingView{}
		for m := r.Intn(3); m > 0; m-- {
			mp := MappingView{Mode: str()}
			if r.Intn(4) > 0 {
				mp.Tasks = map[string]string{}
				for k := r.Intn(5); k > 0; k-- {
					mp.Tasks[str()] = str()
				}
			}
			v.Mapping = append(v.Mapping, mp)
		}
	}
	if r.Intn(3) > 0 {
		cv := &CertificationView{Certified: r.Intn(2) == 0, Checks: r.Intn(500), ClaimFeasible: r.Intn(2) == 0}
		switch r.Intn(3) {
		case 0:
		case 1:
			cv.Violations = []ViolationView{}
		default:
			for k := 1 + r.Intn(3); k > 0; k-- {
				cv.Violations = append(cv.Violations, ViolationView{Kind: str(), Mode: str(), Detail: str(), Got: ofl(), Want: ofl()})
			}
		}
		v.Certification = cv
	}
	return v
}

// checkResultWriter compares appendResult with json.MarshalIndent on v:
// the same bytes, or an error from both.
func checkResultWriter(t *testing.T, v *ResultView) {
	t.Helper()
	want, werr := json.MarshalIndent(v, "", "  ")
	got, gerr := appendResult(nil, v)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("MarshalIndent error %v, appendResult error %v", werr, gerr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendResult differs from MarshalIndent:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestResultWriterMatchesMarshal pins the hand-written result document to
// json.MarshalIndent of the ResultView, byte for byte, over a fixed view
// with every field set and a thousand random ones; a plain float that is
// ±Inf or NaN must be refused as encoding/json refuses it.
func TestResultWriterMatchesMarshal(t *testing.T) {
	full := ResultView{
		ID: "j000007", State: StateDone, System: "odd <sys> & \"name\"", Seed: -4, DVS: true,
		AvgPower: 0.0006000000000000001, ObjectivePower: obs.Float(math.Inf(1)), Partial: true, Reason: "deadline",
		Generations: 25, Evaluations: 312, Restarts: 1, Elapsed: "12ms", ResumedFrom: 3,
		Modes: []ModeView{{
			Name: "m0", Prob: 0.7, Period: 0.1, Makespan: 0.011, DynamicW: 1e-3, StaticW: obs.Float(math.NaN()), WeightedW: 7e-7,
			Schedule: []SlotView{{Task: "a", PE: "cpu", Start: 0, Finish: 0.01, Voltage: 3.3, Energy: 4e-5}, {Task: "b", PE: "hw", Finish: 1e-3}},
		}, {Name: "m1", Prob: 0.3, Period: 0.1, Schedule: []SlotView{}}},
		Mapping: []MappingView{{Mode: "m0", Tasks: map[string]string{"b": "hw", "a": "cpu", "B": "x", "é": "<"}}, {Mode: "m1", Tasks: map[string]string{}}},
		Certification: &CertificationView{Certified: true, Checks: 42,
			Violations: []ViolationView{{Kind: "deadline", Mode: "m0", Detail: "late <by> 1ms", Got: 2, Want: obs.Float(math.Inf(-1))}}},
	}
	checkResultWriter(t, &full)
	checkResultWriter(t, &ResultView{})
	bad := full
	bad.Modes = []ModeView{{Name: "m0", Period: math.Inf(1)}}
	checkResultWriter(t, &bad)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := randomView(r, "task\x00<&>  ünï\xc3")
		checkResultWriter(t, &v)
	}
}

// FuzzResultWriter checks appendResult against json.MarshalIndent on
// random ResultViews: seed draws the shape, text supplies the strings.
//
//	go test -run '^$' -fuzz '^FuzzResultWriter$' -fuzztime 10s ./internal/serve
func FuzzResultWriter(f *testing.F) {
	f.Add(int64(1), "mul1 cpu0 asic1")
	f.Add(int64(7), "odd <name> & \"q\"\n\xff")
	f.Fuzz(func(t *testing.T, seed int64, text string) {
		v := randomView(rand.New(rand.NewSource(seed)), text)
		checkResultWriter(t, &v)
	})
}

// TestCachedResultSplice: a result document published through the cache
// and read back is served with only its id swapped, and the outcome is
// byte-identical to encoding/json's rendering of the same view under the
// new id (the shorter, same-length and longer ids shift the rest of the
// document). A head that is not a done job's id as renderResult writes it
// is refused.
func TestCachedResultSplice(t *testing.T) {
	view := ResultView{
		ID: "j000007", State: StateDone, System: "odd <sys> & \"name\"", Seed: -4, DVS: true,
		AvgPower: 0.0123, ObjectivePower: 0.0125, Feasible: true, Generations: 25, Evaluations: 312, Elapsed: "12ms",
		Modes: []ModeView{{Name: "m0", Prob: 1, Period: 0.1, Makespan: 0.011, DynamicW: 1e-3, StaticW: 2e-4, WeightedW: 1.2e-3,
			Schedule: []SlotView{{Task: "a", PE: "cpu", Finish: 0.01, Voltage: 3.3, Energy: 4e-5}}}},
		Mapping:       []MappingView{{Mode: "m0", Tasks: map[string]string{"a": "cpu"}}},
		Certification: &CertificationView{Certified: true, Checks: 42, ClaimFeasible: true},
	}
	doc, err := appendResult(nil, &view)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cas.Open(t.TempDir(), 0, cas.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	key := cas.Key([]byte("splice"))
	if err := store.Put(&cas.Entry{Key: key, System: view.System,
		Provenance: cas.Provenance{EngineVersion: "test", Certified: true}, Result: doc}); err != nil {
		t.Fatal(err)
	}
	e, ok := store.Get(key)
	if !ok {
		t.Fatal("entry not found")
	}
	for _, id := range []string{"j1", "j000042", "j1234567"} {
		v := view
		v.ID = id
		want, err := json.MarshalIndent(&v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, ok := spliceID(e.Result, id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("id %s: splice (ok %v) differs from MarshalIndent:\n--- got\n%s\n--- want\n%s", id, ok, got, want)
		}
	}
	if !bytes.Equal(e.Result, doc) {
		t.Fatal("the splice changed the cached bytes")
	}
	for _, raw := range []string{
		"{\n  \"id\": \"j000001\",\n  \"state\": \"failed\",\n  \"system\": \"s\"\n}",
		"{\n  \"state\": \"done\",\n  \"id\": \"j000001\",\n  \"system\": \"s\"\n}",
		"{\n  \"id\": \"j00\\\"01\",\n  \"state\": \"done\",\n  \"system\": \"s\"\n}",
		"{\n  \"id\": \"x000001\",\n  \"state\": \"done\",\n  \"system\": \"s\"\n}",
		"{\n  \"id\": \"j000001\"",
		"{\"id\": \"j000001\", \"state\": \"done\", \"system\": \"s\"}",
	} {
		if doc, ok := spliceID([]byte(raw), "j000002"); ok {
			t.Fatalf("spliceID trusted the head of %q: %s", raw, doc)
		}
	}
}

// TestCacheHitAllocs pins the allocations of one cache hit through the
// job API's handler (mul1 at serve-mix's budget, as BenchmarkSubmit/hit):
// the request decode, spec parse, canonical form and key, the entry read
// and the id splice, and the hit job's two durable files. The ceiling has
// headroom over the measured count; a hit that re-parses or re-encodes
// its result document again would exceed it by hundreds.
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop parsers at random")
	}
	const ceiling = 350
	body := mul1Request(t, 1)
	s, err := New(Config{Workers: 1, DataDir: t.TempDir(), CacheDir: t.TempDir(), CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	t.Cleanup(func() {
		cancel()
		_ = s.Shutdown(context.Background())
	})
	h := s.Handler()
	submit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	first := submit()
	var view SubmitView
	if err := json.Unmarshal(first.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.jobs[view.ID]
	s.mu.Unlock()
	for !j.snapshot().State.Terminal() {
		time.Sleep(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(20, func() { submit() })
	if hits := s.reg.Counter("serve.cache_hits").Value(); hits < 20 {
		t.Fatalf("%d cache hits, want every resubmission to hit", hits)
	}
	if allocs > ceiling {
		t.Fatalf("a cache hit makes %.0f allocations, more than the ceiling of %d", allocs, ceiling)
	}
	t.Logf("a cache hit makes %.0f allocations", allocs)
}
