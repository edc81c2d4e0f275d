package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"momosyn/internal/serve"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	v, n := percentile([]float64{4, 1, 3, 2}, 0.5)
	if v != 2.5 || n != 4 {
		t.Fatalf("percentile = (%v, %d), want (2.5, 4)", v, n)
	}
	v, n = percentile([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9)
	if v != 100 || n != 11 {
		t.Fatalf("p90 = (%v, %d), want (100, 11)", v, n)
	}
	v, n = percentile(nil, 0.5)
	if !math.IsNaN(v) || n != 0 {
		t.Fatalf("empty percentile = (%v, %d), want (NaN, 0)", v, n)
	}
}

func take(s *schedule, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestScheduleIsSeeded(t *testing.T) {
	const n = 500
	a := take(newSchedule(7, 0, 1, 12), n)
	b := take(newSchedule(7, 0, 1, 12), n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two schedules of seed 7: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := take(newSchedule(8, 0, 1, 12), n)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if d := take(newSchedule(7, 0, 0, 12), n); d[0] == a[0] {
		t.Fatal("clients 0 and 1 of one seed start with the same op")
	}
	if e := take(newSchedule(7, 1, 1, 12), n); e[0] == a[0] {
		t.Fatal("segments 0 and 1 of one seed start with the same op")
	}

	hits, fresh := 0, 0
	for i, o := range a {
		if o.hit {
			hits++
			if o.ref >= fresh {
				t.Fatalf("op %d resubmits fresh op %d of only %d", i, o.ref, fresh)
			}
			continue
		}
		if o.spec < 0 || o.spec >= 12 {
			t.Fatalf("op %d names spec %d of 12", i, o.spec)
		}
		fresh++
	}
	if a[0].hit {
		t.Fatal("the first op resubmits a cell before any completed")
	}
	if share := float64(hits) / n; math.Abs(share-hitShare) > 0.08 {
		t.Fatalf("hit share %.3f, want about %.2f", share, hitShare)
	}
}

// A refused submission is a failed operation: it counts in fail_frac and
// is not retried away.
func TestRefusalCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	cl := &serve.Client{BaseURL: srv.URL, MaxAttempts: 1}
	texts := []specText{{name: "tiny", text: []byte("spec")}}
	lg := runClient(context.Background(), cl, newSchedule(1, 0, 0, 1), texts, 1000, time.Now().Add(50*time.Millisecond), nil, 0)
	if lg.t.attempted == 0 {
		t.Fatal("no request was attempted")
	}
	if lg.t.failed != lg.t.attempted || lg.refused != lg.t.failed {
		t.Fatalf("attempted %d, failed %d, refused %d; want every request failed as refused",
			lg.t.attempted, lg.t.failed, lg.refused)
	}
	if f := lg.t.failFrac(); f != 1 {
		t.Fatalf("fail_frac = %v, want 1", f)
	}
}

// BENCHMARK.json must declare exactly the metrics the program reports,
// with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(units))
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: declared unit %q, program unit %q (reported %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eUnits)
	check("per_layer", doc.PerLayer, layerUnits)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}
