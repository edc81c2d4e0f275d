package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"momosyn/internal/cas"
	"momosyn/internal/obs"
)

// TestRewriteCachedResultFastPath: a result document published through
// the cache and read back is rebound by swapping the id in its bytes (no
// decode and re-encode round trip), and the outcome is byte-identical to
// the round trip's; a document with resume provenance to drop, or whose
// head is not what MarshalIndent writes, takes the round trip.
func TestRewriteCachedResultFastPath(t *testing.T) {
	view := ResultView{
		ID: "j000007", State: StateDone, System: "odd <sys> & \"name\"", Seed: -4, DVS: true,
		AvgPower: 0.0123, ObjectivePower: obs.Float(math.Inf(1)), Feasible: false,
		Generations: 25, Evaluations: 312, Restarts: 1, Elapsed: "12ms",
		Modes: []ModeView{{
			Name: "m0", Prob: 0.7, Period: 0.1, Makespan: 0.011, DynamicW: 1e-3, StaticW: obs.Float(math.NaN()), WeightedW: 7e-4,
			Schedule: []SlotView{{Task: "a", PE: "cpu", Start: 0, Finish: 0.01, Voltage: 3.3, Energy: 4e-5}, {Task: "b", PE: "hw", Finish: 1e-3}},
		}, {Name: "m1", Prob: 0.3, Period: 0.1}},
		Mapping: []MappingView{{Mode: "m0", Tasks: map[string]string{"b": "hw", "a": "cpu"}}, {Mode: "m1", Tasks: map[string]string{}}},
		Certification: &CertificationView{Certified: true, Checks: 42, ClaimFeasible: false,
			Violations: []ViolationView{{Kind: "deadline", Mode: "m0", Detail: "late <by> 1ms", Got: 2, Want: obs.Float(math.Inf(-1))}}},
	}
	roundTrip := func(t *testing.T, raw json.RawMessage, id string) []byte {
		var v ResultView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		v.ID, v.State, v.ResumedFrom = id, StateDone, 0
		doc, err := json.MarshalIndent(&v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	store, err := cas.Open(t.TempDir(), 0, cas.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	for i, resumedFrom := range []int{0, 17} {
		view.ResumedFrom = resumedFrom
		doc, err := json.MarshalIndent(&view, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		key := cas.Key([]byte{byte(i)})
		if err := store.Put(&cas.Entry{Key: key, System: view.System,
			Provenance: cas.Provenance{EngineVersion: "test", Certified: true}, Result: doc}); err != nil {
			t.Fatal(err)
		}
		e, ok := store.Get(key)
		if !ok {
			t.Fatal("entry not found")
		}
		for _, id := range []string{"j000042", "j1234567"} { // same and longer id
			want := roundTrip(t, e.Result, id)
			got, err := rewriteCachedResult(e.Result, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed_from %d, id %s: rewrite differs from the round trip:\n--- got\n%s\n--- want\n%s", resumedFrom, id, got, want)
			}
			fast, ok := rebindID(e.Result, view.ID, id)
			if resumedFrom != 0 {
				continue // the round trip must drop the field; rebindID is not asked
			}
			if !ok || !bytes.Equal(fast, want) {
				t.Fatalf("id %s: the published document does not take the id swap (ok %v):\n%s", id, ok, fast)
			}
		}
	}
	// Heads the swap must not trust: another state, a reordered head.
	for _, raw := range []string{
		`{"id": "j000001", "state": "failed", "system": "s"}`,
		`{"state": "done", "id": "j000001", "system": "s"}`,
	} {
		if _, ok := rebindID([]byte(raw), "j000001", "j000002"); ok {
			t.Fatalf("rebindID trusted the head of %s", raw)
		}
	}
}
