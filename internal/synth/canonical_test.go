package synth

import (
	"context"
	"strings"
	"testing"

	"momosyn/internal/ga"
)

// TestCanonicalOptions pins the keying contract: trajectory-shaping fields
// move the canonical bytes, runtime plumbing does not.
func TestCanonicalOptions(t *testing.T) {
	base := Options{Seed: 42, UseDVS: true, GA: ga.Config{PopSize: 32}}
	want := string(CanonicalOptions(base))
	if want == "" {
		t.Fatal("canonical options are empty")
	}
	// Refinement is gone from the engine, so it is gone from the key.
	if strings.Contains(want, "refine") {
		t.Fatalf("canonical options still key on refinement:\n%s", want)
	}

	runtime := base
	runtime.Context = context.Background()
	runtime.CheckpointPath = "/tmp/cp.json"
	runtime.CheckpointEvery = 3
	runtime.Resume = true
	runtime.FaultBudget = 7
	if got := string(CanonicalOptions(runtime)); got != want {
		t.Fatalf("runtime plumbing changed the canonical options:\n--- want\n%s\n--- got\n%s", want, got)
	}

	for name, mutate := range map[string]func(*Options){
		"seed":        func(o *Options) { o.Seed = 43 },
		"dvs":         func(o *Options) { o.UseDVS = false },
		"neglect":     func(o *Options) { o.NeglectProbabilities = true },
		"stall":       func(o *Options) { o.StallWindow = 9 },
		"certify":     func(o *Options) { o.Certify = true },
		"weights":     func(o *Options) { o.Weights.Area = 1.25 },
		"ga_pop":      func(o *Options) { o.GA.PopSize = 64 },
		"ga_maxgen":   func(o *Options) { o.GA.MaxGenerations = 10 },
		"ga_mutation": func(o *Options) { o.GA.MutationRate = 0.125 },
	} {
		opts := base
		mutate(&opts)
		if got := string(CanonicalOptions(opts)); got == want {
			t.Errorf("%s: trajectory-shaping change left canonical options unchanged", name)
		}
	}
}
