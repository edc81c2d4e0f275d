package synth

import (
	"fmt"
	"strings"
)

// EngineVersion names the synthesis engine revision for cache provenance.
// It participates in the content-addressed result key (internal/cas), so
// bumping it invalidates every cached result at once. Bump it whenever a
// change alters the search trajectory or the result schema for the same
// (spec, seed, options) — GA operator changes, evaluation-order changes,
// fitness formula changes — and leave it alone for pure speedups that are
// proven byte-identical.
//
// Version 3 orphans keys whose spec part came from the old canonical
// rendering, which printed a value in its largest unit even when that text
// parsed back to a neighbouring float (0.018 as "18ms"), so texts that parse
// to different models could share one key.
//
// Version 4 drops refine_iterations from the key: stochastic schedule
// refinement is gone, so every key now describes a plain list-scheduled run.
const EngineVersion = "momosyn-synth/4"

// CanonicalOptions renders the result-shaping subset of Options in a
// canonical, versioned byte form for content-addressed keying. Two Options
// values produce the same bytes exactly when a deterministic run under them
// yields the same certified result: runtime plumbing (Context, checkpoint
// wiring, fault budget, Obs) is excluded because it never changes the
// search trajectory, while every trajectory-shaping field — including the
// seed and each GA budget — is written out explicitly, field by field, so
// adding a new Options field forces a conscious decision here instead of
// silently keying (or not keying) on it; TestOptionsFieldsClassified
// enforces that decision.
//
// Version 2 drops the penalty weights and the GA operator settings, which
// became engine constants at the values every version 1 key carried.
func CanonicalOptions(o Options) []byte {
	var b strings.Builder
	b.WriteString("optv2\n")
	writeBool(&b, "dvs", o.UseDVS)
	writeBool(&b, "neglect", o.NeglectProbabilities)
	writeBool(&b, "dvs_sw_only", o.DVSSoftwareOnly)
	writeBool(&b, "no_replica_cores", o.NoReplicaCores)
	writeBool(&b, "no_improvement_mutations", o.NoImprovementMutations)
	writeInt(&b, "stall_window", o.StallWindow)
	fmt.Fprintf(&b, "seed=%d\n", o.Seed)
	writeBool(&b, "certify", o.Certify)
	writeInt(&b, "ga_pop_size", o.GA.PopSize)
	writeInt(&b, "ga_max_generations", o.GA.MaxGenerations)
	writeInt(&b, "ga_stagnation", o.GA.Stagnation)
	return []byte(b.String())
}

func writeBool(b *strings.Builder, key string, v bool) {
	fmt.Fprintf(b, "%s=%t\n", key, v)
}

func writeInt(b *strings.Builder, key string, v int) {
	fmt.Fprintf(b, "%s=%d\n", key, v)
}
