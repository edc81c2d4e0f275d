package synth

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// bitsDiff describes the first difference between a and b, comparing
// floats by bit pattern (so -0 differs from +0 and NaN equals itself), or
// returns "" when they are identical. The description starts with the
// path below a and b; it is only formatted once a difference is found.
func bitsDiff(a, b reflect.Value) string {
	if a.Kind() != b.Kind() {
		return fmt.Sprintf(": kind %v vs %v", a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf(": %v vs %v", a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf(": %d vs %d", a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf(": %v vs %v", a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf(": %q vs %q", a.String(), b.String())
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": length %d vs %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitsDiff(a.Index(i), b.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf(": nil %v vs %v", a.IsNil(), b.IsNil())
			}
			return ""
		}
		return bitsDiff(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitsDiff(a.Field(i), b.Field(i)); d != "" {
				return "." + a.Type().Field(i).Name + d
			}
		}
	default:
		return fmt.Sprintf(": cannot compare kind %v", a.Kind())
	}
	return ""
}

// diffOf is bitsDiff on two values, prefixed with what they are.
func diffOf(what string, a, b any) string {
	if d := bitsDiff(reflect.ValueOf(a), reflect.ValueOf(b)); d != "" {
		return what + d
	}
	return ""
}

// checkTopoOrders compares every mode's cached topological order with the
// reference sort.
func checkTopoOrders(sys *model.System) string {
	for m, mode := range sys.App.Modes {
		want, werr := refTopoOrder(mode.Graph)
		got, gerr := mode.Graph.TopoOrder()
		if (werr == nil) != (gerr == nil) {
			return fmt.Sprintf("mode %d: topo error %v vs %v", m, werr, gerr)
		}
		if d := diffOf(fmt.Sprintf("mode %d order", m), want, got); d != "" {
			return d
		}
	}
	return ""
}

// checkDifferential evaluates the mapping with the reference pipeline and
// with e, and reports the first difference in the mobilities, the core
// allocation, the per-mode schedules or the evaluation. With DVS off it
// also checks the public layer functions benchmark replays call.
func checkDifferential(e *Evaluator, mapping model.Mapping) string {
	s := e.Sys
	ref, rerr := refEvaluate(e, mapping)
	got, err := e.Evaluate(mapping)
	if (rerr == nil) != (err == nil) {
		return fmt.Sprintf("error %v vs %v", rerr, err)
	}
	if err != nil {
		return ""
	}
	// The scratch still holds this mapping's mobilities.
	for m := range s.App.Modes {
		if d := diffOf(fmt.Sprintf("mobility[%d]", m), *ref.mob[m], e.scratch.mobs[m]); d != "" {
			return d
		}
	}
	for m := range s.App.Modes {
		for _, pe := range s.Arch.PEs {
			for _, tt := range s.Lib.Types {
				want := ref.alloc.Instances(model.ModeID(m), pe.ID, tt.ID)
				if n := got.Alloc.Instances(model.ModeID(m), pe.ID, tt.ID); n != want {
					return fmt.Sprintf("instances mode %d pe %d type %d: %d vs %d", m, pe.ID, tt.ID, want, n)
				}
			}
		}
	}
	if d := diffOf("UsedArea", ref.alloc.UsedArea, got.Alloc.UsedArea); d != "" {
		return d
	}
	if d := diffOf("Violation", ref.alloc.Violation, got.Alloc.Violation); d != "" {
		return d
	}
	for i, tr := range s.App.Transitions {
		if d := diffOf(fmt.Sprintf("TransitionTime[%d]", i), ref.alloc.TransitionTime(s, tr), got.Alloc.TransitionTime(s, tr)); d != "" {
			return d
		}
	}
	if d := diffOf("ev", ref.ev, got); d != "" {
		return d
	}
	if e.UseDVS {
		return ""
	}
	mob := make([]*sched.Mobility, len(s.App.Modes))
	for m := range s.App.Modes {
		mm, err := sched.ComputeMobility(s, model.ModeID(m), mapping)
		if err != nil {
			return fmt.Sprintf("ComputeMobility: %v", err)
		}
		mob[m] = mm
	}
	alloc := AllocateCoresWith(s, mapping, mob, e.NoReplicaCores)
	if d := diffOf("AllocateCoresWith", got.Alloc, alloc); d != "" {
		return d
	}
	for m := range s.App.Modes {
		sc, err := sched.ListSchedule(s, model.ModeID(m), mapping, alloc, mob[m])
		if err != nil {
			return fmt.Sprintf("ListSchedule: %v", err)
		}
		if d := diffOf(fmt.Sprintf("ListSchedule[%d]", m), ref.ev.Schedules[m], sc); d != "" {
			return d
		}
	}
	return ""
}

// randomGenome draws one genome uniformly over the codec's alleles.
func randomGenome(codec *Codec, rng *rand.Rand) []int {
	g := make([]int, codec.Len())
	for k := range g {
		g[k] = rng.Intn(codec.Alleles(k))
	}
	return g
}

// TestEvaluateDifferential runs the reference inner loop against the live
// one on random mappings of every shipped specification, with DVS off and
// on and without replica cores: every slot, instance count, area and float
// of the evaluation must agree bit for bit.
func TestEvaluateDifferential(t *testing.T) {
	configs := []struct {
		name        string
		dvs, noRepl bool
		mappings    int
	}{
		{"dvs=off", false, false, 200},
		{"dvs=on", true, false, 200},
		{"noreplicas", false, true, 50},
	}
	for i, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		if d := checkTopoOrders(sys); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			e := NewEvaluator(sys, c.dvs)
			e.NoReplicaCores = c.noRepl
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			for k := 0; k < c.mappings; k++ {
				if d := checkDifferential(e, codec.Decode(randomGenome(codec, rng))); d != "" {
					t.Fatalf("%s %s mapping %d: %s", name, c.name, k, d)
				}
			}
		}
	}
}

// TestEvaluateDifferentialUnroutable repeats the comparison with the last
// PE detached from every link. The shipped specifications connect every
// PE pair, so only this variant reaches the unroutable-communication paths
// of mobility, scheduling and the timing penalty.
func TestEvaluateDifferentialUnroutable(t *testing.T) {
	for i, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		last := model.PEID(len(sys.Arch.PEs) - 1)
		for _, cl := range sys.Arch.CLs {
			kept := cl.PEs[:0:0]
			for _, pe := range cl.PEs {
				if pe != last {
					kept = append(kept, pe)
				}
			}
			cl.PEs = kept
		}
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		unroutable := 0
		for _, useDVS := range []bool{false, true} {
			e := NewEvaluator(sys, useDVS)
			rng := rand.New(rand.NewSource(int64(2000 + i)))
			for k := 0; k < 50; k++ {
				mapping := codec.Decode(randomGenome(codec, rng))
				if d := checkDifferential(e, mapping); d != "" {
					t.Fatalf("%s dvs=%v mapping %d: %s", name, useDVS, k, d)
				}
				if ev, err := e.evaluate(mapping); err == nil && ev.Unroutable > 0 {
					unroutable++
				}
			}
		}
		if unroutable == 0 {
			t.Errorf("%s: no mapping had an unroutable communication; the variant tests nothing", name)
		}
	}
}

// TestEvaluateScratchReuse evaluates A, then B, then A again on one
// evaluator: both A results must be bit-identical to the reference, so the
// first is untouched by the later evaluations (the copy owns its memory)
// and the second is untouched by B's leftovers (no stale scratch). The
// scratch path is checked the same way, except that modes the per-mode
// memo serves there carry nil schedules; the second A must be served.
func TestEvaluateScratchReuse(t *testing.T) {
	for _, name := range []string{"smartphone", "sdr", "mul3"} {
		sys := loadSpec(t, name)
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for _, useDVS := range []bool{false, true} {
			served := 0
			for k := 0; k < 20; k++ {
				a := codec.Decode(randomGenome(codec, rng))
				b := codec.Decode(randomGenome(codec, rng))
				e := NewEvaluator(sys, useDVS)
				refA, err := refEvaluate(e, a)
				if err != nil {
					t.Fatal(err)
				}
				refB, err := refEvaluate(e, b)
				if err != nil {
					t.Fatal(err)
				}
				a1, err := e.Evaluate(a)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.Evaluate(b); err != nil {
					t.Fatal(err)
				}
				a2, err := e.Evaluate(a)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffOf("first A", refA.ev, a1); d != "" {
					t.Fatalf("%s dvs=%v pair %d: %s", name, useDVS, k, d)
				}
				if d := diffOf("second A", refA.ev, a2); d != "" {
					t.Fatalf("%s dvs=%v pair %d: %s", name, useDVS, k, d)
				}

				// The scratch results, each read before the next call.
				for i, c := range []struct {
					mapping model.Mapping
					ref     *refEvaluation
				}{{a, refA}, {b, refB}, {a, refA}} {
					got, err := e.evaluate(c.mapping)
					if err != nil {
						t.Fatal(err)
					}
					if d := scratchDiff(fmt.Sprintf("scratch %d", i), c.ref.ev, got); d != "" {
						t.Fatalf("%s dvs=%v pair %d: %s", name, useDVS, k, d)
					}
					if i == 2 {
						served += servedModes(got)
					}
				}
			}
			if served == 0 {
				t.Errorf("%s dvs=%v: the memo served no mode of a repeated mapping", name, useDVS)
			}
		}
	}
}

// scratchDiff is diffOf for a scratch evaluation against a complete one:
// the schedules of modes the memo served (nil in got) are not compared;
// every other field, schedules included, must be bit-identical.
func scratchDiff(what string, want, got *Evaluation) string {
	w := *want
	w.Schedules = slices.Clone(want.Schedules)
	for m, sc := range got.Schedules {
		if sc == nil {
			w.Schedules[m] = nil
		}
	}
	return diffOf(what, &w, got)
}

// servedModes counts the modes of a scratch evaluation the memo served.
func servedModes(ev *Evaluation) int {
	n := 0
	for _, sc := range ev.Schedules {
		if sc == nil {
			n++
		}
	}
	return n
}

// TestEvaluateAllocFreeOnSpecs extends the Evaluator.evaluate pin to every
// shipped specification: once the scratch has seen a set of mappings,
// evaluating them again allocates nothing, with DVS off and on.
func TestEvaluateAllocFreeOnSpecs(t *testing.T) {
	for _, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, useDVS := range []bool{false, true} {
			rng := rand.New(rand.NewSource(11))
			mappings := make([]model.Mapping, 8)
			e := NewEvaluator(sys, useDVS)
			for i := range mappings {
				mappings[i] = codec.Decode(randomGenome(codec, rng))
				if _, err := e.evaluate(mappings[i]); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(len(mappings)*4, func() {
				_, _ = e.evaluate(mappings[i%len(mappings)])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s dvs=%v: evaluate allocates %.2f times per call after warm-up", name, useDVS, allocs)
			}
		}
	}
}

// TestMaxOverlapMatchesSweep compares the allocation-free overlap count
// with the reference event sweep on windows with many equal endpoints.
func TestMaxOverlapMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(9)
		mob := &sched.Mobility{ASAP: make([]float64, n), ALAP: make([]float64, n), Exec: make([]float64, n)}
		tasks := make([]model.TaskID, n)
		for i := 0; i < n; i++ {
			// Quarter-unit grid: touching and identical windows are common.
			mob.ASAP[i] = float64(rng.Intn(8)) / 4
			mob.Exec[i] = float64(1+rng.Intn(4)) / 4
			mob.ALAP[i] = mob.ASAP[i] + float64(rng.Intn(6)-2)/4
			tasks[i] = model.TaskID(i)
		}
		tasks = tasks[:rng.Intn(n+1)]
		if got, want := mob.MaxOverlap(tasks), refMaxOverlap(mob, tasks); got != want {
			t.Fatalf("trial %d: MaxOverlap = %d, sweep = %d (mob %+v, tasks %v)", trial, got, want, mob, tasks)
		}
	}
}

// FuzzEvaluateDifferential decodes the input into a genome of the SDR
// specification (FPGA reconfiguration included) and runs the differential
// comparison with DVS off and on. It then reads the input as a sequence on
// the fitness path of two evaluators made for the input, so their per-mode
// memos, result and row tables alike, fill and serve within it: the genome itself, then one locus moved
// per later byte pair, each step compared with a complete evaluation. An
// input's memo state depends on the input alone, so a saved crasher replays.
func FuzzEvaluateDifferential(f *testing.F) {
	sys := loadSpec(f, "sdr")
	codec, err := NewCodec(sys)
	if err != nil {
		f.Fatal(err)
	}
	evals := []*Evaluator{NewEvaluator(sys, false), NewEvaluator(sys, true)}
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("differential harness seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		genome := make([]int, codec.Len())
		for k := range genome {
			if k < len(data) {
				genome[k] = int(data[k]) % codec.Alleles(k)
			}
		}
		mapping := codec.Decode(genome)
		for _, e := range evals {
			if d := checkDifferential(e, mapping); d != "" {
				t.Fatalf("dvs=%v: %s", e.UseDVS, d)
			}
		}
		memos := []*Evaluator{NewEvaluator(sys, false), NewEvaluator(sys, true)}
		for step := 0; step < 32; step++ {
			for i, e := range memos {
				if d := checkMemoStep(e, evals[i], codec.Decode(genome)); d != "" {
					t.Fatalf("dvs=%v sequence step %d: %s", e.UseDVS, step, d)
				}
			}
			if 2*step+1 >= len(data) {
				break
			}
			k := int(data[2*step]) % len(genome)
			genome[k] = int(data[2*step+1]) % codec.Alleles(k)
		}
	})
}
