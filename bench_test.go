// Benchmarks regenerating every table and figure of the paper, plus
// micro-benchmarks of the synthesis building blocks. The table benchmarks
// run a reduced protocol (1 repetition, small GA) per iteration so the
// whole suite stays minutes-scale; cmd/mmbench runs the full protocol.
package momosyn_test

import (
	"testing"

	"momosyn/internal/bench"
	"momosyn/internal/dvs"
	"momosyn/internal/ga"
	"momosyn/internal/gen"
	"momosyn/internal/model"
	"momosyn/internal/perf"
	"momosyn/internal/sched"
	"momosyn/internal/sim"
	"momosyn/internal/synth"
)

// benchGA is the reduced engine configuration used by the table
// benchmarks.
func benchGA() ga.Config {
	return ga.Config{PopSize: 24, MaxGenerations: 60, Stagnation: 25}
}

// BenchmarkTable1 regenerates paper Table 1: mul1-mul12 without DVS,
// probability-neglecting vs proposed.
func BenchmarkTable1(b *testing.B) {
	cfg := bench.HarnessConfig{Reps: 1, GA: benchGA()}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkTable2 regenerates paper Table 2: mul1-mul12 with DVS on both
// software processors and hardware cores.
func BenchmarkTable2(b *testing.B) {
	cfg := bench.HarnessConfig{Reps: 1, GA: benchGA()}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkTable3 regenerates paper Table 3: the smart phone without and
// with DVS.
func BenchmarkTable3(b *testing.B) {
	cfg := bench.HarnessConfig{Reps: 1, GA: benchGA()}
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// reportRows folds the mean reduction into a reported metric so the
// benchmark output carries the experiment's headline number.
func reportRows(b *testing.B, rows []bench.Row) {
	sum := 0.0
	for _, r := range rows {
		sum += r.ReductionPct
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-reduction-%")
}

// BenchmarkFigure2 regenerates the motivational example of Fig. 2 by
// exhaustive search under both probability models.
func BenchmarkFigure2(b *testing.B) {
	sys, err := bench.Figure2System()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := synth.Exhaustive(nil, sys, false, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := synth.Exhaustive(nil, sys, false, synth.UniformProbs(sys)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the multiple-implementation example of
// Fig. 3 by exhaustive search.
func BenchmarkFigure3(b *testing.B) {
	sys, err := bench.Figure3System()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := synth.Exhaustive(nil, sys, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Transform measures the hardware-core DVS transformation
// of Fig. 5 (five tasks on two cores folding into virtual tasks).
func BenchmarkFigure5Transform(b *testing.B) {
	slots := []sched.TaskSlot{
		{Task: 0, Core: 0, Start: 0, Finish: 4, Power: 1e-3},
		{Task: 1, Core: 0, Start: 4, Finish: 6, Power: 2e-3},
		{Task: 2, Core: 1, Start: 1, Finish: 4, Power: 4e-3},
		{Task: 3, Core: 1, Start: 4, Finish: 5, Power: 8e-3},
		{Task: 4, Core: 1, Start: 5, Finish: 6, Power: 16e-3},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if segs := dvs.Transform(slots); len(segs) != 4 {
			b.Fatalf("expected 4 segments, got %d", len(segs))
		}
	}
}

// --- micro-benchmarks of the inner-loop building blocks -----------------

func phoneAndMapping(b *testing.B) (*model.System, model.Mapping) {
	b.Helper()
	sys, err := bench.SmartPhone()
	if err != nil {
		b.Fatal(err)
	}
	codec, err := synth.NewCodec(sys)
	if err != nil {
		b.Fatal(err)
	}
	return sys, codec.Decode(make([]int, codec.Len()))
}

// BenchmarkMobility measures ASAP/ALAP analysis of the smart phone's
// largest mode (48 tasks).
func BenchmarkMobility(b *testing.B) {
	sys, mapping := phoneAndMapping(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ComputeMobility(sys, 1, mapping); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkListSchedule measures list scheduling of the smart phone's
// largest mode.
func BenchmarkListSchedule(b *testing.B) {
	sys, mapping := phoneAndMapping(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListSchedule(sys, 1, mapping, sched.SingleCores{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDVSScale measures greedy voltage selection on a scheduled
// smart-phone mode: through a reused Scaler, as the evaluator runs it, and
// through the one-shot Scale, which sizes a fresh Scaler every call. The
// reused case also reports the greedy moves and timing passes per call.
func BenchmarkDVSScale(b *testing.B) {
	sys, mapping := phoneAndMapping(b)
	var x dvs.Scaler
	for _, bc := range []struct {
		name  string
		scale func(*sched.Schedule) bool
	}{
		{"reused", func(sc *sched.Schedule) bool { return x.Run(sys, sc, dvs.Config{}) }},
		{"oneshot", func(sc *sched.Schedule) bool { return dvs.Scale(sys, sc) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			before := x.Stats()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sc, err := sched.ListSchedule(sys, 1, mapping, sched.SingleCores{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				bc.scale(sc)
			}
			if after := x.Stats(); after.Moves > before.Moves {
				b.ReportMetric(float64(after.Moves-before.Moves)/float64(b.N), "moves/op")
				b.ReportMetric(float64(after.Passes-before.Passes)/float64(b.N), "passes/op")
			}
		})
	}
}

// BenchmarkEvaluate measures one full inner-loop evaluation (all 8 modes,
// core allocation, scheduling, penalties) of a smart-phone mapping.
func BenchmarkEvaluate(b *testing.B) {
	sys, mapping := phoneAndMapping(b)
	ev := synth.NewEvaluator(sys, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(mapping); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateDVS is BenchmarkEvaluate with voltage scaling enabled,
// exposing the inner-loop cost difference the paper reports as the much
// larger CPU times of Table 2.
func BenchmarkEvaluateDVS(b *testing.B) {
	sys, mapping := phoneAndMapping(b)
	ev := synth.NewEvaluator(sys, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(mapping); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeMul9 measures a complete GA synthesis run of one
// generated benchmark (the smallest of the twelve).
func BenchmarkSynthesizeMul9(b *testing.B) {
	sys, err := bench.MulSystem(9)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(sys, synth.Options{GA: benchGA(), Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeDVSProfile is the DVS-on profile set: smartphone,
// mul9 and mul11, each with seeds 1–3, at the paper GA defaults with
// voltage scaling and certification on. One iteration runs all nine
// syntheses; `make profile-dvs` profiles it.
func BenchmarkSynthesizeDVSProfile(b *testing.B) {
	specs, err := perf.ResolveSpecs([]string{"smartphone", "mul9", "mul11"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			for seed := int64(1); seed <= 3; seed++ {
				opts := synth.Options{UseDVS: true, GA: bench.DefaultGA(), Seed: seed, Certify: true}
				if _, err := synth.Synthesize(sp.Sys, opts); err != nil {
					b.Fatalf("%s seed %d: %v", sp.Name, seed, err)
				}
			}
		}
	}
}

// BenchmarkSynthesizeNoDVSProfile is the DVS-off profile set: mul1–mul12,
// each with seeds 1–2, at the paper GA defaults with certification on and
// voltage scaling off, so scheduling, core allocation, the fitness cache
// and the GA do the work. One iteration runs all 24 syntheses;
// `make profile-nodvs` profiles it.
func BenchmarkSynthesizeNoDVSProfile(b *testing.B) {
	specs, err := perf.ResolveSpecs([]string{"muls"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			for seed := int64(1); seed <= 2; seed++ {
				opts := synth.Options{GA: bench.DefaultGA(), Seed: seed, Certify: true}
				if _, err := synth.Synthesize(sp.Sys, opts); err != nil {
					b.Fatalf("%s seed %d: %v", sp.Name, seed, err)
				}
			}
		}
	}
}

// BenchmarkGenerate measures instance generation (mul-envelope).
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(gen.NewParams(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateTrace measures trace generation plus discrete-event
// simulation of one hour of smart-phone usage.
func BenchmarkSimulateTrace(b *testing.B) {
	sys, err := bench.SmartPhone()
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(sys, synth.Options{GA: benchGA(), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, err := sim.GenerateTrace(sys.App, sim.TraceConfig{
			Horizon: 3600, MeanDwell: 5, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(sys, res.Best, trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFront measures the NSGA-II power/area exploration on a
// generated instance.
func BenchmarkParetoFront(b *testing.B) {
	sys, err := bench.MulSystem(9)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := synth.Pareto(sys, synth.ParetoOptions{
			GA:   ga.Config{PopSize: 24, MaxGenerations: 25},
			Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStudy measures the full five-variant ablation of one
// DVS instance at one repetition per variant.
func BenchmarkAblationStudy(b *testing.B) {
	sys, err := bench.MulSystem(11)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.HarnessConfig{Reps: 1, GA: benchGA()}
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationStudy(sys, true, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
