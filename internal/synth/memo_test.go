package synth

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/runctl"
)

// memoConfig is one evaluator configuration the memo tests cover.
type memoConfig struct {
	name                 string
	dvs, swOnly, noRepls bool
}

var memoConfigs = []memoConfig{
	{name: "dvs=off"},
	{name: "dvs=on", dvs: true},
	{name: "swonly", dvs: true, swOnly: true},
	{name: "noreplicas", noRepls: true},
}

// evaluator returns a fresh evaluator of sys under the configuration.
func (c memoConfig) evaluator(sys *model.System) *Evaluator {
	e := NewEvaluator(sys, c.dvs)
	e.DVSSoftwareOnly = c.swOnly
	e.NoReplicaCores = c.noRepls
	return e
}

// gaWalk yields GA-like genome sequences: mostly one changed locus or one
// mode's loci re-drawn (what crossover and the improvement mutations do),
// sometimes an improvement mutation itself, a return to an earlier genome
// or a fresh random genome.
type gaWalk struct {
	codec    *Codec
	sys      *model.System
	rng      *rand.Rand
	mutators []ga.Mutator
	cur      []int
	seen     [][]int
}

func newGAWalk(sys *model.System, codec *Codec, seed int64) *gaWalk {
	w := &gaWalk{codec: codec, sys: sys, rng: rand.New(rand.NewSource(seed)),
		mutators: []ga.Mutator{codec.ShutdownMutation(), codec.AreaMutation(), codec.TimingMutation(), codec.TransitionMutation()}}
	w.cur = randomGenome(codec, w.rng)
	return w
}

// next returns the next genome of the walk (a copy the caller may keep).
func (w *gaWalk) next() []int {
	g := slices.Clone(w.cur)
	switch r := w.rng.Intn(10); {
	case r < 4: // one locus
		k := w.rng.Intn(len(g))
		g[k] = w.rng.Intn(w.codec.Alleles(k))
	case r < 7: // one mode
		m := w.rng.Intn(len(w.sys.App.Modes))
		for t := range w.sys.App.Modes[m].Graph.Tasks {
			if k := w.codec.Locus(model.ModeID(m), model.TaskID(t)); w.rng.Intn(2) == 0 {
				g[k] = w.rng.Intn(w.codec.Alleles(k))
			}
		}
	case r < 8:
		w.mutators[w.rng.Intn(len(w.mutators))](g, w.rng)
	case r < 9 && len(w.seen) > 0:
		g = slices.Clone(w.seen[w.rng.Intn(len(w.seen))])
	default:
		g = randomGenome(w.codec, w.rng)
	}
	w.seen = append(w.seen, g)
	w.cur = g
	return slices.Clone(g)
}

// checkMemoStep evaluates the mapping on e's fitness path and on a fresh
// evaluator of the same configuration, and reports the first difference.
func checkMemoStep(e, fresh *Evaluator, mapping model.Mapping) string {
	want, werr := fresh.Evaluate(mapping)
	got, err := e.evaluate(mapping)
	if (werr == nil) != (err == nil) {
		return fmt.Sprintf("error %v vs %v", werr, err)
	}
	if err != nil {
		return ""
	}
	return scratchDiff("ev", want, got)
}

// TestModeMemoDifferential drives GA-like genome sequences through one
// evaluator per specification and configuration and compares every
// fitness-path evaluation, memo-served modes included, bit for bit with
// a fresh evaluator's complete Evaluate: fitness, power, penalties, mode
// powers, lateness, unroutable count, allocation and every schedule the
// memo did not serve. The memo must actually serve modes.
func TestModeMemoDifferential(t *testing.T) {
	for i, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range memoConfigs {
			e := c.evaluator(sys)
			walk := newGAWalk(sys, codec, int64(3000+i))
			for k := 0; k < 120; k++ {
				if d := checkMemoStep(e, c.evaluator(sys), codec.Decode(walk.next())); d != "" {
					t.Fatalf("%s %s step %d: %s", name, c.name, k, d)
				}
			}
			if mm := &e.scratch.memo; mm.hits == 0 || mm.misses == 0 {
				t.Errorf("%s %s: %d memo hits, %d misses; the walk tests nothing", name, c.name, mm.hits, mm.misses)
			}
		}
	}
}

// TestModeMemoKeySeesCrossModePools keeps one mode's mapping row fixed and
// re-draws the other modes until the shared ASIC allocation resizes a
// pool that mode's hardware tasks use. The mode must then miss, not be
// served the result of its old pools, and match the reference. Some of
// these changes alter the mode's own power or lateness, so a key of the
// row alone would serve wrong results.
func TestModeMemoKeySeesCrossModePools(t *testing.T) {
	sys := loadSpec(t, "mul12")
	codec, err := NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	resized, changed := 0, 0
	for trial := 0; trial < 400 && changed < 3; trial++ {
		a := model.ModeID(rng.Intn(len(sys.App.Modes)))
		g1 := randomGenome(codec, rng)
		g2 := slices.Clone(g1)
		for k := range g2 {
			if codec.loci[k].mode != a {
				g2[k] = rng.Intn(codec.Alleles(k))
			}
		}
		m1, m2 := codec.Decode(g1), codec.Decode(g2)
		ref := NewEvaluator(sys, true)
		ev1, err := ref.Evaluate(m1)
		if err != nil {
			t.Fatal(err)
		}
		ev2, err := ref.Evaluate(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !poolsDiffer(sys, a, m1[a], ev1.Alloc, ev2.Alloc) {
			continue
		}
		resized++
		e := NewEvaluator(sys, true)
		if d := checkMemoStep(e, NewEvaluator(sys, true), m1); d != "" {
			t.Fatalf("trial %d first: %s", trial, d)
		}
		if d := checkMemoStep(e, NewEvaluator(sys, true), m2); d != "" {
			t.Fatalf("trial %d second: %s", trial, d)
		}
		if e.scratch.ev.Schedules[a] == nil {
			t.Fatalf("trial %d: mode %d was served although its pools changed", trial, a)
		}
		if ev1.ModePowers[a] != ev2.ModePowers[a] || ev1.Lateness[a] != ev2.Lateness[a] {
			changed++
		}
	}
	if resized == 0 || changed == 0 {
		t.Fatalf("%d fixed-row candidates with resized pools, %d with a changed mode result; the search tests nothing", resized, changed)
	}
}

// poolsDiffer reports whether some hardware task of the mode row sees a
// different pool size in the two allocations.
func poolsDiffer(sys *model.System, m model.ModeID, row []model.PEID, a1, a2 *Allocation) bool {
	for t, pe := range row {
		tt := sys.App.Mode(m).Graph.Task(model.TaskID(t)).Type
		if sys.Arch.PE(pe).Class.IsHardware() && a1.Instances(m, pe, tt) != a2.Instances(m, pe, tt) {
			return true
		}
	}
	return false
}

// TestModeMemoSlotCollision forces two keys of one mode into one slot: the
// later evicts the earlier, which must then miss and match the reference.
// A slot whose hash is forged to equal a lookup's while its key differs
// must miss too, because a hit needs the whole key.
func TestModeMemoSlotCollision(t *testing.T) {
	sys := loadSpec(t, "mul1")
	codec, err := NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	const m = 0
	rng := rand.New(rand.NewSource(9))
	e := NewEvaluator(sys, true)
	fresh := func() *Evaluator { return NewEvaluator(sys, true) }
	x := codec.Decode(randomGenome(codec, rng))
	if d := checkMemoStep(e, fresh(), x); d != "" {
		t.Fatal(d)
	}
	tab := &e.scratch.memo.tables[m]
	if !e.scratch.memo.keyOf(sys, m, x[m], &e.scratch.alloc) {
		t.Fatal("key not representable")
	}
	keyX := slices.Clone(e.scratch.memo.key)
	hx := hashKey(keyX)

	// A mapping whose mode-m key differs but lands in the same slot.
	var y model.Mapping
	for tries := 0; y == nil; tries++ {
		if tries == 10000 {
			t.Fatal("no colliding mapping found")
		}
		cand := codec.Decode(randomGenome(codec, rng))
		ev, err := fresh().Evaluate(cand)
		if err != nil {
			t.Fatal(err)
		}
		probe := &modeMemo{}
		probe.prepare(sys, true, false)
		probe.keyOf(sys, m, cand[m], ev.Alloc)
		if slotOf(hashKey(probe.key), modeMemoBits) == slotOf(hx, modeMemoBits) && !slices.Equal(probe.key, keyX) {
			y = cand
		}
	}
	for _, step := range []model.Mapping{y, x, y} {
		if d := checkMemoStep(e, fresh(), step); d != "" {
			t.Fatal(d)
		}
		if e.scratch.ev.Schedules[m] == nil {
			t.Fatal("a mapping evicted from the slot was served")
		}
	}
	// The slot now holds y's key; forge x's hash check onto it.
	tab.slots[slotOf(hx, modeMemoBits)].check = check(hx)
	if d := checkMemoStep(e, fresh(), x); d != "" {
		t.Fatal(d)
	}
	if e.scratch.ev.Schedules[m] == nil {
		t.Fatal("a slot with x's hash but y's key served x")
	}
}

// TestModeMemoResetsOnConfigChange fills the memo, then changes UseDVS,
// DVSSoftwareOnly and Sys on the live evaluator: results under the new
// setting must match a fresh evaluator's, so nothing filled under the old
// one is served, and the memo must serve again once refilled.
func TestModeMemoResetsOnConfigChange(t *testing.T) {
	sysA, sysB := loadSpec(t, "mul3"), loadSpec(t, "mul4")
	e := NewEvaluator(sysA, false)
	steps := []struct {
		name string
		set  func()
	}{
		{"initial", func() {}},
		{"dvs on", func() { e.UseDVS = true }},
		{"software only", func() { e.DVSSoftwareOnly = true }},
		{"dvs off", func() { e.UseDVS, e.DVSSoftwareOnly = false, false }},
		{"other system", func() { e.Sys = sysB }},
		{"first system", func() { e.Sys = sysA }},
	}
	mappings := map[*model.System][]model.Mapping{}
	for _, sys := range []*model.System{sysA, sysB} {
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 6; i++ {
			mappings[sys] = append(mappings[sys], codec.Decode(randomGenome(codec, rng)))
		}
	}
	for _, st := range steps {
		st.set()
		fresh := &Evaluator{Sys: e.Sys, UseDVS: e.UseDVS, DVSSoftwareOnly: e.DVSSoftwareOnly, Weights: e.Weights}
		hits := e.scratch.memo.hits
		for pass := 0; pass < 2; pass++ {
			for i, mapping := range mappings[e.Sys] {
				if d := checkMemoStep(e, fresh, mapping); d != "" {
					t.Fatalf("%s pass %d mapping %d: %s", st.name, pass, i, d)
				}
			}
		}
		if e.scratch.memo.hits == hits {
			t.Errorf("%s: the repeated pass was never served", st.name)
		}
	}
}

// TestEvaluateAllocFreeOnMemoMisses empties every mode's memo table after
// a warm-up and then evaluates mappings: misses, like hits, allocate
// nothing, with DVS off and on.
func TestEvaluateAllocFreeOnMemoMisses(t *testing.T) {
	for _, name := range benchmarkSpecNames() {
		sys := loadSpec(t, name)
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		for _, useDVS := range []bool{false, true} {
			rng := rand.New(rand.NewSource(17))
			e := NewEvaluator(sys, useDVS)
			// Warm-up: the scheduler's and the scaler's buffers grow to
			// the largest mode seen.
			for i := 0; i < 200; i++ {
				if _, err := e.evaluate(codec.Decode(randomGenome(codec, rng))); err != nil {
					t.Fatal(err)
				}
			}
			// Every table empty, so the mappings below miss even where
			// the warm-up saw them.
			for m := range e.scratch.memo.tables {
				clear(e.scratch.memo.tables[m].slots)
			}
			mappings := make([]model.Mapping, 16)
			for i := range mappings {
				mappings[i] = codec.Decode(randomGenome(codec, rng))
			}
			misses := e.scratch.memo.misses
			i := 0
			allocs := testing.AllocsPerRun(len(mappings)-1, func() {
				_, _ = e.evaluate(mappings[i])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s dvs=%v: evaluate allocates %.2f times per call on memo misses", name, useDVS, allocs)
			}
			if e.scratch.memo.misses == misses {
				t.Errorf("%s dvs=%v: no memo miss measured", name, useDVS)
			}
		}
	}
}

// TestFitnessCacheHitAllocFree pins the GA's view of a cached genome: a
// fitness-cache hit through the fault guard allocates nothing.
func TestFitnessCacheHitAllocFree(t *testing.T) {
	sys := loadSpec(t, "smartphone")
	codec, err := NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	prob := &problem{codec: codec, eval: NewEvaluator(sys, true), cache: newFitnessCache[float64]()}
	guard := runctl.NewGuard(prob, runctl.GuardConfig{})
	genome := randomGenome(codec, rand.New(rand.NewSource(1)))
	want := guard.Fitness(genome)
	allocs := testing.AllocsPerRun(100, func() { sinkF = guard.Fitness(genome) })
	if allocs != 0 {
		t.Errorf("a fitness-cache hit allocates %.2f times", allocs)
	}
	if sinkF != want || prob.cache.stats.Hits == 0 {
		t.Errorf("fitness %v vs %v, %d hits", sinkF, want, prob.cache.stats.Hits)
	}
}

// TestCodecKeyPacked checks the fitness-cache key: alleles are packed at
// the width of the largest allele, genomes key equally exactly when they
// decode to the same mapping, and the length is part of the key.
func TestCodecKeyPacked(t *testing.T) {
	for _, name := range []string{"smartphone", "mul11"} {
		sys := loadSpec(t, name)
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		seen := map[string][]int{}
		for i := 0; i < 2000; i++ {
			g := randomGenome(codec, rng)
			if i%2 == 1 { // a one-locus neighbour of a random genome
				k := rng.Intn(len(g))
				g[k] = (g[k] + 1) % codec.Alleles(k)
			}
			key := codec.Key(g)
			if prev, ok := seen[key]; ok && !slices.Equal(prev, g) {
				t.Fatalf("%s: genomes %v and %v share a key", name, prev, g)
			}
			seen[key] = g
			if want := len(binary.AppendUvarint(nil, uint64(codec.Len()))) + (codec.Len()*codec.keyBits+7)/8; len(key) != want {
				t.Fatalf("%s: key of %d bytes, want %d", name, len(key), want)
			}
			if codec.Key(g[:len(g)-1]) == key {
				t.Fatalf("%s: a shorter genome shares the key", name)
			}
		}
	}
}

// TestModeMemoSizedToBudget: a run's memo tables hold twice its GA budget
// of PopSize·(MaxGenerations+1) evaluations, rounded up to a power of two
// and capped at 1<<modeMemoBits; an unset budget and the evaluators made
// outside Synthesize keep the cap.
func TestModeMemoSizedToBudget(t *testing.T) {
	for evals, want := range map[int]int{-1: modeMemoBits, 0: modeMemoBits, 1: 1, 12: 5, 16: 5, 17: 6, 512: 10, 513: 10, 1 << 30: 10} {
		if got := memoBits(evals); got != want {
			t.Errorf("memoBits(%d) = %d, want %d", evals, got, want)
		}
	}
	sys := loadSpec(t, "mul1")
	slots := func(e *Evaluator) int {
		e.scratch.memo.prepare(sys, e.UseDVS, e.DVSSoftwareOnly)
		return len(e.scratch.memo.tables[0].slots)
	}
	for _, c := range []struct {
		name string
		e    *Evaluator
		want int
	}{
		{"pop 2, 5 generations", Options{GA: ga.Config{PopSize: 2, MaxGenerations: 5}}.newEvaluator(sys, nil), 32},
		{"paper budget", Options{GA: ga.Config{PopSize: 64, MaxGenerations: 300}}.newEvaluator(sys, nil), 1 << modeMemoBits},
		{"zero budget", Options{}.newEvaluator(sys, nil), 1 << modeMemoBits},
		{"zero generations", Options{GA: ga.Config{PopSize: 2}}.newEvaluator(sys, nil), 1 << modeMemoBits},
		{"NewEvaluator", NewEvaluator(sys, true), 1 << modeMemoBits},
	} {
		if got := slots(c.e); got != c.want {
			t.Errorf("%s: %d slots per mode, want %d", c.name, got, c.want)
		}
	}
}
