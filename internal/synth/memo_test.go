package synth

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
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
// memo did not serve. Both tables must actually serve modes, and some
// mode must take its demands from the row table and then be scheduled
// with a mobility computed on demand.
func TestModeMemoDifferential(t *testing.T) {
	var lazy uint64
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
			if mm := &e.scratch.memo; mm.rowHits == 0 || mm.rowMisses == 0 {
				t.Errorf("%s %s: %d row hits, %d row misses; the walk tests nothing", name, c.name, mm.rowHits, mm.rowMisses)
			}
			// Every row miss computes a mobility; the rest were computed
			// for row hits whose result missed.
			lazy += e.scratch.mobilities - e.scratch.memo.rowMisses
		}
	}
	if lazy == 0 {
		t.Error("no row hit was scheduled with a mobility computed on demand")
	}
}

// TestModeMemoKeySeesCrossModePools keeps one mode's mapping row fixed and
// re-draws the other modes until the shared ASIC allocation resizes a
// pool that mode's hardware tasks use. The mode must then miss, not be
// served the result of its old pools, and match the reference. Some of
// these changes alter the mode's own power or lateness, so a key of the
// row alone would serve wrong results. The mode's row table entry, which
// holds its demands, does stay valid: the mode must hit there, miss the
// result table and compute its mobility for the scheduler.
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
		if !rowHeld(e, a, m2[a]) {
			t.Fatalf("trial %d: mode %d's row is not in the row table", trial, a)
		}
		if d := checkMemoStep(e, NewEvaluator(sys, true), m2); d != "" {
			t.Fatalf("trial %d second: %s", trial, d)
		}
		if e.scratch.ev.Schedules[a] == nil {
			t.Fatalf("trial %d: mode %d was served although its pools changed", trial, a)
		}
		if !e.scratch.fresh[a] {
			t.Fatalf("trial %d: mode %d was scheduled without its mobility", trial, a)
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
	keyX, hx := resultKey(t, sys, m, x[m], &e.scratch.alloc)

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
		keyY, hy := resultKey(t, sys, m, cand[m], ev.Alloc)
		if slotOf(hy, modeMemoBits) == slotOf(hx, modeMemoBits) && !slices.Equal(keyY, keyX) {
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

// resultKey returns the result key of mode m under the mapping row and
// the allocation, and its hash, as a fresh memo builds them.
func resultKey(t *testing.T, sys *model.System, m model.ModeID, row []model.PEID, alloc *Allocation) ([]byte, uint64) {
	t.Helper()
	probe := &modeMemo{}
	probe.prepare(sys, true, false)
	probe.lookupRow(sys, m, row)
	h, _, ok := probe.lookup(sys, m, row, alloc)
	if !ok {
		t.Fatal("key not representable")
	}
	return slices.Clone(probe.tables[m].key), h
}

// rowHeld reports whether e's row table holds mode m's row, without
// counting the lookup.
func rowHeld(e *Evaluator, m model.ModeID, row []model.PEID) bool {
	mm := &e.scratch.memo
	hits, misses := mm.rowHits, mm.rowMisses
	held := mm.lookupRow(e.Sys, m, row) != nil
	mm.rowHits, mm.rowMisses = hits, misses
	return held
}

// TestRowMemoSlotCollision forces two rows of one mode with different
// core demands into one row-table slot: each evicts the other, and the
// evicted row must then miss, have its mobility and demands computed
// again and match the reference. A slot whose hash check is forged to
// equal a row's while it holds another row must miss too.
func TestRowMemoSlotCollision(t *testing.T) {
	sys := loadSpec(t, "mul1")
	codec, err := NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	const m = 0
	rng := rand.New(rand.NewSource(11))
	fresh := func() *Evaluator { return NewEvaluator(sys, false) }
	// rowSlot returns the row-table slot and hash of the mapping's mode-m
	// row, and the per-task demands an evaluation stores for it.
	rowSlot := func(mapping model.Mapping) (int, uint64, []byte) {
		probe := fresh()
		if _, err := probe.evaluate(mapping); err != nil {
			t.Fatal(err)
		}
		tab := &probe.scratch.memo.tables[m]
		h := mix(tab.state)
		i := slotOf(h, modeMemoBits)
		return i, h, slices.Clone(tab.slotDemands(i))
	}
	x := codec.Decode(randomGenome(codec, rng))
	slotX, hx, demX := rowSlot(x)
	var y model.Mapping
	for tries := 0; y == nil; tries++ {
		if tries == 20000 {
			t.Fatal("no colliding row found")
		}
		cand := codec.Decode(randomGenome(codec, rng))
		probe := &modeMemo{}
		probe.prepare(sys, false, false)
		probe.lookupRow(sys, m, cand[m])
		if slotOf(mix(probe.tables[m].state), modeMemoBits) != slotX || slices.Equal(cand[m], x[m]) {
			continue
		}
		if _, _, demY := rowSlot(cand); !slices.Equal(demY, demX) {
			y = cand
		}
	}
	e := fresh()
	for i, step := range []model.Mapping{x, y, x, y} {
		misses := e.scratch.memo.rowMisses
		if d := checkMemoStep(e, fresh(), step); d != "" {
			t.Fatalf("step %d: %s", i, d)
		}
		if e.scratch.memo.rowMisses == misses || !e.scratch.fresh[m] {
			t.Fatalf("step %d: a row evicted from its slot was served", i)
		}
	}
	// The slot now holds y's row; forge x's hash check onto it.
	e.scratch.memo.tables[m].rowChecks[slotX] = check(hx)
	if d := checkMemoStep(e, fresh(), x); d != "" {
		t.Fatal(d)
	}
	if !e.scratch.fresh[m] {
		t.Fatal("a slot with x's hash but y's row served x's demands")
	}
}

// TestMobilityComputesCounted replays every fitness evaluation of one
// paper-default run on an evaluator of the same options: before each, it
// notes which modes' rows the row table holds, and afterwards which modes
// were scheduled. A mobility must be computed exactly for the row misses
// and for the row hits whose result then missed, and the run's counters
// must equal the replay's.
func TestMobilityComputesCounted(t *testing.T) {
	sys := loadSpec(t, "mul5")
	codec, err := NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	var genomes [][]int
	opts := Options{GA: ga.Config{PopSize: 64, MaxGenerations: 300, Stagnation: 80}, Seed: 1}
	opts.Obs = obs.NewRun(nil, nil)
	opts.evalHook = func(g []int) { genomes = append(genomes, slices.Clone(g)) }
	if _, err := Synthesize(sys, opts); err != nil {
		t.Fatal(err)
	}
	e := opts.newEvaluator(sys, nil)
	nModes := len(sys.App.Modes)
	held := make([]bool, nModes)
	var lazy uint64
	for i, g := range genomes {
		mapping := codec.Decode(g)
		e.scratch.memo.prepare(sys, e.UseDVS, e.DVSSoftwareOnly)
		want := e.scratch.mobilities
		for m := range held {
			held[m] = rowHeld(e, model.ModeID(m), mapping[m])
			if !held[m] {
				want++
			}
		}
		ev, err := e.evaluate(mapping)
		if err != nil {
			t.Fatal(err)
		}
		for m := range held {
			if held[m] && ev.Schedules[m] != nil {
				want++
				lazy++
			}
		}
		if e.scratch.mobilities != want {
			t.Fatalf("evaluation %d: %d mobilities computed, want %d", i, e.scratch.mobilities, want)
		}
	}
	mm := &e.scratch.memo
	if got, want := e.scratch.mobilities, mm.rowMisses+lazy; got != want {
		t.Errorf("%d mobilities, want %d row misses + %d lazy", got, mm.rowMisses, lazy)
	}
	if lazy == 0 || mm.rowHits == 0 {
		t.Errorf("%d row hits, %d lazy mobilities; the run tests nothing", mm.rowHits, lazy)
	}
	if modes := uint64(len(genomes) * nModes); e.scratch.mobilities >= modes {
		t.Errorf("%d mobilities for %d modes evaluated; the row table saved none", e.scratch.mobilities, modes)
	}
	reg := opts.Obs.Registry()
	for name, want := range map[string]uint64{
		"synth.row_memo_hits":     mm.rowHits,
		"synth.row_memo_misses":   mm.rowMisses,
		"synth.mobility_computes": e.scratch.mobilities,
		"synth.mode_memo_hits":    mm.hits,
		"synth.mode_memo_misses":  mm.misses,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, the replay counts %d", name, got, want)
		}
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

// TestEvaluateAllocFreeOnMemoMisses empties every mode's memo tables
// after a warm-up and then evaluates mappings: misses of the result and
// of the row table, like hits, allocate nothing, with DVS off and on.
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
				clear(e.scratch.memo.tables[m].rowChecks)
			}
			mappings := make([]model.Mapping, 16)
			for i := range mappings {
				mappings[i] = codec.Decode(randomGenome(codec, rng))
			}
			misses, rowMisses := e.scratch.memo.misses, e.scratch.memo.rowMisses
			i := 0
			allocs := testing.AllocsPerRun(len(mappings)-1, func() {
				_, _ = e.evaluate(mappings[i])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s dvs=%v: evaluate allocates %.2f times per call on memo misses", name, useDVS, allocs)
			}
			if e.scratch.memo.misses == misses || e.scratch.memo.rowMisses == rowMisses {
				t.Errorf("%s dvs=%v: no result or no row miss measured", name, useDVS)
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

// TestModeMemoSizedToBudget: a run's memo tables, result and row tables
// alike, hold twice its GA budget
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
		tab := &e.scratch.memo.tables[0]
		if n := len(tab.slots); len(tab.rowChecks) != n || len(tab.rows) != 2*n*tab.keyLen || len(tab.keys) != n*tab.keyLen {
			t.Errorf("%d result slots, %d row slots, %d row bytes, %d key bytes of %d", n, len(tab.rowChecks), len(tab.rows), len(tab.keys), tab.keyLen)
		}
		return len(tab.slots)
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

// BenchmarkFitnessWalk times the fitness path the GA runs, both memo
// tables included: one operation is one evaluate call on a GA-like walk
// of distinct genomes (repeats would hit the GA's fitness cache instead),
// and every walkLen operations start a fresh evaluator, as a new run
// does. mobility/op is the mobility analyses per evaluation, rowhit_frac
// the share of row lookups the row table served.
func BenchmarkFitnessWalk(b *testing.B) {
	const walkLen = 2048
	for _, name := range []string{"mul9", "smartphone"} {
		sys := loadSpec(b, name)
		codec, err := NewCodec(sys)
		if err != nil {
			b.Fatal(err)
		}
		walk := newGAWalk(sys, codec, 1)
		seen := map[string]bool{}
		var mappings []model.Mapping
		for len(mappings) < walkLen {
			g := walk.next()
			if key := codec.Key(g); !seen[key] {
				seen[key] = true
				mappings = append(mappings, codec.Decode(g))
			}
		}
		for _, useDVS := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/dvs=%v", name, useDVS), func(b *testing.B) {
				var mobilities, rowHits, rowLookups uint64
				var e *Evaluator
				count := func() {
					if e != nil {
						mobilities += e.scratch.mobilities
						rowHits += e.scratch.memo.rowHits
						rowLookups += e.scratch.memo.rowHits + e.scratch.memo.rowMisses
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%walkLen == 0 {
						b.StopTimer()
						count()
						e = NewEvaluator(sys, useDVS)
						b.StartTimer()
					}
					if _, err := e.evaluate(mappings[i%walkLen]); err != nil {
						b.Fatal(err)
					}
				}
				count()
				b.ReportMetric(float64(mobilities)/float64(b.N), "mobility/op")
				b.ReportMetric(float64(rowHits)/float64(rowLookups), "rowhit_frac")
			})
		}
	}
}
