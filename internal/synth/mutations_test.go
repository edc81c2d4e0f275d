package synth

import (
	"math/rand"
	"testing"
)

// TestMutationsAllocFree pins each improvement mutation at zero
// allocations per call once its first call has run, on random genomes of
// every benchmark specification. The mode periods are cut tenfold so that
// critical paths miss deadlines, which the timing mutation acts on (the
// other three do not read periods). Each mutation must also change some
// genome, so the pins measure the full path.
func TestMutationsAllocFree(t *testing.T) {
	names := []string{"shutdown", "area", "timing", "transition"}
	changed := make([]int, len(names))
	for _, spec := range benchmarkSpecNames() {
		sys := loadSpec(t, spec)
		for _, mode := range sys.App.Modes {
			mode.Period /= 10
		}
		codec, err := NewCodec(sys)
		if err != nil {
			t.Fatal(err)
		}
		muts := []func([]int, *rand.Rand) bool{
			codec.ShutdownMutation(), codec.AreaMutation(), codec.TimingMutation(), codec.TransitionMutation(),
		}
		rng := rand.New(rand.NewSource(23))
		var genomes [][]int
		for i := 0; i < 8; i++ {
			genomes = append(genomes, randomGenome(codec, rng))
		}
		g := make([]int, codec.Len())
		for mi, mut := range muts {
			i := 0
			run := func() {
				copy(g, genomes[i%len(genomes)])
				i++
				if mut(g, rng) {
					changed[mi]++
				}
			}
			run()
			if allocs := testing.AllocsPerRun(4*len(genomes), run); allocs != 0 {
				t.Errorf("%s: %s mutation allocates %.2f times per call after warm-up", spec, names[mi], allocs)
			}
		}
	}
	for mi, n := range changed {
		if n == 0 {
			t.Errorf("%s mutation changed no genome; its pin measures an early exit only", names[mi])
		}
	}
}
