package ga

import (
	"math/rand"
	"testing"

	"momosyn/internal/allocpin"
)

// sinkIdx defeats dead-code elimination of the measured calls.
var sinkIdx int

// TestAllocPins proves every //mm:noalloc function in this package runs
// with zero allocations on realistic inputs (see internal/allocpin).
func TestAllocPins(t *testing.T) {
	p := oneMax{n: 12, k: 4}
	e := &engine{
		p:    p,
		cfg:  Config{PopSize: 20, MaxGenerations: 10, Stagnation: 5}.WithDefaults(),
		rate: mutationRate(p.GenomeLen()),
		rng:  rand.New(rand.NewSource(1)),
	}
	e.initPopulation()
	weights := e.rankWeights()
	genome := make([]int, p.GenomeLen())

	allocpin.Verify(t, ".", []allocpin.Pin{
		{Name: "engine.selectParent", Body: func() { sinkIdx = e.selectParent(weights) }},
		{Name: "mutate", Body: func() { mutate(e.p, genome, e.rate, e.rng) }},
	})
}
