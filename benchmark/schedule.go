package main

import "math/rand"

// op is one serve-mix request. A fresh op submits a new (spec, seed)
// cell; a hit op resubmits the cell of the client's ref-th fresh op.
type op struct {
	hit  bool
	spec int
	seed int64
	ref  int
}

// schedule is one client's endless, seeded request stream for one load
// segment. It depends only on the workload seed, the segment and the
// client index, never on timing, so the same seed replays the same
// requests in the same order.
type schedule struct {
	rng    *rand.Rand
	nSpecs int
	fresh  int
}

func newSchedule(seed int64, segment, client, nSpecs int) *schedule {
	src := (seed*1_000_003+int64(segment))*serveClients + int64(client)
	return &schedule{rng: rand.New(rand.NewSource(src)), nSpecs: nSpecs}
}

// next returns the next op. The first op is fresh; after it, an op
// resubmits one of the client's earlier fresh cells with probability
// hitShare.
func (s *schedule) next() op {
	if s.fresh > 0 && s.rng.Float64() < hitShare {
		return op{hit: true, ref: s.rng.Intn(s.fresh)}
	}
	s.fresh++
	return op{spec: s.rng.Intn(s.nSpecs), seed: 1 + s.rng.Int63n(1<<40)}
}
