package dvs

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// tnode describes one scalable task node of a hand-built graph.
type tnode struct {
	pe                   *model.PE
	nom, power, deadline float64
}

// handGraph builds the same constraint graph twice, as the live graph of a
// Scaler and as the reference graph, from nodes and (from, to) edges.
func handGraph(t *testing.T, nodes []tnode, edges [][2]int32) (*Scaler, *refGraph) {
	t.Helper()
	x := &Scaler{}
	rg := &refGraph{}
	for _, n := range nodes {
		x.g.nodes = append(x.g.nodes, node{kind: nkTask, dur: n.nom, nom: n.nom, power: n.power,
			pe: n.pe, level: maxLevel(n.pe), deadline: n.deadline, scalable: true})
		rg.nodes = append(rg.nodes, refNode{kind: nkTask, dur: n.nom, nom: n.nom, power: n.power,
			pe: n.pe, level: maxLevel(n.pe), deadline: n.deadline, scalable: true})
	}
	for _, e := range edges {
		x.addEdge(e[0], e[1])
		refAddEdge(rg, e[0], e[1])
	}
	x.link()
	if !x.topoSort() || !refTopoSort(rg) {
		t.Fatal("hand-built graph has a cycle")
	}
	return x, rg
}

// greedyMatchesRef runs greedy selection on both graphs, requires
// bit-identical levels and durations, and returns the work it took.
func greedyMatchesRef(t *testing.T, x *Scaler, rg *refGraph) Stats {
	t.Helper()
	got, want := greedyScale(&x.g), refGreedyScale(rg)
	if got != want {
		t.Fatalf("changed %v, reference %v", got, want)
	}
	for i := range rg.nodes {
		g, w := &x.g.nodes[i], &rg.nodes[i]
		if g.level != w.level || differs(g.dur, w.dur) {
			t.Fatalf("node %d: level %d dur %v, reference level %d dur %v", i, g.level, g.dur, w.level, w.dur)
		}
	}
	return x.Stats()
}

// step returns the delay and saving ratio of the node's next voltage step.
func step(n tnode) (dt, ratio float64) {
	nd := node{nom: n.nom, dur: n.nom, power: n.power, pe: n.pe, level: maxLevel(n.pe), scalable: true}
	nextStep(&nd)
	return nd.stepDt, nd.stepRatio
}

func twoLevelPE() *model.PE {
	return &model.PE{Name: "cpu", Class: model.GPP, DVS: true, Vmax: 3.3, Vt: 0.8, Levels: []float64{2.5, 3.3}}
}

// exactFit returns a chain a -> b and a deadline for b at which b's
// slack, as the first timing pass computes it, equals a's step delay
// plus b's: once a has moved, b's step uses up exactly the slack left.
func exactFit(t *testing.T) (a, b tnode) {
	t.Helper()
	pe := twoLevelPE()
	for k := 0; k < 1000; k++ {
		a = tnode{pe: pe, nom: 1e-3 + float64(k)*1e-9, power: 2, deadline: math.Inf(1)}
		b = tnode{pe: pe, nom: 2e-3, power: 1}
		dtA, _ := step(a)
		dtB, _ := step(b)
		finish := 0 + a.nom + b.nom
		target := dtB + dtA
		for d := finish + target; d < finish+target*(1+1e-12); d = math.Nextafter(d, math.Inf(1)) {
			if s := d - finish; !differs(s, target) {
				b.deadline = d
				return a, b
			}
		}
	}
	t.Fatal("no deadline gives an exact fit")
	return
}

// TestGreedyBoundExactFit: after the higher-ratio node a moves, b's step
// uses up exactly the slack b had at the last pass minus a's delay. The
// bound accepts it without another pass, and the result matches the
// reference.
func TestGreedyBoundExactFit(t *testing.T) {
	a, b := exactFit(t)
	x, rg := handGraph(t, []tnode{a, b}, [][2]int32{{0, 1}})
	st := greedyMatchesRef(t, x, rg)
	if st.Moves != 2 || st.Passes != 1 {
		t.Fatalf("%d moves, %d passes; want both steps taken after a single pass", st.Moves, st.Passes)
	}
}

// TestGreedyBoundOvershoot: b's step overshoots the bound by less than
// the exact test's 1e-12 tolerance, and then by more. The bound has no
// tolerance, so in both cases a pass decides: the first step is taken
// and the second refused, exactly as the reference decides them.
func TestGreedyBoundOvershoot(t *testing.T) {
	for _, c := range []struct {
		over  float64
		moves uint64
	}{{5e-13, 2}, {2e-12, 1}} {
		a, b := exactFit(t)
		b.deadline -= c.over
		x, rg := handGraph(t, []tnode{a, b}, [][2]int32{{0, 1}})
		st := greedyMatchesRef(t, x, rg)
		if st.Moves != c.moves || st.Passes != 2 {
			t.Fatalf("overshoot %g: %d moves, %d passes; want %d moves after 2 passes", c.over, st.Moves, st.Passes, c.moves)
		}
	}
}

// TestGreedyDropsCandidateMadeInfeasible: x and h share a deadline; h's
// step fits at first, but x, which saves more per delay, moves first and
// takes half of h's room. h, still saving more per delay than the
// unconstrained l, must be dropped while l steps through every level.
func TestGreedyDropsCandidateMadeInfeasible(t *testing.T) {
	two := twoLevelPE()
	five := &model.PE{Name: "dsp", Class: model.GPP, DVS: true, Vmax: 3.3, Vt: 0.8, Levels: []float64{1.4, 1.8, 2.2, 2.7, 3.3}}
	xn := tnode{pe: two, nom: 1e-3, power: 8, deadline: math.Inf(1)}
	hn := tnode{pe: two, nom: 2e-3, power: 4}
	ln := tnode{pe: five, nom: 1e-3, power: 1, deadline: 1}
	dtX, rX := step(xn)
	dtH, rH := step(hn)
	_, rL := step(ln)
	if !(rX > rH && rH > rL) {
		t.Fatalf("ratios %g, %g, %g must fall from x to h to l", rX, rH, rL)
	}
	hn.deadline = xn.nom + hn.nom + dtX + dtH/2
	x, rg := handGraph(t, []tnode{xn, hn, ln}, [][2]int32{{0, 1}})
	st := greedyMatchesRef(t, x, rg)
	nodes := x.g.nodes
	if nodes[0].level != 0 || nodes[1].level != 1 || nodes[2].level != 0 {
		t.Fatalf("levels x %d h %d l %d; want x and l fully scaled, h untouched",
			nodes[0].level, nodes[1].level, nodes[2].level)
	}
	// One pass to start and one that refuses h; l's steps need none.
	if st.Moves != 5 || st.Passes != 2 {
		t.Fatalf("%d moves, %d passes; want 5 moves after 2 passes", st.Moves, st.Passes)
	}
}

// TestGreedyLargeHorizonFallsBack: at a horizon of about 1e6 s one
// rounding step of a timing pass (about 1.2e-10) exceeds the exact test's
// 1e-12 tolerance, so the slack bound is unsound. The test finds a chain
// a -> b where, after a's move, the bound would accept b's step while the
// exact test refuses it, and requires the reference's decision: the
// bound must not be used, and a pass precedes every move.
func TestGreedyLargeHorizonFallsBack(t *testing.T) {
	pe := twoLevelPE()
	for k := 0; k < 1000; k++ {
		a := tnode{pe: pe, nom: 2e5 + float64(k)*0.73, power: 2, deadline: math.Inf(1)}
		b := tnode{pe: pe, nom: 4e5 + float64(k)*0.23, power: 1}
		dtA, _ := step(a)
		dtB, _ := step(b)
		finish, moved := 0+a.nom+b.nom, 0+(a.nom+dtA)+b.nom
		d := finish + dtB + dtA
		for i := 0; i < 4; i++ {
			bound := dtB+dtA <= d-finish
			exact := dtB <= d-moved+1e-12
			if bound && !exact {
				b.deadline = d
				x, rg := handGraph(t, []tnode{a, b}, [][2]int32{{0, 1}})
				st := greedyMatchesRef(t, x, rg)
				if boundSound(&x.g, 2) {
					t.Fatal("the slack bound must be unsound at a horizon of 1e6 s")
				}
				if x.g.nodes[1].level != 1 || st.Moves != 1 || st.Passes != 2 {
					t.Fatalf("b at level %d, %d moves, %d passes; want only a moved, then a pass that refuses b",
						x.g.nodes[1].level, st.Moves, st.Passes)
				}
				return
			}
			d = math.Nextafter(d, math.Inf(1))
		}
	}
	t.Fatal("no chain where the bound and the exact test disagree")
}

// TestGreedyPassesWellBelowMoves scales random mappings of every shipped
// specification and counts the timing passes. Before the slack bound
// there was one pass per move plus one per call; a regression to that
// would match every differential test and fail only this one. Every
// spec must spare a quarter of the passes after each call's first (tight
// schedules such as mul7's make about one move per call), and all specs
// together must need under a quarter as many passes as moves.
func TestGreedyPassesWellBelowMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var total Stats
	for _, path := range shippedSpecs(t) {
		sys := loadSpec(t, path)
		var x Scaler
		var calls uint64
		for k := 0; k < 20; k++ {
			mapping := randomMapping(sys, rng.Intn)
			cores := newReplicaCores(sys, rng.Intn)
			for m := range sys.App.Modes {
				sc, err := sched.ListSchedule(sys, model.ModeID(m), mapping, cores, nil)
				if err != nil {
					t.Fatal(err)
				}
				before := x.Stats().Passes
				x.Run(sys, sc, Config{})
				if x.Stats().Passes > before {
					calls++
				}
			}
		}
		st := x.Stats()
		total.Moves += st.Moves
		total.Passes += st.Passes
		name := filepath.Base(path)
		t.Logf("%s: %d moves, %d passes in %d calls", name, st.Moves, st.Passes, calls)
		if extra := st.Passes - calls; 4*extra > 3*st.Moves {
			t.Errorf("%s: %d timing passes after the first of %d calls for %d moves", name, extra, calls, st.Moves)
		}
	}
	if 4*total.Passes > total.Moves {
		t.Errorf("%d timing passes for %d moves over all specs", total.Passes, total.Moves)
	}
}
