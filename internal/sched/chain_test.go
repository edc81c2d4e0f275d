package sched

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"momosyn/internal/model"
	"momosyn/internal/specio"
)

// replicaCores grants each (PE, task type) 1–3 core instances, so hardware
// PEs run same-type tasks in parallel.
type replicaCores struct {
	n     []int
	types int
}

func (c replicaCores) Instances(_ model.ModeID, pe model.PEID, tt model.TaskTypeID) int {
	return c.n[int(pe)*c.types+int(tt)]
}

// taskResource identifies the resource a task slot occupies: a software
// PE (type and core -1) or one core instance of a hardware PE.
type taskResource struct {
	pe   model.PEID
	tt   model.TaskTypeID
	core int
}

func resourceOf(g *model.TaskGraph, slot *TaskSlot) taskResource {
	if slot.Core < 0 {
		return taskResource{pe: slot.PE, tt: -1, core: -1}
	}
	return taskResource{pe: slot.PE, tt: g.Task(slot.Task).Type, core: slot.Core}
}

// checkChains verifies the Prev links of sc against resources derived
// from the slots alone: from each resource's latest slot, Prev visits
// exactly that resource's slots with falling starts and ends at -1;
// transfers on no link have Prev -1. Starts fall strictly except where a
// zero-length transfer shares its start with the one placed after it.
func checkChains(t *testing.T, g *model.TaskGraph, sc *Schedule) {
	t.Helper()
	taskRes := make(map[taskResource][]model.TaskID)
	for i := range sc.Tasks {
		k := resourceOf(g, &sc.Tasks[i])
		taskRes[k] = append(taskRes[k], sc.Tasks[i].Task)
	}
	for k, ts := range taskRes {
		last := ts[0]
		for _, x := range ts {
			if sc.Tasks[x].Start > sc.Tasks[last].Start {
				last = x
			}
		}
		seen := 0
		for x := last; x >= 0; x = sc.Tasks[x].Prev {
			if seen++; seen > len(ts) {
				t.Fatalf("%+v: chain from task %d is longer than its %d tasks", k, last, len(ts))
			}
			slot := &sc.Tasks[x]
			if resourceOf(g, slot) != k {
				t.Fatalf("%+v: chain reaches task %d on another resource", k, x)
			}
			if p := slot.Prev; p >= 0 && sc.Tasks[p].Start >= slot.Start {
				t.Fatalf("%+v: task %d starts at %v, its Prev %d at %v", k, x, slot.Start, p, sc.Tasks[p].Start)
			}
		}
		if seen != len(ts) {
			t.Fatalf("%+v: chain visits %d of %d tasks", k, seen, len(ts))
		}
	}
	links := make(map[model.CLID][]model.EdgeID)
	for i := range sc.Comms {
		cs := &sc.Comms[i]
		if !cs.Routed || cs.CL == model.NoCL {
			if cs.Prev != -1 {
				t.Fatalf("edge %d on no link has Prev %d", i, cs.Prev)
			}
			continue
		}
		links[cs.CL] = append(links[cs.CL], cs.Edge)
	}
	for cl, es := range links {
		// Zero-length transfers may tie on a start, so the last one is
		// the transfer no other names as Prev; it must start latest.
		named := make(map[model.EdgeID]bool)
		for _, e := range es {
			named[sc.Comms[e].Prev] = true
		}
		last := model.EdgeID(-1)
		for _, e := range es {
			if !named[e] {
				last = e
			}
		}
		if last < 0 {
			t.Fatalf("link %d: every transfer is some transfer's Prev", cl)
		}
		for _, e := range es {
			if sc.Comms[e].Start > sc.Comms[last].Start {
				t.Fatalf("link %d: edge %d starts after the chain's end %d", cl, e, last)
			}
		}
		seen := 0
		for e := last; e >= 0; e = sc.Comms[e].Prev {
			if seen++; seen > len(es) {
				t.Fatalf("link %d: chain from edge %d is longer than its %d transfers", cl, last, len(es))
			}
			cs := &sc.Comms[e]
			if cs.CL != cl {
				t.Fatalf("link %d: chain reaches edge %d on link %d", cl, e, cs.CL)
			}
			// Starts fall strictly, except that a zero-length transfer
			// may share its start with the one placed after it.
			if p := cs.Prev; p >= 0 && (sc.Comms[p].Start > cs.Start || sc.Comms[p].Start == cs.Start && sc.Comms[p].Time > 0) {
				t.Fatalf("link %d: edge %d starts at %v, its Prev %d at %v", cl, e, cs.Start, p, sc.Comms[p].Start)
			}
		}
		if seen != len(es) {
			t.Fatalf("link %d: chain visits %d of %d transfers", cl, seen, len(es))
		}
	}
}

// TestResourceChains checks the Prev links of every mode of every shipped
// specification under random mappings and replica cores, half of them
// with zero-length transfers. One Scheduler
// and one Schedule serve every run, so links left over from an earlier,
// differently shaped run would show.
func TestResourceChains(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specifications found (%v)", err)
	}
	rng := rand.New(rand.NewSource(11))
	var x Scheduler
	sc := &Schedule{}
	intra, linked, replicas := 0, 0, 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := specio.ReadBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for k := 0; k < 20; k++ {
			if k == 10 {
				// The second half runs with every third edge carrying
				// no data: zero-length transfers that may tie on a start.
				for _, mode := range sys.App.Modes {
					for i, e := range mode.Graph.Edges {
						if i%3 == 0 {
							e.Bytes = 0
						}
					}
				}
			}
			m := model.NewMapping(sys.App)
			for mi, mode := range sys.App.Modes {
				for ti, task := range mode.Graph.Tasks {
					cands := sys.CandidatePEs(task.Type)
					m[mi][ti] = cands[rng.Intn(len(cands))]
				}
			}
			cores := replicaCores{n: make([]int, len(sys.Arch.PEs)*len(sys.Lib.Types)), types: len(sys.Lib.Types)}
			for i := range cores.n {
				cores.n[i] = 1 + rng.Intn(3)
			}
			for mi, mode := range sys.App.Modes {
				mob, err := ComputeMobility(sys, model.ModeID(mi), m)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := x.Run(sys, model.ModeID(mi), m, cores, mob, sc, false); err != nil {
					t.Fatal(err)
				}
				checkChains(t, mode.Graph, sc)
				for i := range sc.Tasks {
					if sc.Tasks[i].Core > 0 {
						replicas++
					}
				}
				for i := range sc.Comms {
					if sc.Comms[i].CL == model.NoCL {
						intra++
					} else if sc.Comms[i].Prev >= 0 {
						linked++
					}
				}
			}
		}
	}
	if intra == 0 || linked == 0 || replicas == 0 {
		t.Fatalf("%d intra-PE and %d linked transfers, %d tasks on replica cores: the mappings miss a case",
			intra, linked, replicas)
	}
}
