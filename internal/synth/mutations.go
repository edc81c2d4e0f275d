package synth

import (
	"math/rand"
	"slices"

	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// The four problem-specific improvement mutations of paper section 4.1.
// Each operates directly on a genome, using cheap structural checks instead
// of full evaluations to decide whether and where to intervene. Each
// returned mutation keeps its working memory (per-PE and per-(PE, type)
// tables) from call to call, so it allocates nothing and must not be
// called concurrently (the GA engine does not).

// ShutdownMutation implements the Shut-down Improvement strategy: pick a
// mode and a non-essential PE used in that mode and re-map all of the
// mode's tasks away from it, so the PE (and possibly attached links) can be
// switched off during the mode, eliminating its static power contribution.
func (c *Codec) ShutdownMutation() func(genome []int, rng *rand.Rand) bool {
	s := c.sys
	nPE := len(s.Arch.PEs)
	used := make([]bool, nPE)      // the PE runs a task of the mode
	essential := make([]bool, nPE) // it runs one without an alternative PE
	nonEssential := make([]model.PEID, 0, nPE)
	return func(genome []int, rng *rand.Rand) bool {
		mode := model.ModeID(rng.Intn(len(s.App.Modes)))
		g := s.App.Mode(mode).Graph

		clear(used)
		clear(essential)
		nUsed := 0
		for ti := range g.Tasks {
			k := c.Locus(mode, model.TaskID(ti))
			pe := c.PEAt(genome, k)
			if !used[pe] {
				used[pe] = true
				nUsed++
			}
			if len(c.CandidatesAt(k)) < 2 {
				essential[pe] = true
			}
		}
		if nUsed <= 1 {
			return false // single-PE modes cannot shed a component
		}
		nonEssential = nonEssential[:0]
		for pe := range used {
			if used[pe] && !essential[pe] {
				nonEssential = append(nonEssential, model.PEID(pe))
			}
		}
		if len(nonEssential) == 0 {
			return false
		}
		victim := nonEssential[rng.Intn(len(nonEssential))]
		for ti := range g.Tasks {
			// Re-map randomly to any other candidate PE.
			if k := c.Locus(mode, model.TaskID(ti)); c.PEAt(genome, k) == victim {
				c.remap(genome, k, rng, func(pe model.PEID) bool { return pe != victim })
			}
		}
		return true
	}
}

// AreaMutation implements the Area Improvement strategy: when mandatory
// cores alone violate a hardware PE's area budget, randomly re-map hardware
// tasks of that PE onto software-programmable PEs.
func (c *Codec) AreaMutation() func(genome []int, rng *rand.Rand) bool {
	s := c.sys
	nPE, nTypes := len(s.Arch.PEs), len(s.Lib.Types)
	used := make([]int, nPE)
	perMode := make([]int, nPE)
	seenASIC := make([]bool, nPE*nTypes) // by (PE, task type)
	seenMode := make([]bool, nPE*nTypes)
	violated := make([]bool, nPE)
	return func(genome []int, rng *rand.Rand) bool {
		// Mandatory-core area per PE: ASIC, union over modes; FPGA, the
		// largest mode.
		clear(used)
		clear(seenASIC)
		for m := range s.App.Modes {
			clear(perMode)
			clear(seenMode)
			g := s.App.Mode(model.ModeID(m)).Graph
			for ti := range g.Tasks {
				k := c.Locus(model.ModeID(m), model.TaskID(ti))
				pe := s.Arch.PE(c.PEAt(genome, k))
				if !pe.Class.IsHardware() {
					continue
				}
				tt := g.Task(model.TaskID(ti)).Type
				im, ok := s.Lib.Type(tt).ImplOn(pe.ID)
				if !ok {
					continue
				}
				key := int(pe.ID)*nTypes + int(tt)
				if pe.Class == model.ASIC {
					if !seenASIC[key] {
						seenASIC[key] = true
						used[pe.ID] += im.Area
					}
				} else if !seenMode[key] {
					seenMode[key] = true
					perMode[pe.ID] += im.Area
				}
			}
			for pe := range perMode {
				if s.Arch.PEs[pe].Class == model.FPGA && perMode[pe] > used[pe] {
					used[pe] = perMode[pe]
				}
			}
		}
		anyViolated := false
		for pe := range used {
			violated[pe] = s.Arch.PEs[pe].Class.IsHardware() && used[pe] > s.Arch.PEs[pe].Area
			anyViolated = anyViolated || violated[pe]
		}
		if !anyViolated {
			return false
		}
		changed := false
		for k := 0; k < c.Len(); k++ {
			if !violated[c.PEAt(genome, k)] {
				continue
			}
			// With probability 1/2 move the task to a random software PE.
			if rng.Intn(2) == 0 {
				continue
			}
			if c.remap(genome, k, rng, func(pe model.PEID) bool { return s.Arch.PE(pe).Class.IsSoftware() }) {
				changed = true
			}
		}
		return changed
	}
}

// TimingMutation implements the Timing Improvement strategy: when the
// infinite-resource critical path of a mode already violates a deadline,
// software tasks of that mode are randomly re-mapped to faster hardware
// implementations.
func (c *Codec) TimingMutation() func(genome []int, rng *rand.Rand) bool {
	s := c.sys
	var mapping model.Mapping
	var mob sched.Mobility
	return func(genome []int, rng *rand.Rand) bool {
		mapping = c.decodeInto(mapping, genome)
		changed := false
		for m := range s.App.Modes {
			if err := mob.Compute(s, model.ModeID(m), mapping); err != nil {
				continue
			}
			tight := false
			g := s.App.Mode(model.ModeID(m)).Graph
			for ti := range g.Tasks {
				if mob.ALAP[ti] < mob.ASAP[ti]-1e-12 {
					tight = true
					break
				}
			}
			if !tight {
				continue
			}
			for ti := range g.Tasks {
				k := c.Locus(model.ModeID(m), model.TaskID(ti))
				if !s.Arch.PE(c.PEAt(genome, k)).Class.IsSoftware() {
					continue
				}
				if rng.Intn(2) == 0 {
					continue
				}
				if c.remap(genome, k, rng, func(pe model.PEID) bool { return s.Arch.PE(pe).Class.IsHardware() }) {
					changed = true
				}
			}
		}
		return changed
	}
}

// TransitionMutation implements the Transition Improvement strategy: when
// an FPGA's estimated reconfiguration load violates a transition-time
// limit, tasks are randomly re-mapped away from that FPGA.
func (c *Codec) TransitionMutation() func(genome []int, rng *rand.Rand) bool {
	s := c.sys
	hasLimit := slices.ContainsFunc(s.App.Transitions, func(tr model.Transition) bool { return tr.MaxTime > 0 })
	hasFPGA := slices.ContainsFunc(s.Arch.PEs, func(pe *model.PE) bool { return pe.Class == model.FPGA })
	if !hasLimit || !hasFPGA {
		return func([]int, *rand.Rand) bool { return false }
	}
	nPE, nTypes := len(s.Arch.PEs), len(s.Lib.Types)
	// typesIn holds, by (mode, FPGA, task type), whether the mode maps a
	// task of that type to the FPGA.
	typesIn := make([]bool, len(s.App.Modes)*nPE*nTypes)
	at := func(m model.ModeID, pe model.PEID, tt model.TaskTypeID) int {
		return (int(m)*nPE+int(pe))*nTypes + int(tt)
	}
	violFPGA := make([]bool, nPE)
	return func(genome []int, rng *rand.Rand) bool {
		// Estimate per-FPGA reconfiguration time with mandatory cores only.
		clear(typesIn)
		for m := range s.App.Modes {
			g := s.App.Mode(model.ModeID(m)).Graph
			for ti := range g.Tasks {
				k := c.Locus(model.ModeID(m), model.TaskID(ti))
				pe := s.Arch.PE(c.PEAt(genome, k))
				if pe.Class == model.FPGA {
					typesIn[at(model.ModeID(m), pe.ID, g.Task(model.TaskID(ti)).Type)] = true
				}
			}
		}
		clear(violFPGA)
		anyViolated := false
		for _, tr := range s.App.Transitions {
			if tr.MaxTime <= 0 {
				continue
			}
			for _, pe := range s.Arch.PEs {
				if pe.Class != model.FPGA {
					continue
				}
				swapIn := 0
				for tt := model.TaskTypeID(0); int(tt) < nTypes; tt++ {
					if typesIn[at(tr.To, pe.ID, tt)] && !typesIn[at(tr.From, pe.ID, tt)] {
						swapIn++
					}
				}
				if float64(swapIn)*pe.ReconfigTime > tr.MaxTime {
					violFPGA[pe.ID] = true
					anyViolated = true
				}
			}
		}
		if !anyViolated {
			return false
		}
		changed := false
		for k := 0; k < c.Len(); k++ {
			pe := c.PEAt(genome, k)
			if !violFPGA[pe] || rng.Intn(2) == 0 {
				continue
			}
			if c.remap(genome, k, rng, func(cand model.PEID) bool { return cand != pe }) {
				changed = true
			}
		}
		return changed
	}
}

// remap redraws locus k of the genome uniformly over the candidate PEs for
// which keep holds, reporting false, without drawing, when there is none.
func (c *Codec) remap(genome []int, k int, rng *rand.Rand, keep func(model.PEID) bool) bool {
	cands := c.CandidatesAt(k)
	n := 0
	for _, pe := range cands {
		if keep(pe) {
			n++
		}
	}
	if n == 0 {
		return false
	}
	r := rng.Intn(n)
	for i, pe := range cands {
		if keep(pe) {
			if r == 0 {
				genome[k] = i
				break
			}
			r--
		}
	}
	return true
}
