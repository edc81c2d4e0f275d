package synth

import (
	"math/rand"

	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// coreKey identifies the core pool of one task type on one hardware PE.
type coreKey struct {
	pe model.PEID
	tt model.TaskTypeID
}

// The four problem-specific improvement mutations of paper section 4.1.
// Each operates directly on a genome, using cheap structural checks instead
// of full evaluations to decide whether and where to intervene.

// ShutdownMutation implements the Shut-down Improvement strategy: pick a
// mode and a non-essential PE used in that mode and re-map all of the
// mode's tasks away from it, so the PE (and possibly attached links) can be
// switched off during the mode, eliminating its static power contribution.
func (c *Codec) ShutdownMutation() func(genome []int, rng *rand.Rand) bool {
	s := c.sys
	return func(genome []int, rng *rand.Rand) bool {
		mode := model.ModeID(rng.Intn(len(s.App.Modes)))
		g := s.App.Mode(mode).Graph

		// Collect the PEs used by this mode and check which are
		// non-essential: every task mapped there has an alternative PE.
		usedBy := make(map[model.PEID][]int) // PE -> loci
		for ti := range g.Tasks {
			k := c.Locus(mode, model.TaskID(ti))
			usedBy[c.PEAt(genome, k)] = append(usedBy[c.PEAt(genome, k)], k)
		}
		if len(usedBy) <= 1 {
			return false // single-PE modes cannot shed a component
		}
		var nonEssential []model.PEID
		for pe, loci := range usedBy {
			ok := true
			for _, k := range loci {
				if len(c.CandidatesAt(k)) < 2 {
					ok = false
					break
				}
			}
			if ok {
				nonEssential = append(nonEssential, pe)
			}
		}
		if len(nonEssential) == 0 {
			return false
		}
		// Deterministic order before the random pick (map iteration order
		// must not leak into results).
		sortPEs(nonEssential)
		victim := nonEssential[rng.Intn(len(nonEssential))]
		for _, k := range usedBy[victim] {
			// Re-map randomly to any other candidate PE.
			c.remap(genome, k, rng, func(pe model.PEID) bool { return pe != victim })
		}
		return true
	}
}

// AreaMutation implements the Area Improvement strategy: when mandatory
// cores alone violate a hardware PE's area budget, randomly re-map hardware
// tasks of that PE onto software-programmable PEs.
func (c *Codec) AreaMutation() func(genome []int, rng *rand.Rand) bool {
	s := c.sys
	return func(genome []int, rng *rand.Rand) bool {
		// Mandatory-core area per (PE, relevant for ASIC: union over modes;
		// FPGA: per mode max).
		used := make([]int, len(s.Arch.PEs))
		seenASIC := make(map[coreKey]bool)
		for m := range s.App.Modes {
			perMode := make([]int, len(s.Arch.PEs))
			seenMode := make(map[coreKey]bool)
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
				key := coreKey{pe.ID, tt}
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
		var violated []model.PEID
		for pe := range used {
			if s.Arch.PEs[pe].Class.IsHardware() && used[pe] > s.Arch.PEs[pe].Area {
				violated = append(violated, model.PEID(pe))
			}
		}
		if len(violated) == 0 {
			return false
		}
		changed := false
		for k := 0; k < c.Len(); k++ {
			pe := c.PEAt(genome, k)
			if !contains(violated, pe) {
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
//
// The returned mutation reuses its decode and mobility buffers from call
// to call, so it must not be called concurrently (the GA engine does not).
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
	return func(genome []int, rng *rand.Rand) bool {
		hasLimit := false
		for _, tr := range s.App.Transitions {
			if tr.MaxTime > 0 {
				hasLimit = true
				break
			}
		}
		hasFPGA := false
		for _, pe := range s.Arch.PEs {
			if pe.Class == model.FPGA {
				hasFPGA = true
				break
			}
		}
		if !hasLimit || !hasFPGA {
			return false
		}
		// Estimate per-FPGA reconfiguration time with mandatory cores only.
		typesIn := make([]map[coreKey]bool, len(s.App.Modes))
		for m := range s.App.Modes {
			typesIn[m] = make(map[coreKey]bool)
			g := s.App.Mode(model.ModeID(m)).Graph
			for ti := range g.Tasks {
				k := c.Locus(model.ModeID(m), model.TaskID(ti))
				pe := s.Arch.PE(c.PEAt(genome, k))
				if pe.Class == model.FPGA {
					typesIn[m][coreKey{pe.ID, g.Task(model.TaskID(ti)).Type}] = true
				}
			}
		}
		violFPGA := make(map[model.PEID]bool)
		for _, tr := range s.App.Transitions {
			if tr.MaxTime <= 0 {
				continue
			}
			for _, pe := range s.Arch.PEs {
				if pe.Class != model.FPGA {
					continue
				}
				swapIn := 0
				for key := range typesIn[tr.To] {
					if key.pe == pe.ID && !typesIn[tr.From][key] {
						swapIn++
					}
				}
				if float64(swapIn)*pe.ReconfigTime > tr.MaxTime {
					violFPGA[pe.ID] = true
				}
			}
		}
		if len(violFPGA) == 0 {
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
	var alts []int
	for i, pe := range c.CandidatesAt(k) {
		if keep(pe) {
			alts = append(alts, i)
		}
	}
	if len(alts) == 0 {
		return false
	}
	genome[k] = alts[rng.Intn(len(alts))]
	return true
}

func contains(pes []model.PEID, pe model.PEID) bool {
	for _, p := range pes {
		if p == pe {
			return true
		}
	}
	return false
}

func sortPEs(pes []model.PEID) {
	for i := 1; i < len(pes); i++ {
		for j := i; j > 0 && pes[j] < pes[j-1]; j-- {
			pes[j], pes[j-1] = pes[j-1], pes[j]
		}
	}
}
