package synth

import (
	"fmt"
	"strings"

	"momosyn/internal/model"
)

// Codec translates between GA genomes (integer strings) and multi-mode
// task mappings. Locus k corresponds to one (mode, task) pair in mode-major
// order; its alleles index the candidate PEs of the task's type, so every
// genome decodes to a mapping in which each task has an implementation on
// its PE ("multi-mode mapping string", paper Fig. 2).
type Codec struct {
	sys *model.System
	// loci[k] identifies the task of locus k.
	loci []locus
	// candidates[k] lists the admissible PEs of locus k.
	candidates [][]model.PEID
	// index[mode][task] is the locus of the task.
	index [][]int
}

type locus struct {
	mode model.ModeID
	task model.TaskID
}

// NewCodec builds the locus table of the system. It fails when some task
// type has no implementation alternative (the library validator also
// rejects that).
func NewCodec(sys *model.System) (*Codec, error) {
	c := &Codec{sys: sys}
	c.index = make([][]int, len(sys.App.Modes))
	for mi, mode := range sys.App.Modes {
		c.index[mi] = make([]int, len(mode.Graph.Tasks))
		for ti, task := range mode.Graph.Tasks {
			cands := sys.CandidatePEs(task.Type)
			if len(cands) == 0 {
				return nil, fmt.Errorf("synth: task %q (mode %q) has no candidate PE", task.Name, mode.Name)
			}
			c.index[mi][ti] = len(c.loci)
			c.loci = append(c.loci, locus{model.ModeID(mi), model.TaskID(ti)})
			c.candidates = append(c.candidates, cands)
		}
	}
	return c, nil
}

// Len returns the genome length (total number of tasks over all modes).
func (c *Codec) Len() int { return len(c.loci) }

// Alleles returns the number of candidate PEs at locus k.
func (c *Codec) Alleles(k int) int { return len(c.candidates[k]) }

// Locus returns the genome position of the given task.
func (c *Codec) Locus(mode model.ModeID, task model.TaskID) int {
	return c.index[mode][task]
}

// PEAt decodes locus k of the genome to its PE.
func (c *Codec) PEAt(genome []int, k int) model.PEID {
	return c.candidates[k][genome[k]%len(c.candidates[k])]
}

// Decode expands a genome into a mapping.
func (c *Codec) Decode(genome []int) model.Mapping {
	return c.decodeInto(nil, genome)
}

// decodeInto is Decode into dst, which must be nil or a mapping this codec
// decoded; nil allocates. Every task is written, so a reused dst holds no
// trace of its previous genome. It returns the mapping written.
func (c *Codec) decodeInto(dst model.Mapping, genome []int) model.Mapping {
	if dst == nil {
		dst = model.NewMapping(c.sys.App)
	}
	for k, l := range c.loci {
		dst[l.mode][l.task] = c.PEAt(genome, k)
	}
	return dst
}

// Encode writes the mapping into a fresh genome; PEs absent from a locus's
// candidate list map to allele 0 (the decoder keeps genomes valid by
// construction, so this only happens for hand-built mappings).
func (c *Codec) Encode(m model.Mapping) []int {
	g := make([]int, len(c.loci))
	for k, l := range c.loci {
		pe := m[l.mode][l.task]
		g[k] = 0
		for i, cand := range c.candidates[k] {
			if cand == pe {
				g[k] = i
				break
			}
		}
	}
	return g
}

// SetPE rewrites locus k of the genome to the given PE if it is a
// candidate there, reporting success.
func (c *Codec) SetPE(genome []int, k int, pe model.PEID) bool {
	for i, cand := range c.candidates[k] {
		if cand == pe {
			genome[k] = i
			return true
		}
	}
	return false
}

// Key returns a compact string key of the genome for fitness caching.
func (c *Codec) Key(genome []int) string {
	var sb strings.Builder
	sb.Grow(len(genome))
	for _, v := range genome {
		sb.WriteByte(byte(v))
	}
	return sb.String()
}

// CandidatesAt returns the candidate PEs of locus k (shared slice; do not
// mutate).
func (c *Codec) CandidatesAt(k int) []model.PEID { return c.candidates[k] }
