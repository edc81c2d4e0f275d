package runctl

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime/debug"

	"momosyn/internal/ga"
)

// EvalFault records one genome whose fitness evaluation panicked. The
// genome is kept so the failure is reproducible offline.
type EvalFault struct {
	Genome []int
	// Err is the recovered panic value, stringified.
	Err string
	// Stack is the goroutine stack at the point of the panic.
	Stack string
	// Attempts is how many evaluations of this genome were tried before it
	// was marked infeasible.
	Attempts int
}

// GuardConfig tunes the panic-isolation barrier.
type GuardConfig struct {
	// MaxAttempts is the number of evaluations tried per genome before it
	// is marked permanently infeasible (default 2: one retry). Evaluation
	// is deterministic in this codebase, so the retry mainly distinguishes
	// environmental flukes from genuinely poisonous genomes.
	MaxAttempts int
	// FaultBudget is the number of distinct faulting genomes tolerated per
	// run before OnBudgetExceeded fires (default 64). The run then aborts
	// cleanly at the next generation boundary with the fault report intact.
	FaultBudget int
	// OnBudgetExceeded is invoked once, when the budget is first exceeded.
	// The synthesis layer uses it to cancel the run context.
	OnBudgetExceeded func(err error)
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.FaultBudget <= 0 {
		c.FaultBudget = 64
	}
	return c
}

// Guard wraps a ga.Problem so that a panic inside Fitness is contained:
// the genome is retried up to MaxAttempts times, then marked infeasible
// (+Inf fitness) and recorded as an EvalFault. It is not safe for
// concurrent use, matching the single-goroutine GA engine.
type Guard struct {
	inner   ga.Problem
	cfg     GuardConfig
	faults  []EvalFault
	bad     map[string]bool
	tripped bool
	// key is the buffer bad is probed with.
	key []byte
}

// NewGuard wraps p in a recover barrier.
func NewGuard(p ga.Problem, cfg GuardConfig) *Guard {
	return &Guard{inner: p, cfg: cfg.withDefaults(), bad: make(map[string]bool)}
}

// GenomeLen implements ga.Problem.
func (g *Guard) GenomeLen() int { return g.inner.GenomeLen() }

// Alleles implements ga.Problem.
func (g *Guard) Alleles(i int) int { return g.inner.Alleles(i) }

// Fitness evaluates the genome behind the recover barrier. Panicking
// genomes evaluate to +Inf so the GA selects them away instead of dying.
// Genomes are only keyed while some genome is marked bad, so a clean run
// pays nothing for the barrier beyond the deferred recover.
func (g *Guard) Fitness(genome []int) float64 {
	if len(g.bad) > 0 {
		g.key = appendGenomeKey(g.key[:0], genome)
		if g.bad[string(g.key)] {
			return math.Inf(1)
		}
	}
	var last *EvalFault
	for attempt := 1; attempt <= g.cfg.MaxAttempts; attempt++ {
		f, fault := g.try(genome)
		if fault == nil {
			return f
		}
		fault.Attempts = attempt
		last = fault
	}
	g.bad[string(appendGenomeKey(nil, genome))] = true
	g.faults = append(g.faults, *last)
	if !g.tripped && len(g.faults) > g.cfg.FaultBudget {
		g.tripped = true
		if g.cfg.OnBudgetExceeded != nil {
			g.cfg.OnBudgetExceeded(fmt.Errorf(
				"fault budget exceeded: %d genomes panicked during evaluation (budget %d)",
				len(g.faults), g.cfg.FaultBudget))
		}
	}
	return math.Inf(1)
}

func (g *Guard) try(genome []int) (f float64, fault *EvalFault) {
	defer func() {
		if r := recover(); r != nil {
			fault = &EvalFault{
				Genome: append([]int(nil), genome...),
				Err:    fmt.Sprint(r),
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return g.inner.Fitness(genome), nil
}

// Faults returns the recorded faults (shared slice; callers must not
// mutate).
func (g *Guard) Faults() []EvalFault { return g.faults }

// Restore preloads faults from a checkpoint so the budget keeps counting
// across a resume.
func (g *Guard) Restore(faults []EvalFault) {
	g.faults = append(g.faults[:0], faults...)
	for _, f := range g.faults {
		g.bad[string(appendGenomeKey(nil, f.Genome))] = true
	}
}

// WriteReport emits a human-readable diagnostic of the recorded faults:
// one block per fault with the genome, panic value and the first stack
// lines, suitable for a run's closing report.
func (g *Guard) WriteReport(w io.Writer) {
	if len(g.faults) == 0 {
		return
	}
	fmt.Fprintf(w, "evaluation faults: %d genome(s) panicked and were marked infeasible\n", len(g.faults))
	for i, f := range g.faults {
		fmt.Fprintf(w, "  fault %d: genome %v (attempts %d)\n    panic: %s\n", i+1, f.Genome, f.Attempts, f.Err)
	}
}

// appendGenomeKey appends an injective encoding of the genome to dst: every
// allele as a varint, which no allele value truncates.
func appendGenomeKey(dst []byte, genome []int) []byte {
	for _, v := range genome {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}
