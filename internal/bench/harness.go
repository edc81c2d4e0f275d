package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"momosyn/internal/energy"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/synth"
)

// ErrCertification marks a table cell whose synthesis result the
// independent certifier refused; callers distinguish it with errors.Is to
// map it to the dedicated exit code.
var ErrCertification = errors.New("bench: result failed certification")

// HarnessConfig tunes an experiment run. The paper averaged 40 optimisation
// runs per cell; the default here is smaller so the full suite stays
// laptop-friendly, and can be raised via the Reps field or cmd/mmbench
// -reps.
type HarnessConfig struct {
	// Reps is the number of GA runs averaged per table cell (default 5).
	Reps int
	// Parallel bounds the number of concurrently running synthesis jobs
	// across the whole experiment (default 1 = serial): table rows fan out
	// onto a worker pool and every repetition of every cell draws from one
	// shared slot budget. Results and printed output are deterministic
	// regardless: every repetition has its own seed, aggregation is
	// order-independent, and rows are delivered in table order.
	Parallel int
	// BaseSeed offsets the per-repetition seeds.
	BaseSeed int64
	// GA tunes the engine; the zero value selects DefaultGA.
	GA ga.Config
	// Context, when non-nil, makes the experiment interruptible: on
	// cancellation every in-flight synthesis stops at its next generation
	// boundary and the remaining cells finish immediately with partial
	// best-so-far numbers. Check Context.Err() (or CellStats.PartialRuns)
	// to tell complete tables from truncated ones.
	Context context.Context
	// Certify runs the independent internal/verify certifier on every
	// repetition's result; a refused certification fails the cell with an
	// error wrapping ErrCertification, so no uncertified number can reach
	// a results table.
	Certify bool
	// Obs, when active, instruments every repetition (phase-timing
	// histograms, per-evaluation spans) and emits one bench_row trace event
	// per finished table row. Repetitions of a cell share the run; all its
	// surfaces are safe for concurrent use.
	Obs *obs.Run
	// Progress, when non-nil, receives a one-line heartbeat after every
	// finished table row (row name, elapsed time, best p̄ so far) —
	// mmbench -progress points it at stderr so long studies are visibly
	// alive without polluting the result table on stdout.
	Progress io.Writer

	// sem is the shared synthesis-slot semaphore (capacity Parallel). It is
	// created once per experiment by withDefaults and then travels with the
	// config copies, so concurrently evaluated rows cannot multiply the
	// configured parallelism.
	sem chan struct{}
}

func (c HarnessConfig) withDefaults() HarnessConfig {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	if c.GA.PopSize == 0 && c.GA.MaxGenerations == 0 {
		c.GA = DefaultGA()
	}
	if c.sem == nil {
		c.sem = make(chan struct{}, c.Parallel)
	}
	return c
}

// DefaultGA returns the GA configuration used for the table experiments.
func DefaultGA() ga.Config {
	return ga.Config{PopSize: 64, MaxGenerations: 300, Stagnation: 80}
}

// CellStats aggregates the repetitions of one table cell (one instance, one
// approach).
type CellStats struct {
	// Power is the mean Eq. (1) average power under the true execution
	// probabilities (watts).
	Power float64
	// MinPower/MaxPower bound the repetitions.
	MinPower, MaxPower float64
	// CPUTime is the mean optimisation wall-clock time.
	CPUTime time.Duration
	// FeasibleRuns counts repetitions whose best candidate met every
	// constraint.
	FeasibleRuns, Runs int
	// PartialRuns counts repetitions that were interrupted (cancelled
	// context) and contributed a best-so-far rather than converged result.
	PartialRuns int
	// Timings is the phase breakdown summed over the cell's repetitions;
	// all-zero unless HarnessConfig.Obs was active.
	Timings obs.Timings
}

// Row is one line of Table 1/2/3: probability-neglecting versus proposed.
type Row struct {
	Name    string
	Modes   int
	Without CellStats // execution probabilities neglected during synthesis
	With    CellStats // proposed: probabilities drive the synthesis
	// ReductionPct is the paper's "Reduc. (%)" column.
	ReductionPct float64
	// Timings sums the phase breakdown of both cells; all-zero unless the
	// harness was instrumented.
	Timings obs.Timings
}

// RunCell synthesises the system Reps times with distinct seeds and
// averages the outcomes. Repetitions run Parallel-wide; aggregation is
// order-independent so results match the serial protocol exactly.
func RunCell(sys *model.System, useDVS, neglect bool, cfg HarnessConfig) (CellStats, error) {
	cfg = cfg.withDefaults()
	type outcome struct {
		power    float64
		elapsed  time.Duration
		feasible bool
		partial  bool
		timings  obs.Timings
		err      error
	}
	outs := make([]outcome, cfg.Reps)
	sem := cfg.sem
	var wg sync.WaitGroup
	for r := 0; r < cfg.Reps; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Panic barrier: a panicking repetition must surface as that
			// repetition's error, not kill the whole study.
			defer func() {
				if p := recover(); p != nil {
					outs[r] = outcome{err: fmt.Errorf("rep %d: panic: %v", r, p)}
				}
			}()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := cfg.BaseSeed + int64(r)*7919
			res, err := synth.Synthesize(sys, synth.Options{
				UseDVS:               useDVS,
				NeglectProbabilities: neglect,
				GA:                   cfg.GA,
				Seed:                 seed,
				Context:              cfg.Context,
				Certify:              cfg.Certify,
				Obs:                  cfg.Obs,
			})
			if err != nil {
				outs[r] = outcome{err: err}
				return
			}
			if rep := res.Certification; rep != nil && !rep.Certified() {
				detail := "no violations recorded"
				if len(rep.Violations) > 0 {
					detail = rep.Violations[0].String()
				}
				outs[r] = outcome{err: fmt.Errorf("%w (seed %d: %s)", ErrCertification, seed, detail)}
				return
			}
			outs[r] = outcome{
				power:    res.Best.AvgPower,
				elapsed:  res.Elapsed,
				feasible: res.Best.Feasible(),
				partial:  res.Partial,
				timings:  res.Timings,
			}
		}(r)
	}
	wg.Wait()

	var cs CellStats
	for _, o := range outs {
		if o.err != nil {
			return cs, o.err
		}
		if cs.Runs == 0 || o.power < cs.MinPower {
			cs.MinPower = o.power
		}
		if cs.Runs == 0 || o.power > cs.MaxPower {
			cs.MaxPower = o.power
		}
		cs.Power += o.power
		cs.CPUTime += o.elapsed
		if o.feasible {
			cs.FeasibleRuns++
		}
		if o.partial {
			cs.PartialRuns++
		}
		cs.Timings.Add(o.timings)
		cs.Runs++
	}
	cs.Power /= float64(cs.Runs)
	cs.CPUTime /= time.Duration(cs.Runs)
	return cs, nil
}

// Compare runs both approaches on one instance and assembles the table row.
func Compare(name string, sys *model.System, useDVS bool, cfg HarnessConfig) (Row, error) {
	without, err := RunCell(sys, useDVS, true, cfg)
	if err != nil {
		return Row{}, err
	}
	with, err := RunCell(sys, useDVS, false, cfg)
	if err != nil {
		return Row{}, err
	}
	row := Row{
		Name:         name,
		Modes:        len(sys.App.Modes),
		Without:      without,
		With:         with,
		ReductionPct: energy.RelativeReduction(without.Power, with.Power),
	}
	row.Timings.Add(without.Timings)
	row.Timings.Add(with.Timings)
	return row, nil
}

// reportRow emits the per-row telemetry of a finished table row: the
// -progress heartbeat and, when tracing, one bench_row event. bestPower is
// the lowest proposed-approach p̄ over the rows finished so far; started is
// the table's start time.
func (c HarnessConfig) reportRow(table string, row Row, started time.Time, bestPower float64) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, "progress: %s done, elapsed %s, best avg power so far %.4f mW\n",
			row.Name, time.Since(started).Round(time.Second), bestPower*1e3)
	}
	if !c.Obs.Tracing() {
		return
	}
	t := row.Timings
	c.Obs.EmitBenchRow(obs.BenchRowEvent{
		Table:        table,
		Name:         row.Name,
		Modes:        row.Modes,
		PowerWithout: obs.Float(row.Without.Power),
		PowerWith:    obs.Float(row.With.Power),
		ReductionPct: obs.Float(row.ReductionPct),
		CPUWithoutNs: row.Without.CPUTime.Nanoseconds(),
		CPUWithNs:    row.With.CPUTime.Nanoseconds(),
		MobilityNs:   t.Mobility.Nanoseconds(),
		CoreAllocNs:  t.CoreAlloc.Nanoseconds(),
		ListSchedNs:  t.ListSched.Nanoseconds(),
		CommMapNs:    t.CommMap.Nanoseconds(),
		DVSNs:        t.DVS.Nanoseconds(),
		CertifyNs:    t.Certify.Nanoseconds(),
	})
}

// Table1 regenerates paper Table 1 (mul1–mul12, no DVS): the effect of
// considering execution probabilities. Progress rows stream to w (nil
// discards them).
func Table1(cfg HarnessConfig, w io.Writer) ([]Row, error) {
	return mulTable(false, cfg, w)
}

// Table2 regenerates paper Table 2 (mul1–mul12, with DVS on both software
// processors and hardware cores).
func Table2(cfg HarnessConfig, w io.Writer) ([]Row, error) {
	return mulTable(true, cfg, w)
}

// forEachRowOrdered evaluates n table rows concurrently — compute(i) runs
// in its own panic-isolated goroutine, with the actual synthesis width
// bounded by the config's shared slot semaphore, not the row count — while
// emit(row) observes the rows strictly in table order, exactly as the
// serial protocol prints them. The first error in row order wins (matching
// what a serial run would have reported); later rows still finish but are
// not emitted.
func forEachRowOrdered(n int, compute func(i int) (Row, error), emit func(Row)) error {
	type out struct {
		row Row
		err error
	}
	outs := make([]out, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{}, 1)
	}
	for i := 0; i < n; i++ {
		go func(i int) {
			// Panic barrier: a panicking row surfaces as that row's error,
			// not as a dead study. (The completion signal is a buffered send,
			// not a channel close: this package defines its own close helper,
			// which shadows the builtin.)
			defer func() {
				if p := recover(); p != nil {
					outs[i] = out{err: fmt.Errorf("bench: row %d: panic: %v", i+1, p)}
				}
				done[i] <- struct{}{}
			}()
			row, err := compute(i)
			outs[i] = out{row: row, err: err}
		}(i)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		<-done[i]
		if firstErr != nil {
			continue
		}
		if outs[i].err != nil {
			firstErr = outs[i].err
			continue
		}
		emit(outs[i].row)
	}
	return firstErr
}

func mulTable(useDVS bool, cfg HarnessConfig, w io.Writer) ([]Row, error) {
	cfg = cfg.withDefaults()
	table := "1"
	if useDVS {
		table = "2"
	}
	started := time.Now()
	best := math.Inf(1)
	rows := make([]Row, 0, NumMuls)
	if w != nil {
		fmt.Fprint(w, tableHeader(useDVS))
	}
	err := forEachRowOrdered(NumMuls, func(i int) (Row, error) {
		sys, err := MulSystem(i + 1)
		if err != nil {
			return Row{}, err
		}
		row, err := Compare(fmt.Sprintf("mul%d", i+1), sys, useDVS, cfg)
		if err != nil {
			return Row{}, fmt.Errorf("bench: mul%d: %w", i+1, err)
		}
		return row, nil
	}, func(row Row) {
		rows = append(rows, row)
		if row.With.Power < best {
			best = row.With.Power
		}
		cfg.reportRow(table, row, started, best)
		if w != nil {
			fmt.Fprint(w, formatRow(row))
		}
	})
	if err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprint(w, formatSummary(rows))
	}
	return rows, nil
}

// Table3 regenerates paper Table 3: the smart-phone example without and
// with DVS.
func Table3(cfg HarnessConfig, w io.Writer) ([]Row, error) {
	sys, err := SmartPhone()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	started := time.Now()
	best := math.Inf(1)
	var rows []Row
	if w != nil {
		fmt.Fprint(w, tableHeader(false))
	}
	variants := []bool{false, true}
	err = forEachRowOrdered(len(variants), func(i int) (Row, error) {
		name := "smartphone w/o DVS"
		if variants[i] {
			name = "smartphone with DVS"
		}
		return Compare(name, sys, variants[i], cfg)
	}, func(row Row) {
		rows = append(rows, row)
		if row.With.Power < best {
			best = row.With.Power
		}
		cfg.reportRow("3", row, started, best)
		if w != nil {
			fmt.Fprint(w, formatRow(row))
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func tableHeader(useDVS bool) string {
	tag := "w/o DVS"
	if useDVS {
		tag = "with DVS"
	}
	return fmt.Sprintf(
		"%-22s | %13s %9s | %13s %9s | %8s\n%s\n",
		"Example ("+tag+")",
		"P w/o prob.", "CPU", "P with prob.", "CPU", "Reduc.",
		"-----------------------+-------------------------+-------------------------+---------",
	)
}

func formatRow(r Row) string {
	return fmt.Sprintf("%-16s (%d) | %10.4f mW %8.1fs | %10.4f mW %8.1fs | %7.2f%%\n",
		r.Name, r.Modes,
		r.Without.Power*1e3, r.Without.CPUTime.Seconds(),
		r.With.Power*1e3, r.With.CPUTime.Seconds(),
		r.ReductionPct)
}

func formatSummary(rows []Row) string {
	if len(rows) == 0 {
		return ""
	}
	sum, best := 0.0, rows[0].ReductionPct
	for _, r := range rows {
		sum += r.ReductionPct
		if r.ReductionPct > best {
			best = r.ReductionPct
		}
	}
	return fmt.Sprintf("%-22s | mean reduction %.2f%%, best %.2f%%\n",
		"summary", sum/float64(len(rows)), best)
}
