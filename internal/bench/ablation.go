package bench

import (
	"fmt"
	"io"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/synth"
)

// Ablation identifies one design-choice switch of the methodology.
type Ablation int

const (
	// AblFull is the complete proposed technique (reference point).
	AblFull Ablation = iota
	// AblNoImprovement disables the four improvement mutations of section
	// 4.1 (shut-down, area, timing, transition).
	AblNoImprovement
	// AblNoReplicas disables replica-core allocation for parallel
	// low-mobility tasks (Fig. 4 line 5).
	AblNoReplicas
	// AblSWOnlyDVS restricts voltage scaling to software processors,
	// reproducing the prior-work DVS the paper extends (section 4.2).
	// Only meaningful with DVS enabled.
	AblSWOnlyDVS
	// AblNeglectProbs neglects execution probabilities (the paper's
	// headline comparison, included for a complete picture).
	AblNeglectProbs
)

// String names the ablation.
func (a Ablation) String() string {
	switch a {
	case AblFull:
		return "full technique"
	case AblNoImprovement:
		return "no improvement mutations"
	case AblNoReplicas:
		return "no replica cores"
	case AblSWOnlyDVS:
		return "software-only DVS"
	case AblNeglectProbs:
		return "probabilities neglected"
	default:
		return fmt.Sprintf("Ablation(%d)", int(a))
	}
}

// options translates the ablation into synthesis options.
func (a Ablation) options(useDVS bool) synth.Options {
	opts := synth.Options{UseDVS: useDVS}
	switch a {
	case AblFull:
		// The reference configuration: no feature disabled.
	case AblNoImprovement:
		opts.NoImprovementMutations = true
	case AblNoReplicas:
		opts.NoReplicaCores = true
	case AblSWOnlyDVS:
		opts.DVSSoftwareOnly = true
	case AblNeglectProbs:
		opts.NeglectProbabilities = true
	}
	return opts
}

// AblationRow is one line of the ablation study.
type AblationRow struct {
	Ablation Ablation
	Stats    CellStats
	// DeltaPct is the power increase relative to the full technique
	// (positive = the removed ingredient was helping).
	DeltaPct float64
}

// AblationStudy runs the full technique and each ablation on the system,
// averaging cfg.Reps GA runs per variant, and reports the power cost of
// removing each ingredient. All variants are evaluated under the true
// execution probabilities.
func AblationStudy(sys *model.System, useDVS bool, cfg HarnessConfig, w io.Writer) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	variants := []Ablation{AblFull, AblNoImprovement, AblNoReplicas, AblNeglectProbs}
	if useDVS {
		variants = append(variants, AblSWOnlyDVS)
	}
	var rows []AblationRow
	var ref CellStats
	for _, v := range variants {
		stats, err := runAblationCell(sys, v, useDVS, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %v: %w", v, err)
		}
		row := AblationRow{Ablation: v, Stats: stats}
		if v == AblFull {
			ref = stats
		} else {
			row.DeltaPct = -energy.RelativeReduction(ref.Power, stats.Power)
		}
		rows = append(rows, row)
		if w != nil {
			fmt.Fprint(w, formatAblationRow(row))
		}
	}
	return rows, nil
}

func runAblationCell(sys *model.System, v Ablation, useDVS bool, cfg HarnessConfig) (CellStats, error) {
	var cs CellStats
	for r := 0; r < cfg.Reps; r++ {
		opts := v.options(useDVS)
		opts.GA = cfg.GA
		opts.Seed = cfg.BaseSeed + int64(r)*7919
		res, err := synth.Synthesize(sys, opts)
		if err != nil {
			return cs, err
		}
		p := res.Best.AvgPower
		if cs.Runs == 0 || p < cs.MinPower {
			cs.MinPower = p
		}
		if cs.Runs == 0 || p > cs.MaxPower {
			cs.MaxPower = p
		}
		cs.Power += p
		cs.CPUTime += res.Elapsed
		if res.Best.Feasible() {
			cs.FeasibleRuns++
		}
		cs.Runs++
	}
	cs.Power /= float64(cs.Runs)
	return cs, nil
}

func formatAblationRow(r AblationRow) string {
	delta := " (reference)"
	switch {
	case r.Ablation == AblFull:
	case r.Stats.FeasibleRuns < r.Stats.Runs:
		// Raw power of infeasible candidates is not comparable: constraint
		// violations can fake arbitrarily low powers.
		delta = "  infeasible"
	default:
		delta = fmt.Sprintf("%+11.2f%%", r.DeltaPct)
	}
	return fmt.Sprintf("%-28s | %10.4f mW | %s | feasible %d/%d\n",
		r.Ablation, r.Stats.Power*1e3, delta, r.Stats.FeasibleRuns, r.Stats.Runs)
}
