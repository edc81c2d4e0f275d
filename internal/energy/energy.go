// Package energy implements the power and energy model of the DATE 2003
// multi-mode co-synthesis paper (Schmitz/Al-Hashimi/Eles): dynamic energies
// of tasks and communications, supply-voltage scaling laws for DVS-enabled
// processing elements, static power with component shut-down, and the
// probability-weighted average power objective of Eq. (1).
package energy

import (
	"math"

	"momosyn/internal/model"
)

// TaskEnergy returns the dynamic energy of one task execution following the
// paper's model E = Pmax * tmin * (Vdd/Vmax)^2. For tasks on non-DVS PEs
// pass vdd == vmax, which reduces to Pmax*tmin.
func TaskEnergy(pmax, tmin, vdd, vmax float64) float64 {
	if vmax <= 0 {
		return pmax * tmin
	}
	r := vdd / vmax
	return pmax * tmin * r * r
}

// CommEnergy returns the dynamic energy of one message transfer,
// E = PC * tC.
func CommEnergy(pc, tc float64) float64 { return pc * tc }

// ScaledTime returns the execution time at supply voltage vdd of a task
// whose nominal time at vmax is tmin, using the alpha-power delay law with
// alpha = 2:
//
//	t(Vdd) = tmin * (Vdd/Vmax) * ((Vmax-Vt)/(Vdd-Vt))^2
//
// The function requires vdd > vt; callers guarantee this via the validated
// voltage level sets of the architecture.
func ScaledTime(tmin, vdd, vmax, vt float64) float64 {
	if vdd >= vmax {
		return tmin
	}
	num := vmax - vt
	den := vdd - vt
	return tmin * (vdd / vmax) * (num / den) * (num / den)
}

// CommTime returns the transfer time of a message of the given size over
// the link. A zero-byte message still has zero cost.
func CommTime(bytes float64, cl *model.CL) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / cl.BytesPerSec
}

// ModePower aggregates the power of one operational mode: the dynamic
// energy of all activities divided by the hyper-period, plus the static
// power of all powered components.
type ModePower struct {
	// DynamicEnergy is the summed dynamic energy of all task executions and
	// message transfers in one hyper-period (joules).
	DynamicEnergy float64
	// Period is the mode hyper-period used to convert energy to power.
	Period float64
	// StaticPower is the summed static power of the components that cannot
	// be shut down during the mode (watts).
	StaticPower float64
}

// Dynamic returns the average dynamic power of the mode.
func (m ModePower) Dynamic() float64 {
	if m.Period <= 0 {
		return 0
	}
	return m.DynamicEnergy / m.Period
}

// Total returns the average power of the mode (dynamic + static).
func (m ModePower) Total() float64 { return m.Dynamic() + m.StaticPower }

// AveragePower evaluates Eq. (1): the execution-probability weighted sum of
// per-mode average powers. The slice must be indexed by ModeID and parallel
// to the OMSM's modes.
func AveragePower(app *model.OMSM, perMode []ModePower) float64 {
	total := 0.0
	for i, m := range app.Modes {
		total += perMode[i].Total() * m.Prob
	}
	return total
}

// StaticPower sums the static power of the active components of a mode.
// activePE and activeCL are indexed by component ID.
func StaticPower(arch *model.Arch, activePE, activeCL []bool) float64 {
	p := 0.0
	for i, pe := range arch.PEs {
		if activePE[i] {
			p += pe.StaticPower
		}
	}
	for i, cl := range arch.CLs {
		if activeCL[i] {
			p += cl.StaticPower
		}
	}
	return p
}

// EnergySaving returns the dynamic-energy reduction obtained by moving a
// task of nominal power pmax and nominal time tmin from voltage va down to
// vb (va > vb) on a PE with nominal voltage vmax. The result is
// non-negative for va >= vb.
func EnergySaving(pmax, tmin, va, vb, vmax float64) float64 {
	return TaskEnergy(pmax, tmin, va, vmax) - TaskEnergy(pmax, tmin, vb, vmax)
}

// Joules formats are deliberately not provided here; reporting code uses
// milliwatts/milliseconds where the paper does.

// RelativeReduction returns the percentage reduction from base to improved
// (positive when improved < base), matching the paper's "Reduc. (%)"
// columns.
func RelativeReduction(base, improved float64) float64 {
	if model.ApproxEqual(base, 0, 0) {
		return 0
	}
	return (base - improved) / base * 100
}

// ApproxEqual reports whether two float64 values agree within the given
// relative tolerance (absolute tolerance for values near zero).
func ApproxEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}
