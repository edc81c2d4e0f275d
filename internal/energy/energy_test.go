package energy

import (
	"math"
	"testing"
	"testing/quick"

	"momosyn/internal/model"
)

func TestTaskEnergyNominal(t *testing.T) {
	// At nominal voltage the paper's model reduces to Pmax * tmin.
	if got, want := TaskEnergy(0.5, 0.02, 3.3, 3.3), 0.01; math.Abs(got-want) > 1e-15 {
		t.Errorf("nominal energy = %v, want %v", got, want)
	}
}

func TestTaskEnergyQuadraticScaling(t *testing.T) {
	// Halving the supply voltage quarters the dynamic energy.
	full := TaskEnergy(1, 1, 3.3, 3.3)
	half := TaskEnergy(1, 1, 1.65, 3.3)
	if math.Abs(half-full/4) > 1e-12 {
		t.Errorf("half-voltage energy = %v, want %v", half, full/4)
	}
}

func TestTaskEnergyZeroVmax(t *testing.T) {
	if got := TaskEnergy(2, 3, 1, 0); got != 6 {
		t.Errorf("degenerate vmax: got %v, want plain Pmax*tmin", got)
	}
}

func TestScaledTimeNominal(t *testing.T) {
	if got := ScaledTime(0.01, 3.3, 3.3, 0.8); got != 0.01 {
		t.Errorf("nominal time = %v, want 0.01", got)
	}
	// Above nominal clamps to tmin.
	if got := ScaledTime(0.01, 4.0, 3.3, 0.8); got != 0.01 {
		t.Errorf("above-nominal time = %v, want 0.01", got)
	}
}

func TestScaledTimeMonotoneDecreasingInVdd(t *testing.T) {
	prev := math.Inf(1)
	for _, v := range []float64{1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.3} {
		cur := ScaledTime(1, v, 3.3, 0.8)
		if cur >= prev {
			t.Fatalf("ScaledTime not strictly decreasing at v=%v: %v >= %v", v, cur, prev)
		}
		prev = cur
	}
}

func TestScaledTimeKnownValue(t *testing.T) {
	// t(Vdd) = tmin * (Vdd/Vmax) * ((Vmax-Vt)/(Vdd-Vt))^2 at Vdd=1.65,
	// Vmax=3.3, Vt=0.8: (0.5)*((2.5/0.85))^2 = 0.5*8.6505... = 4.3252...
	got := ScaledTime(1, 1.65, 3.3, 0.8)
	want := 0.5 * math.Pow(2.5/0.85, 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ScaledTime = %v, want %v", got, want)
	}
}

func TestCommTime(t *testing.T) {
	cl := &model.CL{BytesPerSec: 1e6}
	if got := CommTime(500, cl); got != 500e-6 {
		t.Errorf("CommTime = %v, want 500us", got)
	}
	if got := CommTime(0, cl); got != 0 {
		t.Errorf("zero bytes must cost zero, got %v", got)
	}
}

func TestModePower(t *testing.T) {
	mp := ModePower{DynamicEnergy: 0.002, Period: 0.1, StaticPower: 0.005}
	if got := mp.Dynamic(); math.Abs(got-0.02) > 1e-15 {
		t.Errorf("Dynamic = %v, want 0.02", got)
	}
	if got := mp.Total(); math.Abs(got-0.025) > 1e-15 {
		t.Errorf("Total = %v, want 0.025", got)
	}
	if got := (ModePower{DynamicEnergy: 1, Period: 0}).Dynamic(); got != 0 {
		t.Errorf("zero period must not divide: got %v", got)
	}
}

func TestAveragePowerEquation1(t *testing.T) {
	app := &model.OMSM{Modes: []*model.Mode{
		{ID: 0, Prob: 0.1, Period: 1},
		{ID: 1, Prob: 0.9, Period: 1},
	}}
	per := []ModePower{
		{DynamicEnergy: 1, Period: 1, StaticPower: 0},
		{DynamicEnergy: 2, Period: 1, StaticPower: 1},
	}
	// 0.1*1 + 0.9*(2+1) = 2.8
	if got := AveragePower(app, per); math.Abs(got-2.8) > 1e-12 {
		t.Errorf("AveragePower = %v, want 2.8", got)
	}
}

func TestStaticPowerShutdown(t *testing.T) {
	arch := &model.Arch{
		PEs: []*model.PE{{StaticPower: 1}, {StaticPower: 2}},
		CLs: []*model.CL{{StaticPower: 4}},
	}
	got := StaticPower(arch, []bool{true, false}, []bool{true})
	if got != 5 {
		t.Errorf("StaticPower = %v, want 5 (PE0 + CL0)", got)
	}
	got = StaticPower(arch, []bool{false, false}, []bool{false})
	if got != 0 {
		t.Errorf("all shut down: %v, want 0", got)
	}
}

func TestEnergySavingSign(t *testing.T) {
	if s := EnergySaving(1, 1, 3.3, 2.5, 3.3); s <= 0 {
		t.Errorf("lowering voltage must save energy, got %v", s)
	}
}

func TestRelativeReduction(t *testing.T) {
	if got := RelativeReduction(10, 5); got != 50 {
		t.Errorf("RelativeReduction = %v, want 50", got)
	}
	if got := RelativeReduction(0, 5); got != 0 {
		t.Errorf("zero base: got %v, want 0", got)
	}
	if got := RelativeReduction(10, 12); got != -20 {
		t.Errorf("regression case: got %v, want -20", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("near-identical values must compare equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-9) {
		t.Error("different values must not compare equal")
	}
	if !ApproxEqual(0, 1e-12, 1e-9) {
		t.Error("near-zero absolute tolerance must apply")
	}
}

// Property: for any valid (pmax, tmin, vdd <= vmax) the scaled energy never
// exceeds the nominal energy and is non-negative.
func TestQuickEnergyBounded(t *testing.T) {
	f := func(p, tm, frac float64) bool {
		p = 1e-3 + math.Mod(math.Abs(p), 10)
		tm = 1e-6 + math.Mod(math.Abs(tm), 1)
		frac = math.Mod(math.Abs(frac), 1)
		vmax := 3.3
		vdd := 0.9 + frac*(vmax-0.9)
		e := TaskEnergy(p, tm, vdd, vmax)
		return e >= 0 && e <= p*tm+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaled time at any admissible voltage is at least tmin, and
// energy x time trade monotonically: lower voltage => more time, less
// energy.
func TestQuickTimeEnergyTradeoff(t *testing.T) {
	f := func(a, b float64) bool {
		vmax, vt := 3.3, 0.8
		va := vt + 0.1 + math.Mod(math.Abs(a), vmax-vt-0.1)
		vb := vt + 0.1 + math.Mod(math.Abs(b), vmax-vt-0.1)
		if va < vb {
			va, vb = vb, va
		}
		// va >= vb: time(va) <= time(vb), energy(va) >= energy(vb)
		tA := ScaledTime(1, va, vmax, vt)
		tB := ScaledTime(1, vb, vmax, vt)
		eA := TaskEnergy(1, 1, va, vmax)
		eB := TaskEnergy(1, 1, vb, vmax)
		return tA <= tB+1e-12 && eA >= eB-1e-12 && tA >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
