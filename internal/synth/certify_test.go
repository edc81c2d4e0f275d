package synth

import (
	"testing"

	"momosyn/internal/ga"
	"momosyn/internal/model"
)

// certifySystem is a tiny two-mode instance the GA solves in a handful of
// generations.
func certifySystem(t *testing.T) *model.System {
	t.Helper()
	b := model.NewBuilder("certify-opt")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, DVS: true,
		Vmax: 3.3, Vt: 0.8, Levels: []float64{1.8, 2.5, 3.3},
		StaticPower: 0.001})
	b.AddPE(model.PE{Name: "hw", Class: model.ASIC, Area: 400, StaticPower: 0.002})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6, PowerActive: 0.004}, "cpu", "hw")
	b.AddType("t1", model.ImplSpec{PE: "cpu", Time: 0.001, Power: 0.004})
	b.AddType("t2",
		model.ImplSpec{PE: "cpu", Time: 0.002, Power: 0.005},
		model.ImplSpec{PE: "hw", Time: 0.0008, Power: 0.006, Area: 180})
	b.BeginMode("m0", 0.7, 0.040)
	b.AddTask("a", "t1", 0)
	b.AddTask("b", "t2", 0)
	b.AddEdge("a", "b", 500)
	b.BeginMode("m1", 0.3, 0.030)
	b.AddTask("u", "t2", 0)
	b.AddTask("v", "t1", 0)
	b.AddTransition("m0", "m1", 0)
	b.AddTransition("m1", "m0", 0)
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSynthesizeCertifyOption: with Options.Certify the run surfaces a
// certification report on the best implementation, and a clean run
// certifies.
func TestSynthesizeCertifyOption(t *testing.T) {
	sys := certifySystem(t)
	opts := Options{
		UseDVS: true,
		Seed:   1,
		GA:     ga.Config{PopSize: 12, MaxGenerations: 20, Stagnation: 10},
	}
	res, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certification != nil {
		t.Fatal("certification must be nil unless requested")
	}

	opts.Certify = true
	res, err = Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certification == nil {
		t.Fatal("Certify option produced no report")
	}
	if !res.Certification.Certified() {
		t.Errorf("clean synthesis must certify:\n%s", res.Certification)
	}
	if res.Certification.Checks == 0 {
		t.Error("certification evaluated no checks")
	}
	// Certification never influences the fingerprint, so checkpoints stay
	// resumable across the flag.
	plain := opts
	plain.Certify = false
	if checkpointFingerprint(opts) != checkpointFingerprint(plain) {
		t.Error("Certify must not alter the options fingerprint")
	}
}
