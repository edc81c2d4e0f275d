package bench

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"momosyn/internal/energy"
	"momosyn/internal/ga"
	"momosyn/internal/model"
)

func tinyCfg() HarnessConfig {
	return HarnessConfig{
		Reps: 1,
		GA:   ga.Config{PopSize: 12, MaxGenerations: 25, Stagnation: 10},
	}
}

func TestMulSystemsValidateAndMatchEnvelope(t *testing.T) {
	systems, err := AllMulSystems()
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != NumMuls {
		t.Fatalf("got %d systems", len(systems))
	}
	for i, sys := range systems {
		if err := sys.Validate(); err != nil {
			t.Errorf("mul%d: %v", i+1, err)
		}
		if n := len(sys.App.Modes); n < 3 || n > 5 {
			t.Errorf("mul%d: %d modes outside the paper's 3-5", i+1, n)
		}
		for _, m := range sys.App.Modes {
			if n := len(m.Graph.Tasks); n < 8 || n > 32 {
				t.Errorf("mul%d mode %s: %d tasks outside 8-32", i+1, m.Name, n)
			}
		}
		if n := len(sys.Arch.PEs); n < 2 || n > 4 {
			t.Errorf("mul%d: %d PEs outside 2-4", i+1, n)
		}
		if n := len(sys.Arch.CLs); n < 1 || n > 3 {
			t.Errorf("mul%d: %d CLs outside 1-3", i+1, n)
		}
	}
	// The paper's table has a mix of mode counts; require at least two
	// distinct counts across the suite.
	counts := map[int]bool{}
	for _, sys := range systems {
		counts[len(sys.App.Modes)] = true
	}
	if len(counts) < 2 {
		t.Error("mul suite should vary in mode count")
	}
}

func TestMulSystemDeterministic(t *testing.T) {
	a, err := MulSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MulSystem(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.App.Modes) != len(b.App.Modes) || a.App.TotalTasks() != b.App.TotalTasks() {
		t.Error("mul3 not deterministic")
	}
	if a.App.Name != "mul3" {
		t.Errorf("name = %q", a.App.Name)
	}
}

func TestMulSystemBounds(t *testing.T) {
	if _, err := MulSystem(0); err == nil {
		t.Error("mul0 must be rejected")
	}
	if _, err := MulSystem(13); err == nil {
		t.Error("mul13 must be rejected")
	}
}

func TestSmartPhoneStructure(t *testing.T) {
	sys, err := SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sys.App.Modes) != 8 {
		t.Fatalf("smart phone has %d modes, want 8 (paper Fig. 1a)", len(sys.App.Modes))
	}
	// Probabilities from Fig. 1a.
	want := map[string]float64{
		"rlc": 0.74, "gsm_rlc": 0.09, "mp3_rlc": 0.10, "netsearch": 0.01,
		"photo_rlc": 0.02, "showphoto": 0.02, "mp3_net": 0.01, "photo_net": 0.01,
	}
	for _, m := range sys.App.Modes {
		if m.Prob != want[m.Name] {
			t.Errorf("mode %s prob = %v, want %v", m.Name, m.Prob, want[m.Name])
		}
		// Paper: between 5 and 88 task nodes per mode.
		if n := len(m.Graph.Tasks); n < 5 || n > 88 {
			t.Errorf("mode %s has %d tasks, outside the paper's 5-88", m.Name, n)
		}
		if n := len(m.Graph.Edges); n > 137 {
			t.Errorf("mode %s has %d edges, above the paper's 137", m.Name, n)
		}
	}
	// Architecture: one DVS GPP + two ASICs + one bus.
	if len(sys.Arch.PEs) != 3 || len(sys.Arch.CLs) != 1 {
		t.Fatal("architecture shape wrong")
	}
	if !sys.Arch.PEs[0].DVS || sys.Arch.PEs[0].Class != model.GPP {
		t.Error("PE0 must be the DVS GPP")
	}
	for _, pe := range sys.Arch.PEs[1:] {
		if pe.Class != model.ASIC || pe.DVS {
			t.Errorf("%s must be a non-DVS ASIC", pe.Name)
		}
	}
}

func TestSmartPhoneTypeSharingAcrossApplications(t *testing.T) {
	sys, err := SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	usedIn := make(map[string]map[string]bool)
	for _, m := range sys.App.Modes {
		for _, task := range m.Graph.Tasks {
			name := sys.Lib.Type(task.Type).Name
			if usedIn[name] == nil {
				usedIn[name] = make(map[string]bool)
			}
			usedIn[name][m.Name] = true
		}
	}
	// The paper's explicit sharing examples: the IDCT kernel serves both
	// the MP3 decoder and the JPEG decoder; HD and DEQ likewise.
	for _, tt := range []string{"IDCT", "HD", "DEQ"} {
		modes := usedIn[tt]
		if !modes["mp3_rlc"] || !modes["photo_rlc"] {
			t.Errorf("type %s must be shared between MP3 and photo modes, got %v", tt, modes)
		}
	}
	// FFT serves both the audio filterbank and the network searcher.
	if m := usedIn["FFT"]; !m["mp3_rlc"] || !m["netsearch"] {
		t.Errorf("FFT sharing wrong: %v", usedIn["FFT"])
	}
}

func TestSmartPhoneTransitionsMatchFSM(t *testing.T) {
	sys, err := SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	// Every mode must be reachable and leavable.
	outDeg := make(map[model.ModeID]int)
	inDeg := make(map[model.ModeID]int)
	for _, tr := range sys.App.Transitions {
		outDeg[tr.From]++
		inDeg[tr.To]++
		if tr.MaxTime <= 0 {
			t.Error("smart phone transitions carry time limits")
		}
	}
	for _, m := range sys.App.Modes {
		if outDeg[m.ID] == 0 || inDeg[m.ID] == 0 {
			t.Errorf("mode %s is a sink or source of the FSM", m.Name)
		}
	}
}

func TestRunCellAveragesOverReps(t *testing.T) {
	sys, err := Figure2System()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Reps = 3
	cs, err := RunCell(sys, false, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Runs != 3 {
		t.Errorf("runs = %d, want 3", cs.Runs)
	}
	if cs.MinPower > cs.Power || cs.Power > cs.MaxPower {
		t.Errorf("mean %v outside [min %v, max %v]", cs.Power, cs.MinPower, cs.MaxPower)
	}
	if cs.FeasibleRuns != 3 {
		t.Errorf("feasible runs = %d, want 3 on the easy Fig. 2 system", cs.FeasibleRuns)
	}
	if cs.CPUTime <= 0 {
		t.Error("CPU time must be recorded")
	}
}

func TestCompareProducesRow(t *testing.T) {
	sys, err := Figure2System()
	if err != nil {
		t.Fatal(err)
	}
	// The converging budget, at which TestFigure2OptimalityOracle finds
	// nearly every seed at the exhaustive optimum; at the reduced budget
	// only about 74% of seeds land in the band.
	row, err := Compare("fig2", sys, false, HarnessConfig{Reps: 1, GA: fig2Converging})
	if err != nil {
		t.Fatal(err)
	}
	if row.Name != "fig2" || row.Modes != 2 {
		t.Errorf("row header wrong: %+v", row)
	}
	// Both variants at their optima: the reduction must stay in the
	// vicinity of the paper's 41%.
	if row.ReductionPct < 30 || row.ReductionPct > 45 {
		t.Errorf("reduction = %.2f%%, want ~41%%", row.ReductionPct)
	}
	if want := energy.RelativeReduction(row.Without.Power, row.With.Power); row.ReductionPct != want {
		t.Errorf("ReductionPct = %v, want RelativeReduction of the cell powers %v", row.ReductionPct, want)
	}
}

func TestTable3SmokeAndFormat(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table3(tinyCfg(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table 3 has %d rows, want 2", len(rows))
	}
	if !strings.Contains(buf.String(), "smartphone w/o DVS") ||
		!strings.Contains(buf.String(), "smartphone with DVS") {
		t.Errorf("output missing row labels:\n%s", buf.String())
	}
	// DVS must lower the absolute power in both columns (the paper's
	// 2.602->1.217 and 1.801->0.859 pattern).
	if rows[1].With.Power >= rows[0].With.Power {
		t.Errorf("DVS should lower power: %v -> %v", rows[0].With.Power, rows[1].With.Power)
	}
	if rows[1].Without.Power >= rows[0].Without.Power {
		t.Errorf("DVS should lower baseline power: %v -> %v", rows[0].Without.Power, rows[1].Without.Power)
	}
}

func TestFormatRowAndSummary(t *testing.T) {
	r := Row{Name: "mulX", Modes: 4, ReductionPct: 12.5}
	r.Without.Power = 10e-3
	r.With.Power = 8.75e-3
	s := formatRow(r)
	if !strings.Contains(s, "mulX") || !strings.Contains(s, "12.50%") {
		t.Errorf("formatRow = %q", s)
	}
	sum := formatSummary([]Row{r, {ReductionPct: 2.5}})
	if !strings.Contains(sum, "7.50%") || !strings.Contains(sum, "12.50%") {
		t.Errorf("formatSummary = %q", sum)
	}
	if formatSummary(nil) != "" {
		t.Error("empty summary must be empty")
	}
}

func TestHarnessDefaults(t *testing.T) {
	c := HarnessConfig{}.withDefaults()
	if c.Reps != 5 {
		t.Errorf("default reps = %d", c.Reps)
	}
	if c.GA.PopSize != 64 {
		t.Errorf("default GA = %+v", c.GA)
	}
	// Explicit GA must be preserved.
	c = HarnessConfig{GA: ga.Config{PopSize: 8, MaxGenerations: 10}}.withDefaults()
	if c.GA.PopSize != 8 {
		t.Error("explicit GA overwritten")
	}
}

func TestRunCellParallelMatchesSerial(t *testing.T) {
	sys, err := Figure2System()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyCfg()
	cfg.Reps = 4
	serial, err := RunCell(sys, false, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	parallel, err := RunCell(sys, false, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Power != parallel.Power || serial.MinPower != parallel.MinPower ||
		serial.MaxPower != parallel.MaxPower || serial.FeasibleRuns != parallel.FeasibleRuns {
		t.Errorf("parallel cell differs from serial: %+v vs %+v", parallel, serial)
	}
}

// cpuColRe matches the wall-clock CPU columns of a printed table; they are
// the one part of the output that legitimately varies between runs.
var cpuColRe = regexp.MustCompile(`\d+\.\ds`)

// TestTableParallelMatchesSerial fans the Table 3 rows out onto a worker
// pool and requires the printed table — row order included — to be
// byte-identical to the serial run, with only the measured CPU-time
// columns normalised away.
func TestTableParallelMatchesSerial(t *testing.T) {
	cfg := tinyCfg()
	var serialOut bytes.Buffer
	serialRows, err := Table3(cfg, &serialOut)
	if err != nil {
		t.Fatal(err)
	}
	cfg = tinyCfg()
	cfg.Parallel = 4
	var parallelOut bytes.Buffer
	parallelRows, err := Table3(cfg, &parallelOut)
	if err != nil {
		t.Fatal(err)
	}
	a := cpuColRe.ReplaceAllString(serialOut.String(), "CPU")
	b := cpuColRe.ReplaceAllString(parallelOut.String(), "CPU")
	if a != b {
		t.Errorf("parallel table output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	if len(serialRows) != len(parallelRows) {
		t.Fatalf("row counts differ: %d vs %d", len(serialRows), len(parallelRows))
	}
	for i := range serialRows {
		s, p := serialRows[i], parallelRows[i]
		if s.Name != p.Name || s.Without.Power != p.Without.Power || s.With.Power != p.With.Power {
			t.Errorf("row %d differs: serial %q %v/%v, parallel %q %v/%v",
				i, s.Name, s.Without.Power, s.With.Power, p.Name, p.Without.Power, p.With.Power)
		}
	}
}
