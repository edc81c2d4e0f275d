package dvs

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"momosyn/internal/model"
	"momosyn/internal/sched"
	"momosyn/internal/specio"
)

// shippedSpecs returns the paths of every specification under specs/,
// sorted.
func shippedSpecs(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped specifications found (%v)", err)
	}
	return paths
}

func loadSpec(t testing.TB, path string) *model.System {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := specio.ReadWarnBytes(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return sys
}

// randomMapping maps every task of every mode to one of its candidate PEs,
// as the synthesis genome codec does. pick(n) chooses among n candidates.
func randomMapping(sys *model.System, pick func(n int) int) model.Mapping {
	m := model.NewMapping(sys.App)
	for mi, mode := range sys.App.Modes {
		for ti, task := range mode.Graph.Tasks {
			cands := sys.CandidatePEs(task.Type)
			m[mi][ti] = cands[pick(len(cands))]
		}
	}
	return m
}

// replicaCores grants each (PE, task type) 1–3 core instances, so hardware
// PEs run same-type tasks in parallel as under replica-core allocation.
type replicaCores struct {
	n     []int
	types int
}

func newReplicaCores(sys *model.System, pick func(n int) int) replicaCores {
	c := replicaCores{n: make([]int, len(sys.Arch.PEs)*len(sys.Lib.Types)), types: len(sys.Lib.Types)}
	for i := range c.n {
		c.n[i] = 1 + pick(3)
	}
	return c
}

func (c replicaCores) Instances(_ model.ModeID, pe model.PEID, tt model.TaskTypeID) int {
	return c.n[int(pe)*c.types+int(tt)]
}

// differs reports whether any pair (a[i], a[i+1]) differs in its bits.
func differs(pairs ...float64) bool {
	for i := 0; i < len(pairs); i += 2 {
		if math.Float64bits(pairs[i]) != math.Float64bits(pairs[i+1]) {
			return true
		}
	}
	return false
}

// scheduleDiff describes the first difference between two schedules,
// comparing floats by bit pattern, or returns "" when they are identical.
func scheduleDiff(a, b *sched.Schedule) string {
	if len(a.Tasks) != len(b.Tasks) || len(a.Comms) != len(b.Comms) {
		return fmt.Sprintf("shape %d/%d vs %d/%d", len(a.Tasks), len(a.Comms), len(b.Tasks), len(b.Comms))
	}
	for i := range a.Tasks {
		x, y := &a.Tasks[i], &b.Tasks[i]
		if x.Task != y.Task || x.PE != y.PE || x.Core != y.Core || x.VoltIdx != y.VoltIdx ||
			differs(x.Start, y.Start, x.Finish, y.Finish, x.NomTime, y.NomTime, x.Power, y.Power, x.Energy, y.Energy) {
			return fmt.Sprintf("task %d: %+v vs %+v", i, *x, *y)
		}
	}
	for i := range a.Comms {
		x, y := &a.Comms[i], &b.Comms[i]
		if x.Edge != y.Edge || x.CL != y.CL || x.Routed != y.Routed ||
			differs(x.Start, y.Start, x.Finish, y.Finish, x.Time, y.Time, x.Power, y.Power, x.Energy, y.Energy) {
			return fmt.Sprintf("comm %d: %+v vs %+v", i, *x, *y)
		}
	}
	if a.Mode != b.Mode || a.Unroutable != b.Unroutable || differs(a.Makespan, b.Makespan) {
		return fmt.Sprintf("mode %d/%d unroutable %d/%d makespan %v/%v",
			a.Mode, b.Mode, a.Unroutable, b.Unroutable, a.Makespan, b.Makespan)
	}
	return ""
}

// segmentsDiff transforms the slots of every DVS hardware PE of the
// schedule with the reference and the live code and describes the first
// difference, comparing floats by bit pattern. Scaling outcomes hide most
// segment-power differences (they only break near-ties), so the segments
// are compared directly.
func segmentsDiff(sys *model.System, sc *sched.Schedule) string {
	for _, pe := range sys.Arch.PEs {
		if !(Config{}).segmented(pe) {
			continue
		}
		var slots []sched.TaskSlot
		for _, slot := range sc.Tasks {
			if slot.PE == pe.ID {
				slots = append(slots, slot)
			}
		}
		want, got := refTransform(slots), Transform(slots)
		if len(want) != len(got) {
			return fmt.Sprintf("PE %d: %d segments, reference %d", pe.ID, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if differs(w.Start, g.Start, w.End, g.End, w.Power, g.Power) || !slices.Equal(w.Active, g.Active) {
				return fmt.Sprintf("PE %d segment %d: %+v, reference %+v", pe.ID, i, g, w)
			}
		}
	}
	return ""
}

// checkScale scales one copy of nominal with the reference and one with x,
// and describes the first difference, segments included. scaled reports
// whether the reference slowed anything down.
func checkScale(x *Scaler, sys *model.System, nominal *sched.Schedule, cfg Config) (diff string, scaled bool) {
	if !cfg.SoftwareOnly {
		if d := segmentsDiff(sys, nominal); d != "" {
			return d, false
		}
	}
	want, got := nominal.Clone(), nominal.Clone()
	wantChanged := refScaleWith(sys, want, cfg)
	gotChanged := x.Run(sys, got, cfg)
	if wantChanged != gotChanged {
		return fmt.Sprintf("changed %v, reference %v", gotChanged, wantChanged), wantChanged
	}
	return scheduleDiff(want, got), wantChanged
}

// TestScaleDifferential runs the reference scaling against Scaler.Run on
// random mappings of every shipped specification, with and without the
// hardware-core transformation. One Scaler serves every call, so scratch
// left over from a larger or differently shaped graph would show.
func TestScaleDifferential(t *testing.T) {
	const mappings = 150
	var x Scaler
	rng := rand.New(rand.NewSource(5))
	scaled, total := 0, 0
	for _, path := range shippedSpecs(t) {
		sys := loadSpec(t, path)
		name := filepath.Base(path)
		for k := 0; k < mappings; k++ {
			mapping := randomMapping(sys, rng.Intn)
			cores := newReplicaCores(sys, rng.Intn)
			for m := range sys.App.Modes {
				nominal, err := sched.ListSchedule(sys, model.ModeID(m), mapping, cores, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []Config{{}, {SoftwareOnly: true}} {
					d, did := checkScale(&x, sys, nominal, cfg)
					if d != "" {
						t.Fatalf("%s mapping %d mode %d %+v: %s", name, k, m, cfg, d)
					}
					total++
					if did {
						scaled++
					}
				}
			}
		}
	}
	// Most random mappings leave slack; a run that scales nothing would
	// compare only the untouched early exits.
	if scaled < total/4 {
		t.Fatalf("only %d of %d schedules were scaled", scaled, total)
	}
	t.Logf("%d of %d schedules scaled, all bit-identical to the reference", scaled, total)
}

// TestScaleDifferentialZeroLengthTransfers is TestScaleDifferential on
// mul11 and smartphone with every third edge carrying no data. Such an
// edge still takes its link when its endpoints sit on different PEs but
// gets no graph node, so the link chains must pass over it; no shipped
// specification has one.
func TestScaleDifferentialZeroLengthTransfers(t *testing.T) {
	var x Scaler
	rng := rand.New(rand.NewSource(7))
	zeroLinked := 0
	for _, name := range []string{"mul11.spec", "smartphone.spec"} {
		sys := loadSpec(t, filepath.Join("..", "..", "specs", name))
		for _, mode := range sys.App.Modes {
			for i, e := range mode.Graph.Edges {
				if i%3 == 0 {
					e.Bytes = 0
				}
			}
		}
		for k := 0; k < 100; k++ {
			mapping := randomMapping(sys, rng.Intn)
			cores := newReplicaCores(sys, rng.Intn)
			for m := range sys.App.Modes {
				nominal, err := sched.ListSchedule(sys, model.ModeID(m), mapping, cores, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, cs := range nominal.Comms {
					if cs.CL != model.NoCL && cs.Time == 0 {
						zeroLinked++
					}
				}
				for _, cfg := range []Config{{}, {SoftwareOnly: true}} {
					if d, _ := checkScale(&x, sys, nominal, cfg); d != "" {
						t.Fatalf("%s mapping %d mode %d %+v: %s", name, k, m, cfg, d)
					}
				}
			}
		}
	}
	if zeroLinked == 0 {
		t.Fatal("no zero-length transfer took a link")
	}
}

// FuzzScaleDifferential decodes the input into a mapping and core counts
// of mul11 (DVS processors and a DVS ASIC) and runs the differential
// comparison on every mode, with and without the hardware-core
// transformation.
func FuzzScaleDifferential(f *testing.F) {
	sys := loadSpec(f, filepath.Join("..", "..", "specs", "mul11.spec"))
	var x Scaler
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("scale differential harness seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		k := 0
		pick := func(n int) int {
			v := 0
			if k < len(data) {
				v = int(data[k]) % n
			}
			k++
			return v
		}
		mapping := randomMapping(sys, pick)
		cores := newReplicaCores(sys, pick)
		for m := range sys.App.Modes {
			nominal, err := sched.ListSchedule(sys, model.ModeID(m), mapping, cores, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{{}, {SoftwareOnly: true}} {
				if d, _ := checkScale(&x, sys, nominal, cfg); d != "" {
					t.Fatalf("mode %d %+v: %s", m, cfg, d)
				}
			}
		}
	})
}
