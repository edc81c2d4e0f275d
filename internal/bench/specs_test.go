package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"momosyn/internal/model"
	"momosyn/internal/specio"
)

// specsDir locates the shipped spec files relative to this package.
const specsDir = "../../specs"

// TestShippedSpecsMatchProgrammaticSystems guards the spec files under
// specs/ against drifting from the programmatic benchmark definitions:
// every shipped file must parse, validate, and match its in-code system
// structurally.
func TestShippedSpecsMatchProgrammaticSystems(t *testing.T) {
	cases := []struct {
		file  string
		build func() (*model.System, error)
	}{
		{"smartphone.spec", SmartPhone},
		{"sdr.spec", SDR},
	}
	for i := 1; i <= NumMuls; i++ {
		i := i
		cases = append(cases, struct {
			file  string
			build func() (*model.System, error)
		}{fmt.Sprintf("mul%d.spec", i), func() (*model.System, error) { return MulSystem(i) }})
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join(specsDir, c.file))
			if err != nil {
				t.Fatalf("shipped spec missing: %v (regenerate with mmgen)", err)
			}
			defer f.Close()
			parsed, _, err := specio.ReadWarn(f)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			want, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			assertSameShape(t, want, parsed)
		})
	}
}

// assertSameShape compares the structural fingerprint of two systems:
// entity counts, names, probabilities, graph shapes and implementation
// tables (times within float round-trip tolerance).
func assertSameShape(t *testing.T, a, b *model.System) {
	t.Helper()
	if len(a.Arch.PEs) != len(b.Arch.PEs) || len(a.Arch.CLs) != len(b.Arch.CLs) {
		t.Fatal("architecture shape differs")
	}
	for i := range a.Arch.PEs {
		pa, pb := a.Arch.PEs[i], b.Arch.PEs[i]
		if pa.Name != pb.Name || pa.Class != pb.Class || pa.Area != pb.Area || pa.DVS != pb.DVS {
			t.Fatalf("PE %d differs: %+v vs %+v", i, pa, pb)
		}
	}
	if len(a.Lib.Types) != len(b.Lib.Types) {
		t.Fatal("type counts differ")
	}
	for i := range a.Lib.Types {
		ta, tb := a.Lib.Types[i], b.Lib.Types[i]
		if ta.Name != tb.Name || len(ta.Impls) != len(tb.Impls) {
			t.Fatalf("type %q differs", ta.Name)
		}
		for j := range ta.Impls {
			ia, ib := ta.Impls[j], tb.Impls[j]
			if ia.PE != ib.PE || ia.Area != ib.Area || !close(ia.Time, ib.Time) || !close(ia.Power, ib.Power) {
				t.Fatalf("type %q impl %d differs: %+v vs %+v", ta.Name, j, ia, ib)
			}
		}
	}
	if len(a.App.Modes) != len(b.App.Modes) {
		t.Fatal("mode counts differ")
	}
	for i := range a.App.Modes {
		ma, mb := a.App.Modes[i], b.App.Modes[i]
		if ma.Name != mb.Name || ma.Prob != mb.Prob || !close(ma.Period, mb.Period) {
			t.Fatalf("mode %q header differs", ma.Name)
		}
		if len(ma.Graph.Tasks) != len(mb.Graph.Tasks) || len(ma.Graph.Edges) != len(mb.Graph.Edges) {
			t.Fatalf("mode %q graph shape differs", ma.Name)
		}
		for j := range ma.Graph.Tasks {
			if ma.Graph.Tasks[j].Name != mb.Graph.Tasks[j].Name ||
				ma.Graph.Tasks[j].Type != mb.Graph.Tasks[j].Type {
				t.Fatalf("mode %q task %d differs", ma.Name, j)
			}
		}
		for j := range ma.Graph.Edges {
			ea, eb := ma.Graph.Edges[j], mb.Graph.Edges[j]
			if ea.Src != eb.Src || ea.Dst != eb.Dst || ea.Bytes != eb.Bytes {
				t.Fatalf("mode %q edge %d differs", ma.Name, j)
			}
		}
	}
	if len(a.App.Transitions) != len(b.App.Transitions) {
		t.Fatal("transition counts differ")
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return d == 0
	}
	return d/m < 1e-9
}
