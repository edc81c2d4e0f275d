package gantt

import (
	"bytes"
	"strings"
	"testing"

	"momosyn/internal/bench"
	"momosyn/internal/dvs"
	"momosyn/internal/model"
	"momosyn/internal/sched"
	"momosyn/internal/synth"
)

// phoneSchedule returns the smart phone with a deterministic schedule of
// its gsm_rlc mode (mode 1), everything on the GPP.
func phoneSchedule(t *testing.T, useDVS bool) (*model.System, *sched.Schedule) {
	t.Helper()
	sys, err := bench.SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := synth.NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	mapping := codec.Decode(make([]int, codec.Len()))
	sc, err := sched.ListSchedule(sys, 1, mapping, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if useDVS {
		dvs.ScaleWith(sys, sc, dvs.Config{})
	}
	return sys, sc
}

func TestBuildRowsCoverAllActivities(t *testing.T) {
	sys, sc := phoneSchedule(t, false)
	rows := Build(sys, 1, sc)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	bars := 0
	for _, r := range rows {
		bars += len(r.Bars)
		// Bars on one lane must not overlap.
		for i := 1; i < len(r.Bars); i++ {
			if r.Bars[i].Start < r.Bars[i-1].Finish-1e-12 {
				t.Errorf("lane %s: overlapping bars %d/%d", r.Label, i-1, i)
			}
		}
	}
	comms := 0
	for ei := range sc.Comms {
		if sc.Comms[ei].Routed && sc.Comms[ei].CL != model.NoCL && sc.Comms[ei].Time > 0 {
			comms++
		}
	}
	if want := len(sc.Tasks) + comms; bars != want {
		t.Errorf("bars = %d, want %d (tasks %d + comms %d)", bars, want, len(sc.Tasks), comms)
	}
}

func TestBuildHardwareCoreLanes(t *testing.T) {
	sys, err := bench.SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	// Map the two MP3 Huffman tasks of mode 2 onto ASIC1 (type HD has an
	// impl there) with two core instances.
	codec, err := synth.NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	mapping := codec.Decode(make([]int, codec.Len()))
	g := sys.App.Modes[2].Graph
	hd := sys.Lib.TypeByName("HD")
	asic1 := model.PEID(1)
	for ti := range g.Tasks {
		if g.Tasks[ti].Type == hd.ID {
			mapping[2][ti] = asic1
		}
	}
	sc, err := sched.ListSchedule(sys, 2, mapping, twoCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := Build(sys, 2, sc)
	lanes := map[string]bool{}
	for _, r := range rows {
		lanes[r.Label] = true
	}
	if !lanes["ASIC1/HD#0"] || !lanes["ASIC1/HD#1"] {
		t.Errorf("expected per-core lanes, got %v", lanes)
	}
}

type twoCores struct{}

func (twoCores) Instances(model.ModeID, model.PEID, model.TaskTypeID) int { return 2 }

func TestWriteTextShape(t *testing.T) {
	sys, sc := phoneSchedule(t, false)
	var buf bytes.Buffer
	if err := WriteText(&buf, sys, 1, sc, 100); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "mode gsm_rlc") {
		t.Errorf("missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatal("no lanes rendered")
	}
	// All lane lines share the same width.
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Errorf("ragged chart line: %q", l)
		}
	}
	if !strings.Contains(out, "#") {
		t.Error("no task bars rendered")
	}
}

func TestWriteSVGWellFormed(t *testing.T) {
	sys, sc := phoneSchedule(t, true)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, sys, 1, sc); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("not a closed SVG document")
	}
	if strings.Count(out, "<rect") == 0 {
		t.Error("no bars in SVG")
	}
	// DVS run: at least one scaled (green) task expected given slack.
	if !strings.Contains(out, "#3cab5a") {
		t.Error("expected at least one voltage-scaled bar")
	}
	// All rect tags closed.
	if strings.Count(out, "<rect") != strings.Count(out, "</rect>") {
		t.Error("unbalanced rect elements")
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Errorf("escape = %q", got)
	}
}

func TestClip(t *testing.T) {
	if got := clip("abcdef", 3); got != "abc" {
		t.Errorf("clip = %q", got)
	}
	if got := clip("ab", 5); got != "ab" {
		t.Errorf("clip = %q", got)
	}
	if got := clip("ab", 0); got != "a" {
		t.Errorf("clip floor = %q", got)
	}
}
