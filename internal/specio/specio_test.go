package specio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"momosyn/internal/bench"
	"momosyn/internal/gen"
	"momosyn/internal/model"
)

const sample = `
# A two-PE example.
system demo

pe cpu class=gpp vmax=3.3 vt=0.8 static=0.5mW levels=1.8,2.5,3.3
pe acc class=asic area=500 static=0.2mW
cl bus bw=1MB/s active=2mW static=0.1mW pes=cpu,acc

type fir
impl fir cpu time=10ms power=4mW
impl fir acc time=200us power=1mW area=300
type ctl
impl ctl cpu time=1ms power=1mW

mode run prob=0.9 period=50ms
task run f1 type=fir
task run c1 type=ctl deadline=20ms
edge run f1 c1 bytes=256

mode idle prob=0.1 period=100ms
task idle c2 type=ctl

transition run idle max=10ms
transition idle run
`

func TestReadSample(t *testing.T) {
	sys, err := ReadBytes([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if sys.App.Name != "demo" {
		t.Errorf("name = %q", sys.App.Name)
	}
	if len(sys.Arch.PEs) != 2 || len(sys.Arch.CLs) != 1 {
		t.Fatalf("arch shape wrong")
	}
	cpu := sys.Arch.PEs[0]
	if !cpu.DVS || len(cpu.Levels) != 3 || cpu.Levels[0] != 1.8 {
		t.Errorf("cpu DVS levels = %v", cpu.Levels)
	}
	if math.Abs(cpu.StaticPower-0.5e-3) > 1e-15 {
		t.Errorf("cpu static = %v", cpu.StaticPower)
	}
	acc := sys.Arch.PEs[1]
	if acc.Class != model.ASIC || acc.Area != 500 {
		t.Errorf("acc = %+v", acc)
	}
	bus := sys.Arch.CLs[0]
	if bus.BytesPerSec != 1e6 || bus.PowerActive != 2e-3 {
		t.Errorf("bus = %+v", bus)
	}
	fir := sys.Lib.TypeByName("fir")
	if fir == nil || len(fir.Impls) != 2 {
		t.Fatalf("fir impls wrong")
	}
	if im, _ := fir.ImplOn(1); relDiff(im.Time, 200e-6) > 1e-12 || im.Area != 300 {
		t.Errorf("fir acc impl = %+v", im)
	}
	if len(sys.App.Modes) != 2 {
		t.Fatal("mode count")
	}
	run := sys.App.Modes[0]
	if run.Prob != 0.9 || run.Period != 50e-3 {
		t.Errorf("run mode = %+v", run)
	}
	if run.Graph.Tasks[1].Deadline != 20e-3 {
		t.Errorf("deadline = %v", run.Graph.Tasks[1].Deadline)
	}
	if run.Graph.Edges[0].Bytes != 256 {
		t.Errorf("edge bytes = %v", run.Graph.Edges[0].Bytes)
	}
	if len(sys.App.Transitions) != 2 || sys.App.Transitions[0].MaxTime != 10e-3 {
		t.Errorf("transitions = %+v", sys.App.Transitions)
	}
	if sys.App.Transitions[1].MaxTime != 0 {
		t.Error("missing max must mean unconstrained")
	}
}

func TestRoundTripSample(t *testing.T) {
	sys, err := ReadBytes([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, sys)
}

func TestRoundTripSmartPhone(t *testing.T) {
	sys, err := bench.SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, sys)
}

func TestRoundTripGenerated(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys, err := gen.Generate(gen.NewParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, sys)
	}
}

// roundTrip writes the system, reads it back, writes again and requires
// byte-identical output plus structural equality.
func roundTrip(t *testing.T, sys *model.System) {
	t.Helper()
	var buf1 bytes.Buffer
	if err := Write(&buf1, sys); err != nil {
		t.Fatal(err)
	}
	sys2, err := ReadBytes(buf1.Bytes())
	if err != nil {
		t.Fatalf("re-read failed: %v\nspec:\n%s", err, buf1.String())
	}
	var buf2 bytes.Buffer
	if err := Write(&buf2, sys2); err != nil {
		t.Fatal(err)
	}
	// After one read the representation is canonical: a further
	// read/write cycle must be a byte-identical fixed point.
	sys3, err := ReadBytes(buf2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := Write(&buf3, sys3); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != buf3.String() {
		t.Fatal("write-read-write is not a fixed point")
	}
	assertEqualSystems(t, sys, sys2)
}

func assertEqualSystems(t *testing.T, a, b *model.System) {
	t.Helper()
	if len(a.Arch.PEs) != len(b.Arch.PEs) || len(a.Arch.CLs) != len(b.Arch.CLs) {
		t.Fatal("arch shape differs")
	}
	for i := range a.Arch.PEs {
		pa, pb := a.Arch.PEs[i], b.Arch.PEs[i]
		if pa.Name != pb.Name || pa.Class != pb.Class || pa.Area != pb.Area ||
			relDiff(pa.StaticPower, pb.StaticPower) > 1e-12 ||
			pa.DVS != pb.DVS || len(pa.Levels) != len(pb.Levels) {
			t.Fatalf("PE %d differs: %+v vs %+v", i, pa, pb)
		}
	}
	if len(a.Lib.Types) != len(b.Lib.Types) {
		t.Fatal("type count differs")
	}
	for i := range a.Lib.Types {
		ta, tb := a.Lib.Types[i], b.Lib.Types[i]
		if ta.Name != tb.Name || len(ta.Impls) != len(tb.Impls) {
			t.Fatalf("type %d differs", i)
		}
		for j := range ta.Impls {
			ia, ib := ta.Impls[j], tb.Impls[j]
			if ia.PE != ib.PE || ia.Area != ib.Area ||
				relDiff(ia.Time, ib.Time) > 1e-9 || relDiff(ia.Power, ib.Power) > 1e-9 {
				t.Fatalf("type %s impl %d differs: %+v vs %+v", ta.Name, j, ia, ib)
			}
		}
	}
	if len(a.App.Modes) != len(b.App.Modes) {
		t.Fatal("mode count differs")
	}
	for i := range a.App.Modes {
		ma, mb := a.App.Modes[i], b.App.Modes[i]
		if ma.Name != mb.Name || ma.Prob != mb.Prob || relDiff(ma.Period, mb.Period) > 1e-9 {
			t.Fatalf("mode %d header differs", i)
		}
		if len(ma.Graph.Tasks) != len(mb.Graph.Tasks) || len(ma.Graph.Edges) != len(mb.Graph.Edges) {
			t.Fatalf("mode %d graph shape differs", i)
		}
		for j := range ma.Graph.Tasks {
			ta, tb := ma.Graph.Tasks[j], mb.Graph.Tasks[j]
			if ta.Name != tb.Name || ta.Type != tb.Type || relDiff(ta.Deadline, tb.Deadline) > 1e-9 {
				t.Fatalf("mode %d task %d differs", i, j)
			}
		}
		for j := range ma.Graph.Edges {
			ea, eb := ma.Graph.Edges[j], mb.Graph.Edges[j]
			if ea.Src != eb.Src || ea.Dst != eb.Dst || ea.Bytes != eb.Bytes {
				t.Fatalf("mode %d edge %d differs", i, j)
			}
		}
	}
	if len(a.App.Transitions) != len(b.App.Transitions) {
		t.Fatal("transition count differs")
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// TestReadBytesMatchesRead pins the in-memory entry points: ReadBytes and
// ReadWarnString must behave exactly like the reader-based ReadWarn — same
// system, same warnings, same line-numbered errors — since the server
// parses uploaded request bodies through them without a temp file.
func TestReadBytesMatchesRead(t *testing.T) {
	fromReader, _, err := ReadWarn(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := ReadBytes([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Write(&a, fromReader); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, fromBytes); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("ReadBytes parsed a different system than ReadWarn")
	}

	// Errors keep their 1-based line numbers through the bytes path.
	if _, err := ReadBytes([]byte("pe cpu class=gpp\nfrobnicate")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("ReadBytes error = %v, want line 2 diagnostic", err)
	}

	// Warnings survive too (probabilities summing to 0.8 are normalised).
	warnSpec := []byte(`
pe cpu class=gpp
cl bus bw=1MB/s pes=cpu
type t
impl t cpu time=1ms power=1mW
mode a prob=0.4 period=1s
task a x type=t
mode b prob=0.4 period=1s
task b y type=t
transition a b
transition b a
`)
	sys, warns, err := ReadWarnString(string(warnSpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) == 0 {
		t.Error("ReadWarnString dropped the normalisation warning")
	}
	if got := sys.App.Modes[0].Prob + sys.App.Modes[1].Prob; math.Abs(got-1) > 1e-12 {
		t.Errorf("probabilities not normalised: sum %v", got)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, spec string
	}{
		{"unknown directive", "frobnicate x"},
		{"bad attribute", "pe cpu class=gpp nonsense=1"},
		{"malformed kv", "pe cpu class"},
		{"duplicate kv", "pe cpu class=gpp class=gpp"},
		{"bad class", "pe cpu class=quantum"},
		{"impl before type", "pe cpu class=gpp\nimpl fir cpu time=1ms power=1mW"},
		{"task before mode", "task m t type=x"},
		{"edge before mode", "edge m a b"},
		{"bad time", "pe cpu class=gpp\ntype t\nimpl t cpu time=10parsecs power=1mW"},
		{"negative power", "pe cpu class=gpp\ntype t\nimpl t cpu time=1ms power=-1mW"},
		{"duplicate type", "type t\ntype t"},
		{"system extra", "system a b"},
		{"bad bytes", "mode m prob=1 period=1s\ntask m a type=t\nedge m a a bytes=x"},
	}
	for _, c := range cases {
		if _, err := ReadBytes([]byte(c.spec)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadNormalisesProbabilities(t *testing.T) {
	// Syntactically fine but probabilities sum to 0.8: the reader warns
	// (with the first mode's line number) and normalises the distribution.
	spec := `
pe cpu class=gpp
cl bus bw=1MB/s pes=cpu
type t
impl t cpu time=1ms power=1mW
mode a prob=0.4 period=1s
task a x type=t
mode b prob=0.4 period=1s
task b y type=t
`
	sys, warns, err := ReadWarn(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("misscaled probabilities must warn, not fail: %v", err)
	}
	if len(warns) != 1 {
		t.Fatalf("want exactly one warning, got %v", warns)
	}
	if warns[0].Line != 6 || !strings.Contains(warns[0].Msg, "0.8") {
		t.Errorf("warning must cite line 6 and the sum 0.8, got %+v", warns[0])
	}
	for _, m := range sys.App.Modes {
		if math.Abs(m.Prob-0.5) > 1e-12 {
			t.Errorf("mode %q prob = %g, want 0.5 after normalisation", m.Name, m.Prob)
		}
	}

	// A correctly scaled spec warns about nothing.
	ok := strings.Replace(spec, "prob=0.4", "prob=0.5", 2)
	if _, warns, err := ReadWarn(strings.NewReader(ok)); err != nil || len(warns) != 0 {
		t.Errorf("clean spec: err=%v warnings=%v", err, warns)
	}
}

func TestReadRejectsUnreachableMode(t *testing.T) {
	spec := `
pe cpu class=gpp
cl bus bw=1MB/s pes=cpu
type t
impl t cpu time=1ms power=1mW
mode a prob=0.4 period=1s
task a x type=t
mode b prob=0.3 period=1s
task b y type=t
mode c prob=0.3 period=1s
task c z type=t
transition a b max=1ms
transition b a max=1ms
transition c a max=1ms
`
	_, err := ReadBytes([]byte(spec))
	if err == nil {
		t.Fatal("unreachable mode must be rejected")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"c"`) || !strings.Contains(msg, "unreachable") {
		t.Errorf("error must name the unreachable mode: %v", err)
	}
	if !strings.Contains(msg, "line 10") {
		t.Errorf("error must carry the mode's line number: %v", err)
	}

	// Closing the cycle makes the same spec valid.
	fixed := spec + "transition a c max=1ms\n"
	if _, err := ReadBytes([]byte(fixed)); err != nil {
		t.Errorf("reachable state machine rejected: %v", err)
	}
}

func TestReadRejectsNonPositiveTransitionMax(t *testing.T) {
	base := `
pe cpu class=gpp
cl bus bw=1MB/s pes=cpu
type t
impl t cpu time=1ms power=1mW
mode a prob=0.5 period=1s
task a x type=t
mode b prob=0.5 period=1s
task b y type=t
transition a b max=%s
transition b a max=1ms
`
	for _, bad := range []string{"0s", "0ms", "-5ms"} {
		spec := fmt.Sprintf(base, bad)
		_, err := ReadBytes([]byte(spec))
		if err == nil {
			t.Errorf("max=%s must be rejected", bad)
			continue
		}
		// Negative durations are caught by the unit parser itself, zero by
		// the transition lint; both carry the line number and a reason.
		if !strings.Contains(err.Error(), "line 10") ||
			!(strings.Contains(err.Error(), "positive") || strings.Contains(err.Error(), "negative")) {
			t.Errorf("max=%s: error must cite line 10 and reason, got %v", bad, err)
		}
	}
	// Omitting max entirely stays legal (unconstrained transition).
	spec := strings.Replace(fmt.Sprintf(base, "1ms"), " max=1ms\ntransition b a max=1ms", "\ntransition b a", 1)
	if _, err := ReadBytes([]byte(spec)); err != nil {
		t.Errorf("unconstrained transition rejected: %v", err)
	}
}

func TestUnitParsing(t *testing.T) {
	cases := []struct {
		in   string
		f    func(string) (float64, error)
		want float64
	}{
		{"10ms", ParseTime, 10e-3},
		{"250us", ParseTime, 250e-6},
		{"3ns", ParseTime, 3e-9},
		{"1.5s", ParseTime, 1.5},
		{"2", ParseTime, 2},
		{"5mW", ParsePower, 5e-3},
		{"7uW", ParsePower, 7e-6},
		{"1W", ParsePower, 1},
		{"0.25", ParsePower, 0.25},
		{"10MB/s", ParseBandwidth, 10e6},
		{"8kB/s", ParseBandwidth, 8e3},
		{"1GB/s", ParseBandwidth, 1e9},
		{"512B/s", ParseBandwidth, 512},
	}
	for _, c := range cases {
		got, err := c.f(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if relDiff(got, c.want) > 1e-12 {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "-5ms", "10lightyears"} {
		if _, err := ParseTime(bad); err == nil {
			t.Errorf("%q should not parse", bad)
		}
	}
}

func TestUnitFormattingRoundTrips(t *testing.T) {
	for _, v := range []float64{0, 1e-9, 42e-6, 3.7e-3, 1.25, 900} {
		s := FormatTime(v)
		got, err := ParseTime(s)
		if err != nil {
			t.Fatalf("FormatTime(%v) = %q does not parse: %v", v, s, err)
		}
		if relDiff(got, v) > 1e-9 {
			t.Errorf("time %v -> %q -> %v", v, s, got)
		}
	}
	for _, v := range []float64{0, 5e-6, 3e-3, 2.5} {
		s := FormatPower(v)
		got, err := ParsePower(s)
		if err != nil || relDiff(got, v) > 1e-9 {
			t.Errorf("power %v -> %q -> %v (%v)", v, s, got, err)
		}
	}
	for _, v := range []float64{1, 5e3, 2e6, 3e9} {
		s := FormatBandwidth(v)
		got, err := ParseBandwidth(s)
		if err != nil || relDiff(got, v) > 1e-9 {
			t.Errorf("bw %v -> %q -> %v (%v)", v, s, got, err)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	spec := "# leading comment\n\n  \nsystem x # trailing\npe cpu class=gpp\ncl b bw=1B/s pes=cpu\ntype t\nimpl t cpu time=1ms power=1mW\nmode m prob=1 period=1s\ntask m a type=t\n"
	sys, err := ReadBytes([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if sys.App.Name != "x" {
		t.Errorf("name = %q", sys.App.Name)
	}
}

// TestReadNeverPanicsOnGarbage feeds randomly mangled spec lines to the
// parser; it must always return an error or a valid system, never panic.
func TestReadNeverPanicsOnGarbage(t *testing.T) {
	base := strings.Split(sample, "\n")
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 200; round++ {
		lines := append([]string(nil), base...)
		// Mutate a few random lines: truncate, duplicate, or scramble.
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(lines))
			switch rng.Intn(4) {
			case 0:
				if len(lines[i]) > 0 {
					lines[i] = lines[i][:rng.Intn(len(lines[i]))]
				}
			case 1:
				lines[i] = lines[i] + " " + lines[rng.Intn(len(lines))]
			case 2:
				lines[i] = strings.ReplaceAll(lines[i], "=", " ")
			case 3:
				lines[i] = strings.ToUpper(lines[i])
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on mangled input: %v\n%s", r, strings.Join(lines, "\n"))
				}
			}()
			sys, err := ReadBytes([]byte(strings.Join(lines, "\n")))
			if err == nil {
				// Any accepted output must validate.
				if verr := sys.Validate(); verr != nil {
					t.Fatalf("parser accepted invalid system: %v", verr)
				}
			}
		}()
	}
}

// TestReadReportsFirstBadAttribute: of several bad attributes on a line,
// the first in line order is the one reported, every time (a reader that
// walked a map of the attributes named one at random).
func TestReadReportsFirstBadAttribute(t *testing.T) {
	const spec = "pe P class=gpp vmax=x vt=y area=z"
	const want = `specio: line 1: vmax: strconv.ParseFloat: parsing "x": invalid syntax`
	for i := 0; i < 100; i++ {
		if _, err := ReadBytes([]byte(spec)); err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %s", i, err, want)
		}
	}
}

// TestReadLineLimit pins the 4 MiB line limit at its edge, counting a
// line's bytes before its newline ('\r' included) whether or not a
// newline ends it, and the error text naming the line.
func TestReadLineLimit(t *testing.T) {
	const head = "pe P class=gpp\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=1 period=1s\ntask m a type=t\n"
	comment := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	cases := []struct {
		name, spec string
		tooLong    bool
	}{
		{"longest line", head + comment(maxLine) + "\n", false},
		{"longest last line", head + comment(maxLine), false},
		{"longest line with CR", head + comment(maxLine-1) + "\r\n", false},
		{"one byte over", head + comment(maxLine+1) + "\n", true},
		{"one byte over, last line", head + comment(maxLine+1), true},
		{"one byte over with CR", head + comment(maxLine) + "\r\n", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkReadReference(t, []byte(c.spec))
			_, err := ReadBytes([]byte(c.spec))
			if !c.tooLong {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			const want = "specio: line 6: bufio.Scanner: token too long"
			if err == nil || err.Error() != want || !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("error %v, want %s", err, want)
			}
		})
	}
}

// TestReadCopiesSystemName: the system's name does not share the input's
// copy, which every other name is a substring of, so a caller that keeps
// only the name (a job record) does not keep the whole input alive.
func TestReadCopiesSystemName(t *testing.T) {
	// The system line sits between other declarations, inside the extent
	// of the copy that the other names span.
	spec := strings.Replace(sample, "system demo\n", "", 1)
	spec = strings.Replace(spec, "type fir\n", "system demo\ntype fir\n", 1)
	sys, err := ReadBytes([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	lo, hi := addr(sys.Arch.PEs[0].Name), addr(sys.App.Modes[1].Graph.Tasks[0].Name)
	if lo >= hi {
		t.Fatal("the other names are not substrings of one copy of the input")
	}
	if n := addr(sys.App.Name); n >= lo && n <= hi {
		t.Fatalf("system name %q lies inside the input copy (%#x in [%#x, %#x])", sys.App.Name, n, lo, hi)
	}
}
