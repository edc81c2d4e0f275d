package specio

import (
	"bytes"
	"strings"
	"testing"

	"momosyn/internal/bench"
	"momosyn/internal/model"
	"momosyn/internal/synth"
)

func phoneWithMapping(t *testing.T) (*model.System, model.Mapping) {
	t.Helper()
	sys, err := bench.SmartPhone()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := synth.NewCodec(sys)
	if err != nil {
		t.Fatal(err)
	}
	genome := make([]int, codec.Len())
	for i := range genome {
		genome[i] = i % codec.Alleles(i)
	}
	return sys, codec.Decode(genome)
}

func TestMappingRoundTrip(t *testing.T) {
	sys, m := phoneWithMapping(t)
	var buf bytes.Buffer
	if err := WriteMapping(&buf, sys, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMapping(bytes.NewReader(buf.Bytes()), sys)
	if err != nil {
		t.Fatalf("read back failed: %v", err)
	}
	if !got.Equal(m) {
		t.Fatal("mapping round trip mismatch")
	}
}

func TestWriteMappingRejectsInvalid(t *testing.T) {
	sys, m := phoneWithMapping(t)
	m[0][0] = model.PEID(99)
	if err := WriteMapping(&bytes.Buffer{}, sys, m); err == nil {
		t.Fatal("invalid mapping must be rejected")
	}
}

func TestReadMappingErrors(t *testing.T) {
	sys, m := phoneWithMapping(t)
	var buf bytes.Buffer
	if err := WriteMapping(&buf, sys, m); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	cases := []struct {
		name, input string
	}{
		{"garbage line", "map too few"},
		{"unknown mode", "map nosuchmode r_burst GPP"},
		{"unknown task", "map rlc nosuchtask GPP"},
		{"unknown pe", "map rlc r_burst NOPE"},
		{"duplicate", full + strings.SplitN(full, "\n", 3)[1] + "\n"},
		{"incomplete", strings.SplitN(full, "\n", 3)[1] + "\n"},
	}
	for _, c := range cases {
		if _, err := ReadMapping(strings.NewReader(c.input), sys); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadMappingRejectsTypeMismatch(t *testing.T) {
	sys, _ := phoneWithMapping(t)
	// r_burst is of type PARSE (software-only): mapping it to ASIC1 parses
	// but must fail validation.
	var sb strings.Builder
	for mi, mode := range sys.App.Modes {
		for ti, task := range mode.Graph.Tasks {
			pe := "GPP"
			if mi == 0 && ti == 0 {
				pe = "ASIC1"
			}
			sb.WriteString("map " + mode.Name + " " + task.Name + " " + pe + "\n")
		}
	}
	if _, err := ReadMapping(strings.NewReader(sb.String()), sys); err == nil {
		t.Fatal("type without implementation on PE must be rejected")
	}
}

func TestReadMappingIgnoresCommentsAndBlanks(t *testing.T) {
	sys, m := phoneWithMapping(t)
	var buf bytes.Buffer
	if err := WriteMapping(&buf, sys, m); err != nil {
		t.Fatal(err)
	}
	decorated := "# header\n\n" + strings.ReplaceAll(buf.String(), "\nmap rlc", " # trail\nmap rlc")
	got, err := ReadMapping(strings.NewReader(decorated), sys)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("comments changed the mapping")
	}
}

// TestReadMappingLineLimit: a mapping line longer than the 4 MiB limit is
// rejected with its line number, as the spec reader rejects one.
func TestReadMappingLineLimit(t *testing.T) {
	sys, m := phoneWithMapping(t)
	var buf bytes.Buffer
	if err := WriteMapping(&buf, sys, m); err != nil {
		t.Fatal(err)
	}
	input := "# header\n" + strings.Repeat("x", maxLine+1) + "\n" + buf.String()
	const want = "specio: line 2: bufio.Scanner: token too long"
	if _, err := ReadMapping(strings.NewReader(input), sys); err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}
