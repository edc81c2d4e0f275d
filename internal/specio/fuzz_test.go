package specio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzRead asserts that Read never panics and never returns (nil, nil) on
// arbitrary input, and that every error it does return names an input line
// (whole-spec semantic errors from validation are the one exception). The
// corpus is seeded with all shipped example specs plus targeted stubs of
// each directive.
func FuzzRead(f *testing.F) {
	if specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec")); err == nil {
		for _, path := range specs {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatalf("seed %s: %v", path, err)
			}
			f.Add(string(data))
		}
	}
	for _, seed := range []string{
		"",
		"system x",
		"pe P class=gpp levels=1.2,3.3 static=1mW",
		"pe P class=asic area=100\ncl B bw=1MB/s pes=P",
		"type t\nimpl t P time=1ms power=1mW",
		"mode m prob=1 period=1s\ntask m a type=t\nedge m a a bytes=9",
		"transition a b max=1ms",
		"# comment only\n\n  \n",
		"pe P class=gpp\npe P class=gpp",
		"mode m prob=-1 period=0s",
		"pe \x00 class=gpp",
		strings.Repeat("type t", 3),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sys, err := Read(strings.NewReader(input))
		if err == nil && sys == nil {
			t.Fatal("Read returned neither a system nor an error")
		}
		if err != nil && sys != nil {
			t.Fatal("Read returned both a system and an error")
		}
	})
}

// FuzzCanonical asserts the keying contract behind internal/cas on
// arbitrary parsable input: the canonical form reparses to exactly the
// parsed model (every float bit-identical), and canonicalising it again is
// a fixed point (byte-identical). Without the first, two specs that parse
// to neighbouring floats could share a key; without the second, two cache
// lookups for the same spec could disagree on it.
func FuzzCanonical(f *testing.F) {
	if specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec")); err == nil {
		for _, path := range specs {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatalf("seed %s: %v", path, err)
			}
			f.Add(string(data))
		}
	}
	f.Add("system x\npe P class=gpp vmax=3.3 vt=0.8\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=1 period=1s\ntask m a type=t\n")
	f.Add("system x\npe P class=gpp vmax=3.3 vt=0.8\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=1 period=0.018s\ntask m a type=t\n")
	f.Fuzz(func(t *testing.T, input string) {
		sys, _, err := ReadWarnBytes([]byte(input))
		if err != nil {
			t.Skip() // unparsable input is FuzzRead's territory
		}
		first, err := Canonical(sys)
		if err != nil {
			t.Fatalf("canonical form of a parsed model: %v", err)
		}
		back, _, err := ReadWarnBytes(first)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, first)
		}
		if diffs := floatDiffs(sortTransitions(sys), back); len(diffs) > 0 {
			t.Fatalf("canonical form reads back a different model (%s):\n%s", diffs[0], first)
		}
		second, err := Canonical(back)
		if err != nil {
			t.Fatalf("canonical form of the reparsed model: %v", err)
		}
		if string(second) != string(first) {
			t.Fatalf("canonicalisation is not idempotent:\n--- first\n%s\n--- second\n%s", first, second)
		}
	})
}
