package specio

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzRead asserts that ReadBytes never panics and never returns both or
// neither of a system and an error on arbitrary input. The corpus is
// seeded with all shipped example specs plus targeted stubs of each
// directive (readCorpus).
func FuzzRead(f *testing.F) {
	for _, seed := range readCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sys, err := ReadBytes([]byte(input))
		if err == nil && sys == nil {
			t.Fatal("ReadBytes returned neither a system nor an error")
		}
		if err != nil && sys != nil {
			t.Fatal("ReadBytes returned both a system and an error")
		}
	})
}

// shippedSpecs returns the text of every spec under specs/.
func shippedSpecs(tb testing.TB) []string {
	var texts []string
	if specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec")); err == nil {
		for _, path := range specs {
			data, err := os.ReadFile(path)
			if err != nil {
				tb.Fatalf("seed %s: %v", path, err)
			}
			texts = append(texts, string(data))
		}
	}
	return texts
}

// readCorpus is the seed corpus of FuzzRead: every shipped spec plus a stub
// of each directive and a few malformed lines.
func readCorpus(tb testing.TB) []string {
	return append(shippedSpecs(tb),
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
	)
}

// FuzzCanonical asserts the keying contract behind internal/cas on
// arbitrary parsable input: the canonical form reparses to exactly the
// parsed model (every float bit-identical), and canonicalising it again is
// a fixed point (byte-identical). Without the first, two specs that parse
// to neighbouring floats could share a key; without the second, two cache
// lookups for the same spec could disagree on it.
func FuzzCanonical(f *testing.F) {
	for _, seed := range canonicalCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sys, _, err := ReadWarnString(input)
		if err != nil {
			t.Skip() // unparsable input is FuzzRead's territory
		}
		first, err := Canonical(sys)
		if err != nil {
			t.Fatalf("canonical form of a parsed model: %v", err)
		}
		back, _, err := ReadWarnString(string(first))
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, first)
		}
		if d := modelDiff("sys", reflect.ValueOf(sortTransitions(sys)), reflect.ValueOf(back)); d != "" {
			t.Fatalf("canonical form reads back a different model (%s):\n%s", d, first)
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

// canonicalCorpus is the seed corpus of FuzzCanonical and
// FuzzWriteReference: every shipped spec plus two stubs, the second with a
// period whose scaled unit rendering would not read back exactly.
func canonicalCorpus(tb testing.TB) []string {
	return append(shippedSpecs(tb),
		"system x\npe P class=gpp vmax=3.3 vt=0.8\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=1 period=1s\ntask m a type=t\n",
		"system x\npe P class=gpp vmax=3.3 vt=0.8\ntype t\nimpl t P time=1ms power=1mW\nmode m prob=1 period=0.018s\ntask m a type=t\n",
	)
}

// FuzzWriteReference asserts that Write emits, for every parsable input,
// exactly the bytes of the fmt-based writer it replaced
// (writeFmtReference); the canonical form, and with it every cache key,
// is those bytes.
func FuzzWriteReference(f *testing.F) {
	for _, seed := range canonicalCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		sys, _, err := ReadWarnString(input)
		if err != nil {
			t.Skip() // unparsable input is FuzzRead's territory
		}
		checkWriteReference(t, sys)
	})
}

// FuzzReadReference asserts that ReadWarnString agrees with the reader it
// replaced (readReference) on arbitrary input: the same error text with
// the same line number, the same warnings, and a system with the same
// canonical bytes and the same value in every field.
func FuzzReadReference(f *testing.F) {
	for _, seed := range referenceCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkReadReference(t, []byte(input))
	})
}
