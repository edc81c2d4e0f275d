package specio

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"momosyn/internal/bench"
	"momosyn/internal/model"
)

// mutateSpec derives semantically identical textual variants of a spec:
// comment and whitespace noise, attribute-order permutations within lines,
// reordered transition declarations, and the communication-link section
// moved after the task library. All of them parse to the same model, so
// Canonical must render them byte-identically.
func mutateSpec(text string) map[string]string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")

	commented := make([]string, 0, 2*len(lines))
	for i, l := range lines {
		if i%2 == 0 {
			commented = append(commented, fmt.Sprintf("# noise %d", i))
		}
		commented = append(commented, "  "+l+"   # trailing note")
		if i%3 == 0 {
			commented = append(commented, "\t")
		}
	}

	// Reverse the key=value attribute tail of every directive line; the
	// leading positional tokens stay in place.
	attrSwapped := make([]string, len(lines))
	for i, l := range lines {
		fields := strings.Fields(l)
		head := 0
		for head < len(fields) && !strings.Contains(fields[head], "=") {
			head++
		}
		for a, b := head, len(fields)-1; a < b; a, b = a+1, b-1 {
			fields[a], fields[b] = fields[b], fields[a]
		}
		attrSwapped[i] = strings.Join(fields, " ")
	}

	// Transition declarations are an unordered constraint set: reverse them.
	var trans, rest []string
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "transition ") {
			trans = append(trans, l)
		} else {
			rest = append(rest, l)
		}
	}
	for a, b := 0, len(trans)-1; a < b; a, b = a+1, b-1 {
		trans[a], trans[b] = trans[b], trans[a]
	}
	transReversed := append(append([]string{}, rest...), trans...)

	// Move the cl declarations after the type/impl section (they reference
	// only PEs, so any position after the pe lines parses identically).
	var cls, others []string
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "cl ") {
			cls = append(cls, l)
		} else {
			others = append(others, l)
		}
	}
	clsMoved := make([]string, 0, len(lines))
	inserted := false
	for _, l := range others {
		if !inserted && strings.HasPrefix(strings.TrimSpace(l), "mode ") {
			clsMoved = append(clsMoved, cls...)
			inserted = true
		}
		clsMoved = append(clsMoved, l)
	}
	if !inserted {
		clsMoved = append(clsMoved, cls...)
	}

	return map[string]string{
		"comments-and-whitespace": strings.Join(commented, "\n") + "\n",
		"attribute-order":         strings.Join(attrSwapped, "\n") + "\n",
		"transition-order":        strings.Join(transReversed, "\n") + "\n",
		"cl-section-moved":        strings.Join(clsMoved, "\n") + "\n",
	}
}

// TestCanonicalGolden pins the keying contract on the shipped benchmark
// specs: every semantically identical mutation of mul1–mul3 canonicalises
// to exactly the bytes of the pristine spec, and canonicalisation is
// idempotent (parse→canonical→parse→canonical is a fixed point).
func TestCanonicalGolden(t *testing.T) {
	for _, name := range []string{"mul1", "mul2", "mul3"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".spec"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := CanonicalBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("canonical form is empty")
			}
			again, err := CanonicalBytes(want)
			if err != nil {
				t.Fatalf("canonical form does not reparse: %v", err)
			}
			if string(again) != string(want) {
				t.Fatalf("canonicalisation is not idempotent:\n--- first\n%s\n--- second\n%s", want, again)
			}
			for mname, mutated := range mutateSpec(string(raw)) {
				got, err := CanonicalBytes([]byte(mutated))
				if err != nil {
					t.Fatalf("%s mutation does not parse: %v\n%s", mname, err, mutated)
				}
				if string(got) != string(want) {
					t.Fatalf("%s mutation canonicalises differently:\n--- want\n%s\n--- got\n%s", mname, want, got)
				}
			}
		})
	}
}

// TestCanonicalNormalisesProbabilities checks the distribution
// normalisation leg of the contract with float-exact values: probabilities
// scaled by any factor canonicalise to the normalised distribution.
func TestCanonicalNormalisesProbabilities(t *testing.T) {
	const tmpl = `system norm
pe P class=gpp vmax=3.3 vt=0.8
type t
impl t P time=1ms power=1mW
mode a prob=%s period=1s
task a x type=t
mode b prob=%s period=1s
task b x type=t
transition a b
transition b a
`
	want, err := CanonicalBytes([]byte(fmt.Sprintf(tmpl, "0.5", "0.5")))
	if err != nil {
		t.Fatal(err)
	}
	// 0.25/0.25 sums to 0.5: normalising divides by a power of two, which
	// is exact in binary floating point, so the bytes must match 0.5/0.5.
	got, err := CanonicalBytes([]byte(fmt.Sprintf(tmpl, "0.25", "0.25")))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("scaled probabilities canonicalise differently:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if !strings.Contains(string(want), "prob=0.5") {
		t.Fatalf("canonical form lost the normalised probability:\n%s", want)
	}
}

// TestCanonicalDistinguishesModels checks the negative direction: textual
// differences that change the model (PE order shapes the genome encoding)
// must change the canonical bytes.
func TestCanonicalDistinguishesModels(t *testing.T) {
	a := `system d
pe P class=gpp vmax=3.3 vt=0.8
pe Q class=gpp vmax=3.3 vt=0.8
type t
impl t P time=1ms power=1mW
impl t Q time=2ms power=2mW
mode m prob=1 period=1s
task m x type=t
`
	b := strings.Replace(a, "pe P class=gpp vmax=3.3 vt=0.8\npe Q class=gpp vmax=3.3 vt=0.8",
		"pe Q class=gpp vmax=3.3 vt=0.8\npe P class=gpp vmax=3.3 vt=0.8", 1)
	ca, err := CanonicalBytes([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalBytes([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) == string(cb) {
		t.Fatal("reordered PE declarations (a different genome encoding) canonicalised identically")
	}
}

// TestCanonicalKeysNeighbouringFloats: "18ms" and "0.018s" parse to two
// neighbouring floats (18*1e-3 and 0.018), which synthesise to different
// powers, so they must key differently.
func TestCanonicalKeysNeighbouringFloats(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "specs", "smartphone.spec"))
	if err != nil {
		t.Fatal(err)
	}
	const line = "mode gsm_rlc prob=0.09 period=20ms"
	if !strings.Contains(string(raw), line) {
		t.Fatalf("smartphone.spec lost the line %q", line)
	}
	keys := map[string]string{}
	for _, period := range []string{"18ms", "0.018s"} {
		text := strings.Replace(string(raw), line, "mode gsm_rlc prob=0.09 period="+period, 1)
		key, err := CanonicalBytes([]byte(text))
		if err != nil {
			t.Fatal(err)
		}
		keys[period] = string(key)
	}
	if keys["18ms"] == keys["0.018s"] {
		t.Fatal("period=18ms and period=0.018s parse to different floats but canonicalise identically")
	}
}

// TestCanonicalExactModel: the canonical form of every in-memory benchmark
// system reads back to bit-identical floats, so the key names exactly the
// model that was keyed.
func TestCanonicalExactModel(t *testing.T) {
	type named struct {
		name  string
		build func() (*model.System, error)
	}
	systems := []named{{"smartphone", bench.SmartPhone}, {"sdr", bench.SDR}}
	for i := 1; i <= bench.NumMuls; i++ {
		systems = append(systems, named{fmt.Sprintf("mul%d", i), func() (*model.System, error) { return bench.MulSystem(i) }})
	}
	for _, s := range systems {
		sys, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		text, err := Canonical(sys)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadBytes(text)
		if err != nil {
			t.Fatalf("%s: canonical form does not reparse: %v", s.name, err)
		}
		if d := modelDiff("sys", reflect.ValueOf(sortTransitions(sys)), reflect.ValueOf(back)); d != "" {
			t.Errorf("%s: the model changes through Canonical→Read at %s", s.name, d)
		}
	}
}
