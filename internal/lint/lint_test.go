package lint

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts one expectation from a fixture comment: // want "regex".
var wantRe = regexp.MustCompile(`//\s*want "([^"]+)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/src/<name>, applies the analyzer with its
// package gate lifted (fixture paths are outside the gated trees; the gates
// themselves are covered by TestPackageGates) and checks the diagnostics
// one-to-one against the fixture's // want comments. Suppression runs as in
// production, so //mmlint:ignore cases are asserted by the absence of a
// want comment.
func runFixture(t *testing.T, a *Analyzer) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+a.Name)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	ungated := *a
	ungated.Packages = nil
	diags, err := Run(pkgs, []*Analyzer{&ungated})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pkgs)
	if err := checkFixtureHasExpectations(wants); err != nil {
		t.Fatalf("fixture %s: %v", a.Name, err)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// collectWants gathers the // want expectations of the loaded fixture.
func collectWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", name, i+1, m[1], err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// checkFixtureHasExpectations rejects fixtures with zero // want comments:
// a dead fixture asserts nothing and silently stops guarding its analyzer.
func checkFixtureHasExpectations(wants []*expectation) error {
	if len(wants) == 0 {
		return fmt.Errorf("fixture contains no // want expectations; a zero-expectation fixture asserts nothing")
	}
	return nil
}

func TestDetrandFixture(t *testing.T)     { runFixture(t, Detrand) }
func TestCtxflowFixture(t *testing.T)     { runFixture(t, Ctxflow) }
func TestFloateqFixture(t *testing.T)     { runFixture(t, Floateq) }
func TestGuardgoFixture(t *testing.T)     { runFixture(t, Guardgo) }
func TestExhaustenumFixture(t *testing.T) { runFixture(t, Exhaustenum) }
func TestHotallocFixture(t *testing.T)    { runFixture(t, Hotalloc) }
func TestLocksafeFixture(t *testing.T)    { runFixture(t, Locksafe) }
func TestFsyncdiscFixture(t *testing.T)   { runFixture(t, Fsyncdisc) }

// TestZeroExpectationFixtureFails pins the dead-fixture guard: a fixture
// directory without a single // want comment must be rejected by the
// driver, not silently pass.
func TestZeroExpectationFixtureFails(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/deadfixture")
	if err != nil {
		t.Fatalf("loading deadfixture: %v", err)
	}
	wants := collectWants(t, pkgs)
	if len(wants) != 0 {
		t.Fatalf("deadfixture must stay expectation-free, found %d wants", len(wants))
	}
	if err := checkFixtureHasExpectations(wants); err == nil {
		t.Fatal("a zero-expectation fixture must fail the suite")
	}
}

// TestPackageGates pins which package trees each analyzer applies to.
func TestPackageGates(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{Detrand, "momosyn/internal/synth", true},
		{Detrand, "momosyn/internal/ga", true},
		{Detrand, "momosyn/internal/sched", true},
		{Detrand, "momosyn/internal/gen", true},
		{Detrand, "momosyn/internal/specio", false},
		{Detrand, "momosyn/internal/gantt", false},
		{Ctxflow, "momosyn/internal/ga", true},
		{Ctxflow, "momosyn/internal/synth", true},
		{Ctxflow, "momosyn/internal/obs", true},
		{Ctxflow, "momosyn/internal/serve", true},
		{Ctxflow, "momosyn/internal/fleet", true},
		{Ctxflow, "momosyn/internal/durable", true},
		{Ctxflow, "momosyn/internal/durable/chaosfs", true},
		{Ctxflow, "momosyn/internal/gantt", false}, // "ga" must not match a prefix
		{Ctxflow, "momosyn/internal/bench", false},
		{Floateq, "momosyn/internal/energy", true},
		{Floateq, "momosyn/internal/verify", true},
		{Floateq, "momosyn/internal/model", true},
		{Floateq, "momosyn/internal/specio", false},
		{Floateq, "momosyn/internal/lint/testdata/src/floateq", false},
		{Guardgo, "momosyn/internal/bench", true},
		{Guardgo, "momosyn/internal/obs", true},
		{Guardgo, "momosyn/internal/serve", true},
		{Guardgo, "momosyn/internal/fleet", true},
		{Guardgo, "momosyn/internal/durable/chaosfs", true},
		{Guardgo, "momosyn/internal/runctl", false},
		{Guardgo, "momosyn/cmd/mmsynth", false},
		{Guardgo, "momosyn/cmd/mmserved", false},
		{Locksafe, "momosyn/internal/serve", true},
		{Locksafe, "momosyn/internal/fleet", true},
		{Locksafe, "momosyn/internal/durable", true},
		{Locksafe, "momosyn/internal/durable/chaosfs", true},
		{Locksafe, "momosyn/internal/sched", false},
		{Locksafe, "momosyn/internal/lint/testdata/src/locksafe", false},
	}
	for _, c := range cases {
		if got := c.a.Packages.MatchString(c.path); got != c.want {
			t.Errorf("%s gate on %q = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
	if Exhaustenum.Packages != nil {
		t.Error("exhaustenum should apply module-wide (nil gate)")
	}
	if Hotalloc.Packages != nil {
		t.Error("hotalloc should apply module-wide (nil gate): annotations gate it")
	}
	if Fsyncdisc.Packages != nil {
		t.Error("fsyncdisc should apply module-wide (nil gate): renames and links gate it")
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("floateq, detrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != Floateq || got[1] != Detrand {
		t.Fatalf("ByName returned %v", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("expected error for unknown analyzer")
	}
	if _, err := ByName(""); err == nil {
		t.Fatal("expected error for empty selection")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "floateq", Message: "msg"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "f.go", 3, 7
	if got, want := d.String(), "f.go:3:7: [floateq] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 8 {
		t.Fatalf("expected 8 analyzers, found %d", len(seen))
	}
}

// TestRepoIsClean runs the full suite over the repository itself: the tree
// must stay lint-clean, so any new finding fails the build here as well as
// in make lint.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load in short mode")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or add a reviewed //mmlint:ignore directive (see docs/LINT.md)")
	}
}

// TestLoadErrors pins the loader's failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./no/such/dir"); err == nil {
		t.Fatal("expected error for unmatched pattern")
	}
}
