// End-to-end test of the promise that one (spec, seed, options) has one
// certified answer, whichever entry point computes it: mmsynth, the
// mmbench harness and the mmserved job service, fresh, from its result
// cache and as a batch cell. Run with -short to skip.
package momosyn_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/ga"
	"momosyn/internal/gen"
	"momosyn/internal/model"
	"momosyn/internal/serve"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// answer is one entry point's result for a cell: the task mapping (mode →
// task → PE name), the Eq. (1) average power under the true probabilities,
// feasibility and whether the certifier accepted it. A nil mapping means
// the entry point reports none (the bench harness returns only the cell's
// power statistics).
type answer struct {
	mapping   map[string]map[string]string
	power     float64
	feasible  bool
	certified bool
}

// agreeCell is one (spec, options) point of the matrix; every cell runs
// under agreeSeed.
type agreeCell struct {
	spec, path   string // spec label and file
	text         string
	sys          *model.System
	dvs, neglect bool
	ga           ga.Config
	stall        int
}

func (c agreeCell) String() string {
	return fmt.Sprintf("%s dvs=%v neglect=%v stall=%d", c.spec, c.dvs, c.neglect, c.stall)
}

const agreeSeed = 3

// TestEntryPointsAgree runs the smart phone and one generated spec, with
// DVS off and on and the mode probabilities used and neglected, through
// four paths: mmsynth -certify -save (the saved mapping evaluated in
// process), bench.RunCell with one repetition, mmserved fresh and then as
// a cache hit, and a batch cell on a clean mmserved. Every path must give
// the same mapping, bit-identical power and a passing certificate. A
// stall-watchdog cell runs through mmsynth and mmserved only, since the
// bench harness has no stall option.
func TestEntryPointsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("entry-point agreement test skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"mmsynth", "mmserved"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	work := t.TempDir()

	generated, err := gen.Generate(gen.NewParams(5))
	if err != nil {
		t.Fatal(err)
	}
	var genText bytes.Buffer
	if err := specio.Write(&genText, generated); err != nil {
		t.Fatal(err)
	}
	genPath := filepath.Join(work, "gen5.spec")
	if err := os.WriteFile(genPath, genText.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	budget := ga.Config{PopSize: 8, MaxGenerations: 12, Stagnation: 12}
	var cells []agreeCell
	for _, sp := range []struct{ name, path string }{
		{"smartphone", filepath.Join("specs", "smartphone.spec")},
		{"gen5", genPath},
	} {
		text, err := os.ReadFile(sp.path)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := specio.ReadBytes(text)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for _, dvs := range []bool{false, true} {
			for _, neglect := range []bool{false, true} {
				cells = append(cells, agreeCell{spec: sp.name, path: sp.path, text: string(text), sys: sys,
					dvs: dvs, neglect: neglect, ga: budget})
			}
		}
	}
	// The watchdog cell stalls long before its stagnation limit, so it
	// restarts at least once.
	stalled := cells[0]
	stalled.ga = ga.Config{PopSize: 8, MaxGenerations: 40, Stagnation: 40}
	stalled.stall = 3

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, freshBase := startServed(t, bin, filepath.Join(work, "data"), "-cache-dir", filepath.Join(work, "cache"))
	fresh := servedClient(t, freshBase)
	_, batchBase := startServed(t, bin, filepath.Join(work, "batch-data"), "-cache-dir", filepath.Join(work, "batch-cache"))
	batch := servedClient(t, batchBase)

	served := make([][2]answer, len(cells)) // fresh, then cache hit
	runServed := func(c agreeCell) [2]answer {
		var out [2]answer
		for i, wantCached := range []bool{false, true} {
			sub, err := fresh.Submit(ctx, agreeRequest(c))
			if err != nil {
				t.Fatalf("%v: submit: %v", c, err)
			}
			if sub.Cached != wantCached {
				t.Fatalf("%v: submission %d cached=%v, want %v", c, i+1, sub.Cached, wantCached)
			}
			if _, err := fresh.WaitTerminal(ctx, sub.ID, 20*time.Millisecond); err != nil {
				t.Fatalf("%v: wait %s: %v", c, sub.ID, err)
			}
			doc, err := fresh.Result(ctx, sub.ID)
			if err != nil {
				t.Fatalf("%v: result %s: %v", c, sub.ID, err)
			}
			out[i] = servedAnswer(t, c, doc)
		}
		return out
	}
	for i, c := range cells {
		served[i] = runServed(c)
	}
	batched := runBatch(ctx, t, batch, cells)

	for i, c := range cells {
		want := runMmsynth(t, bin, work, c)
		if !want.certified {
			t.Errorf("%v: mmsynth certification failed", c)
		}
		cs, err := bench.RunCell(c.sys, c.dvs, c.neglect, bench.HarnessConfig{
			Reps: 1, BaseSeed: agreeSeed, GA: c.ga, Certify: true,
		})
		if err != nil {
			t.Fatalf("%v: bench.RunCell: %v", c, err)
		}
		// RunCell fails a cell whose repetition the certifier refuses, so a
		// cell that returns is certified.
		benched := answer{power: cs.Power, feasible: cs.FeasibleRuns == 1, certified: true}
		for _, got := range []struct {
			path string
			a    answer
		}{
			{"bench.RunCell", benched},
			{"mmserved fresh", served[i][0]},
			{"mmserved cache hit", served[i][1]},
			{"mmserved batch cell", batched[i]},
		} {
			agree(t, c, got.path, want, got.a)
		}
	}

	want := runMmsynth(t, bin, work, stalled)
	got := runServed(stalled)
	agree(t, stalled, "mmserved fresh", want, got[0])
	agree(t, stalled, "mmserved cache hit", want, got[1])
}

// agree fails t unless got matches mmsynth's answer: the same mapping
// (when the path reports one), bit-identical power, the same feasibility
// and a passing certificate.
func agree(t *testing.T, c agreeCell, path string, want, got answer) {
	t.Helper()
	if math.Float64bits(got.power) != math.Float64bits(want.power) {
		t.Errorf("%v: %s power %v (%#x), mmsynth %v (%#x)", c, path,
			got.power, math.Float64bits(got.power), want.power, math.Float64bits(want.power))
	}
	if got.mapping != nil && !reflect.DeepEqual(got.mapping, want.mapping) {
		t.Errorf("%v: %s mapping differs from mmsynth's:\n%v\n%v", c, path, got.mapping, want.mapping)
	}
	if got.feasible != want.feasible {
		t.Errorf("%v: %s feasible=%v, mmsynth %v", c, path, got.feasible, want.feasible)
	}
	if !got.certified {
		t.Errorf("%v: %s result is not certified", c, path)
	}
}

// runMmsynth synthesises the cell with mmsynth -certify -save and
// evaluates the saved mapping in process, so the power compared is exact
// rather than the report's rounded text.
func runMmsynth(t *testing.T, bin, work string, c agreeCell) answer {
	t.Helper()
	mapPath := filepath.Join(work, strings.NewReplacer(" ", "_", "=", "").Replace(c.String())+".map")
	args := []string{"-spec", c.path, "-seed", fmt.Sprint(agreeSeed), "-certify", "-save", mapPath,
		"-pop", fmt.Sprint(c.ga.PopSize), "-gens", fmt.Sprint(c.ga.MaxGenerations),
		"-stagnation", fmt.Sprint(c.ga.Stagnation), "-stall", fmt.Sprint(c.stall)}
	if c.dvs {
		args = append(args, "-dvs")
	}
	if c.neglect {
		args = append(args, "-neglect-probabilities")
	}
	// Exit 3 reports a completed but infeasible run, which is still a
	// certified answer; exit 4 is a refused certification.
	out, code := runExit(t, bin, "mmsynth", nil, args...)
	if code != 0 && code != 3 {
		t.Fatalf("%v: mmsynth exit %d:\n%s", c, code, out)
	}
	f, err := os.Open(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := specio.ReadMapping(f, c.sys)
	if err != nil {
		t.Fatalf("%v: saved mapping: %v", c, err)
	}
	ev, err := synth.NewEvaluator(c.sys, c.dvs).Evaluate(m)
	if err != nil {
		t.Fatalf("%v: evaluate saved mapping: %v", c, err)
	}
	a := answer{mapping: map[string]map[string]string{}, power: ev.AvgPower, feasible: ev.Feasible(),
		certified: strings.Contains(out, "\ncertification: certified")}
	for mi, mode := range c.sys.App.Modes {
		tasks := map[string]string{}
		for ti, task := range mode.Graph.Tasks {
			tasks[task.Name] = c.sys.Arch.PE(m[mi][ti]).Name
		}
		a.mapping[mode.Name] = tasks
	}
	return a
}

// agreeRequest is the cell as an mmserved request, with explicit GA values.
func agreeRequest(c agreeCell) serve.JobRequest {
	return serve.JobRequest{Spec: c.text, Seed: agreeSeed, DVS: c.dvs, NeglectProbabilities: c.neglect,
		GA: serve.GAParams(c.ga), StallWindow: c.stall}
}

// servedAnswer reads a result document of mmserved.
func servedAnswer(t *testing.T, c agreeCell, doc []byte) answer {
	t.Helper()
	var v serve.ResultView
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("%v: result document: %v", c, err)
	}
	if v.State != serve.StateDone || v.Partial {
		t.Fatalf("%v: job %s ended %s (partial %v)", c, v.ID, v.State, v.Partial)
	}
	if c.stall > 0 && v.Restarts == 0 {
		t.Errorf("%v: the stall watchdog never fired; the cell does not test it", c)
	}
	a := answer{mapping: map[string]map[string]string{}, power: float64(v.AvgPower), feasible: v.Feasible,
		certified: v.Certification != nil && v.Certification.Certified}
	for _, mv := range v.Mapping {
		a.mapping[mv.Mode] = mv.Tasks
	}
	return a
}

// runBatch submits every cell as one batch to a server that has computed
// none of them, and returns each cell's answer in cell order.
func runBatch(ctx context.Context, t *testing.T, c *serve.Client, cells []agreeCell) []answer {
	t.Helper()
	req := serve.BatchRequest{Seeds: []int64{agreeSeed}}
	specOf := map[string]int{}
	optionOf := map[serve.JobRequest]int{}
	cellAt := map[[2]int]int{} // (spec, option) index → cell
	for i, cell := range cells {
		si, ok := specOf[cell.text]
		if !ok {
			si = len(req.Specs)
			specOf[cell.text] = si
			req.Specs = append(req.Specs, serve.BatchSpecRef{Spec: cell.text})
		}
		opt := agreeRequest(cell)
		opt.Spec, opt.Seed = "", 0
		oi, ok := optionOf[opt]
		if !ok {
			oi = len(req.Options)
			optionOf[opt] = oi
			req.Options = append(req.Options, opt)
		}
		cellAt[[2]int{si, oi}] = i
	}
	if len(req.Specs)*len(req.Options) != len(cells) {
		t.Fatalf("%d cells do not fill a %d×%d batch matrix", len(cells), len(req.Specs), len(req.Options))
	}
	sub, err := c.SubmitBatch(ctx, req)
	if err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	if sub.CacheHits != 0 || sub.Duplicates != 0 || sub.Rejected != 0 || sub.Jobs != len(cells) {
		t.Fatalf("batch of %d cells: %d jobs, %d cache hits, %d duplicates, %d rejected; want every cell fresh",
			len(cells), sub.Jobs, sub.CacheHits, sub.Duplicates, sub.Rejected)
	}
	if _, err := c.WaitBatch(ctx, sub.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("wait batch: %v", err)
	}
	results, err := c.BatchResults(ctx, sub.ID)
	if err != nil {
		t.Fatalf("batch results: %v", err)
	}
	out := make([]answer, len(cells))
	for _, r := range results {
		i := cellAt[[2]int{r.Spec, r.Option}]
		if r.Cached {
			t.Fatalf("%v: batch cell %d was answered from the cache", cells[i], r.Cell)
		}
		out[i] = servedAnswer(t, cells[i], r.Result)
	}
	return out
}
