// End-to-end tests of the command-line tools: build the binaries once and
// drive the full flow — generate a spec, synthesise it, save the mapping,
// replay it through the simulator, and render charts — asserting on the
// observable outputs. Run with -short to skip.
package momosyn_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTools compiles every cmd/ binary into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"mmgen", "mmsynth", "mmbench", "mmsim", "mmlint", "mmtrace", "mmserved"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func run(t *testing.T, dir, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join(work, "inst.spec")
	mapping := filepath.Join(work, "inst.map")
	trace := filepath.Join(work, "inst.trace")

	// Generate a spec file.
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)
	if fi, err := os.Stat(spec); err != nil || fi.Size() == 0 {
		t.Fatalf("spec not written: %v", err)
	}

	// Statistics view parses and reports the same instance.
	stats := run(t, bin, "mmgen", "-seed", "5", "-stats")
	if !strings.Contains(stats, "system gen5") {
		t.Errorf("stats output malformed:\n%s", stats)
	}

	// DOT view.
	dot := run(t, bin, "mmgen", "-seed", "5", "-dot")
	if !strings.HasPrefix(dot, "digraph") {
		t.Errorf("dot output malformed: %.60s", dot)
	}

	// Synthesise with a reduced GA; save the mapping and SVG charts.
	out := run(t, bin, "mmsynth", "-spec", spec, "-dvs",
		"-pop", "16", "-gens", "40", "-stagnation", "15",
		"-save", mapping, "-svg", filepath.Join(work, "chart"))
	if !strings.Contains(out, "feasible    : true") {
		t.Fatalf("synthesis not feasible:\n%s", out)
	}
	if fi, err := os.Stat(mapping); err != nil || fi.Size() == 0 {
		t.Fatalf("mapping not saved: %v", err)
	}
	svgs, _ := filepath.Glob(filepath.Join(work, "chart-*.svg"))
	if len(svgs) == 0 {
		t.Error("no SVG charts written")
	}

	// Re-evaluate the saved mapping: identical power, no GA run.
	out2 := run(t, bin, "mmsynth", "-spec", spec, "-dvs", "-mapping", mapping)
	p1 := extractLine(out, "average power")
	p2 := extractLine(out2, "average power")
	if p1 == "" || p1 != p2 {
		t.Errorf("saved mapping power %q != synthesis power %q", p2, p1)
	}

	// Simulate the saved mapping over a recorded trace; replaying the
	// trace must reproduce the measured power exactly.
	simOut := run(t, bin, "mmsim", "-spec", spec, "-dvs", "-mapping", mapping,
		"-horizon", "60", "-save-trace", trace)
	if !strings.Contains(simOut, "simulated average power") {
		t.Fatalf("simulation output malformed:\n%s", simOut)
	}
	replay := run(t, bin, "mmsim", "-spec", spec, "-dvs", "-mapping", mapping,
		"-trace", trace)
	s1 := extractLine(simOut, "simulated average power")
	s2 := extractLine(replay, "simulated average power")
	if s1 == "" || s1 != s2 {
		t.Errorf("trace replay power %q != original %q", s2, s1)
	}

	// The figures reproduce the paper's exact numbers.
	figs := run(t, bin, "mmbench", "-figures")
	if !strings.Contains(figs, "26.7158") || !strings.Contains(figs, "15.7423") {
		t.Errorf("figure reproduction missing the paper's numbers:\n%s", figs)
	}
}

// TestCLICheckpointSameAnswer pins one answer per (spec, seed, options) at
// the CLI: checkpointing is crash-recovery plumbing, so mmsynth must print
// the same power and save the same mapping with and without -checkpoint.
func TestCLICheckpointSameAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, "mmsynth"), "./cmd/mmsynth").CombinedOutput(); err != nil {
		t.Fatalf("build mmsynth: %v\n%s", err, out)
	}
	work := t.TempDir()
	args := []string{"-spec", filepath.Join("specs", "mul1.spec"), "-seed", "1", "-gens", "40"}
	plainMap := filepath.Join(work, "plain.map")
	ckptMap := filepath.Join(work, "ckpt.map")
	plain := run(t, bin, "mmsynth", append(args, "-save", plainMap)...)
	ckpt := run(t, bin, "mmsynth", append(args, "-save", ckptMap, "-checkpoint", filepath.Join(work, "run.ckpt"))...)
	p1, p2 := extractLine(plain, "average power"), extractLine(ckpt, "average power")
	if p1 == "" || p1 != p2 {
		t.Errorf("checkpointed run power %q != plain run power %q", p2, p1)
	}
	m1, err1 := os.ReadFile(plainMap)
	m2, err2 := os.ReadFile(ckptMap)
	if err1 != nil || err2 != nil || len(m1) == 0 || !bytes.Equal(m1, m2) {
		t.Errorf("checkpointed run mapping differs from the plain run's (%v, %v):\n%s\n---\n%s", err1, err2, m1, m2)
	}
}

// TestCLIGracefulInterrupt drives the run-control path end to end: a long
// synthesis is interrupted with SIGINT, must exit 0 with a best-so-far
// report and a checkpoint on disk, and the checkpoint must then accept a
// -resume run (which is interrupted the same way).
func TestCLIGracefulInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join(work, "inst.spec")
	ckpt := filepath.Join(work, "run.ckpt")
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)

	// The run is sized to last minutes if nothing stops it; the test
	// interrupts it as soon as the first checkpoint hits the disk.
	longArgs := []string{"-spec", spec, "-dvs", "-pop", "32",
		"-gens", "1000000", "-stagnation", "1000000",
		"-checkpoint", ckpt, "-checkpoint-every", "1"}

	out := interrupt(t, filepath.Join(bin, "mmsynth"), longArgs, func() bool {
		_, err := os.Stat(ckpt)
		return err == nil
	})
	if !strings.Contains(out, "status      : partial") {
		t.Errorf("interrupted run did not report partial status:\n%s", out)
	}
	if extractLine(out, "average power") == "" {
		t.Errorf("interrupted run did not report the best-so-far power:\n%s", out)
	}

	// Resume from the interrupted run's closing checkpoint. Progress shows
	// as the checkpoint file being rewritten; then interrupt again.
	before, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumeArgs := append(append([]string(nil), longArgs...), "-resume")
	out = interrupt(t, filepath.Join(bin, "mmsynth"), resumeArgs, func() bool {
		fi, err := os.Stat(ckpt)
		return err == nil && fi.ModTime().After(before.ModTime())
	})
	if !strings.Contains(out, "status      : partial") || extractLine(out, "average power") == "" {
		t.Errorf("resumed run did not continue to a best-so-far report:\n%s", out)
	}
}

// interrupt starts the binary, waits for ready() to report observable
// progress, sends SIGINT and asserts a clean exit 0, returning the combined
// output.
func interrupt(t *testing.T, bin string, args []string, ready func() bool) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for !ready() {
		if ctx.Err() != nil {
			cmd.Process.Kill()
			t.Fatalf("no observable progress before timeout:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("interrupted run must exit 0, got %v:\n%s", err, buf.String())
	}
	return buf.String()
}

// TestCLIUsageErrorsExit2 asserts the exit-code discipline: usage mistakes
// are distinguishable (exit 2) from runtime failures (exit 1).
func TestCLIUsageErrorsExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)
	cases := [][]string{
		{"-resume"},                           // -resume without -checkpoint
		{"-checkpoint-every", "0"},            // non-positive interval
		{"-mapping", "x", "-checkpoint", "y"}, // incompatible modes
		{"unexpected", "positional"},
	}
	for _, args := range cases {
		cmd := exec.Command(filepath.Join(bin, "mmsynth"), args...)
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("mmsynth %v: err = %v, want exit code 2", args, err)
		}
	}

	// A runtime failure (unreadable spec) is exit 1, not 2.
	cmd := exec.Command(filepath.Join(bin, "mmsynth"), "-spec", "/no/such/file.spec")
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("missing spec: err = %v, want exit code 1", err)
	}
}

// runExit runs the tool and returns its combined output and exit code;
// extra environment entries (KEY=VALUE) are appended to the inherited one.
func runExit(t *testing.T, dir, tool string, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, tool), args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestCLICertifyExitCodes pins the full exit-code contract around the
// certifier: clean -certify runs exit 0, injected faults exit 4, honest
// infeasibility stays 3 (with or without -certify), corrupted inputs stay
// 1, and usage errors stay 2.
func TestCLICertifyExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join(work, "inst.spec")
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)
	gaArgs := []string{"-pop", "16", "-gens", "40", "-stagnation", "15"}

	// Clean certify run: exit 0 and a visible certification line.
	args := append([]string{"-spec", spec, "-dvs", "-certify"}, gaArgs...)
	out, code := runExit(t, bin, "mmsynth", nil, args...)
	if code != 0 || !strings.Contains(out, "certification: certified") {
		t.Fatalf("clean -certify run: exit %d, output:\n%s", code, out)
	}

	// Each injected fault class must be caught and exit 4.
	for _, class := range []string{"energy", "precedence", "area"} {
		out, code := runExit(t, bin, "mmsynth", []string{"MMSYNTH_FAULT_INJECT=" + class}, args...)
		if code != 4 {
			t.Errorf("fault %q: exit %d, want 4\n%s", class, code, out)
		}
		if !strings.Contains(out, "["+class+"]") {
			t.Errorf("fault %q: violation kind not reported:\n%s", class, out)
		}
	}
	// An unknown class is a runtime failure, not a silent pass.
	if _, code := runExit(t, bin, "mmsynth", []string{"MMSYNTH_FAULT_INJECT=bogus"}, args...); code != 1 {
		t.Errorf("unknown fault class: exit %d, want 1", code)
	}

	// Honest infeasibility: a deadline shorter than the only execution
	// time exits 3, and -certify agrees with the infeasibility claim.
	tight := filepath.Join(work, "tight.spec")
	tightSpec := "system tight\npe cpu class=gpp static=1mW\ncl bus bw=1MB/s pes=cpu\n" +
		"type t\nimpl t cpu time=10ms power=1mW\nmode m prob=1 period=20ms\ntask m a type=t deadline=1ms\n"
	if err := os.WriteFile(tight, []byte(tightSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runExit(t, bin, "mmsynth", nil, "-spec", tight, "-pop", "8", "-gens", "5", "-stagnation", "3"); code != 3 {
		t.Errorf("infeasible run: exit %d, want 3", code)
	}
	out, code = runExit(t, bin, "mmsynth", nil, "-spec", tight, "-certify", "-pop", "8", "-gens", "5", "-stagnation", "3")
	if code != 3 {
		t.Errorf("infeasible -certify run: exit %d, want 3 (honest infeasibility certifies)\n%s", code, out)
	}

	// Corrupted inputs are runtime failures (exit 1) with a diagnostic.
	garbage := filepath.Join(work, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("MMSYN-CKPT\x01not a gob payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runExit(t, bin, "mmsynth", nil,
		"-spec", spec, "-checkpoint", garbage, "-resume", "-pop", "8", "-gens", "5")
	if code != 1 || !strings.Contains(out, garbage) {
		t.Errorf("corrupt checkpoint: exit %d (want 1), path named: %v\n%s",
			code, strings.Contains(out, garbage), out)
	}
	binary := filepath.Join(work, "binary.spec")
	if err := os.WriteFile(binary, []byte{0x7f, 'E', 'L', 'F', 0, 1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runExit(t, bin, "mmsynth", nil, "-spec", binary); code != 1 {
		t.Errorf("binary spec: exit %d, want 1", code)
	}

	// Usage errors remain exit 2 with -certify in the mix.
	if _, code := runExit(t, bin, "mmsynth", nil, "-certify", "-resume"); code != 2 {
		t.Errorf("usage error with -certify: exit %d, want 2", code)
	}

	// mmsim certifies the same implementation before simulating.
	out, code = runExit(t, bin, "mmsim", nil, "-spec", spec, "-dvs", "-certify",
		"-pop", "16", "-gens", "40", "-horizon", "30")
	if code != 0 || !strings.Contains(out, "certification") {
		t.Errorf("mmsim -certify: exit %d, output:\n%s", code, out)
	}
}

// TestCLILintExitCodes pins mmlint's exit-code contract: 0 on a clean
// tree, 1 when findings are reported, 2 on usage or load errors.
func TestCLILintExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)

	// The repository itself must stay clean.
	if out, code := runExit(t, bin, "mmlint", nil, "./..."); code != 0 {
		t.Errorf("mmlint ./...: exit %d, want 0; output:\n%s", code, out)
	}

	// The exhaustenum fixture carries a deliberate finding (its package sits
	// under testdata, so ./... above does not see it).
	out, code := runExit(t, bin, "mmlint", nil, "./internal/lint/testdata/src/exhaustenum")
	if code != 1 {
		t.Errorf("mmlint on fixture: exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "[exhaustenum]") || !strings.Contains(out, "not exhaustive") {
		t.Errorf("fixture finding not reported:\n%s", out)
	}

	// Restricting to an analyzer that has nothing to say there is clean.
	if out, code := runExit(t, bin, "mmlint", nil, "-only", "floateq", "./internal/lint/testdata/src/exhaustenum"); code != 0 {
		t.Errorf("mmlint -only floateq on fixture: exit %d, want 0; output:\n%s", code, out)
	}

	// Usage errors: unknown analyzer, unknown flag, unloadable pattern.
	if out, code := runExit(t, bin, "mmlint", nil, "-only", "nosuch", "./..."); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2; output:\n%s", code, out)
	}
	if out, code := runExit(t, bin, "mmlint", nil, "-bogus"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2; output:\n%s", code, out)
	}
	if out, code := runExit(t, bin, "mmlint", nil, "./no/such/tree"); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2; output:\n%s", code, out)
	}

	// -list names every analyzer and exits 0.
	out, code = runExit(t, bin, "mmlint", nil, "-list")
	if code != 0 {
		t.Errorf("mmlint -list: exit %d, want 0", code)
	}
	for _, name := range []string{"detrand", "ctxflow", "floateq", "guardgo", "exhaustenum"} {
		if !strings.Contains(out, name) {
			t.Errorf("mmlint -list missing %q:\n%s", name, out)
		}
	}
}

// TestCLIObservability drives the telemetry flow end to end: a traced
// mmsynth run must emit a schema-valid JSONL event stream and metrics
// snapshot (proven by mmtrace), report the instrumentation-only detail
// lines, and print the same synthesis result as an untraced run.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join(work, "inst.spec")
	traceFile := filepath.Join(work, "run.jsonl")
	metricsFile := filepath.Join(work, "metrics.json")
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)

	gaArgs := []string{"-spec", spec, "-dvs", "-pop", "16", "-gens", "30", "-stagnation", "12"}
	plain := run(t, bin, "mmsynth", gaArgs...)
	traced := run(t, bin, "mmsynth",
		append([]string{"-trace", traceFile, "-metrics", metricsFile}, gaArgs...)...)

	// Identical synthesis, visible instrumentation detail.
	if p1, p2 := extractLine(plain, "average power"), extractLine(traced, "average power"); p1 != p2 {
		t.Errorf("tracing changed the synthesis: %q vs %q", p1, p2)
	}
	if extractLine(traced, "mutations") == "" || extractLine(traced, "phase times") == "" {
		t.Errorf("traced run missing instrumentation report lines:\n%s", traced)
	}
	if extractLine(plain, "mutations") != "" || extractLine(plain, "phase times") != "" {
		t.Errorf("untraced run printed instrumentation-only lines:\n%s", plain)
	}

	// mmtrace certifies both artefacts schema-valid (exit 0).
	out, code := runExit(t, bin, "mmtrace", nil, "-summary", "-metrics", metricsFile, traceFile)
	if code != 0 {
		t.Fatalf("mmtrace: exit %d\n%s", code, out)
	}
	for _, want := range []string{"schema-valid", "metrics snapshot valid", "mutation shutdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("mmtrace output missing %q:\n%s", want, out)
		}
	}

	// Invalid input exits 1, usage mistakes exit 2.
	bogus := filepath.Join(work, "bogus.jsonl")
	if err := os.WriteFile(bogus, []byte(`{"ev":"generation","t":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runExit(t, bin, "mmtrace", nil, bogus); code != 1 {
		t.Errorf("invalid trace: exit %d, want 1\n%s", code, out)
	}
	if out, code := runExit(t, bin, "mmtrace", nil); code != 2 {
		t.Errorf("no arguments: exit %d, want 2\n%s", code, out)
	}

	// mmbench: -progress heartbeat on stderr, bench_row events in the trace.
	benchTrace := filepath.Join(work, "bench.jsonl")
	benchOut := run(t, bin, "mmbench", "-table", "3", "-reps", "1",
		"-pop", "12", "-gens", "10", "-progress", "-trace", benchTrace)
	if !strings.Contains(benchOut, "progress: smartphone") {
		t.Errorf("no -progress heartbeat:\n%s", benchOut)
	}
	out, code = runExit(t, bin, "mmtrace", nil, "-summary", benchTrace)
	if code != 0 || !strings.Contains(out, "bench_row") {
		t.Errorf("bench trace invalid or missing bench_row events (exit %d):\n%s", code, out)
	}

	// mmsim keeps -trace for usage replay; the run-trace flag is -run-trace.
	simTrace := filepath.Join(work, "sim.jsonl")
	run(t, bin, "mmsim", "-spec", spec, "-dvs", "-pop", "12", "-gens", "15",
		"-horizon", "30", "-run-trace", simTrace)
	if out, code := runExit(t, bin, "mmtrace", nil, simTrace); code != 0 {
		t.Errorf("mmsim run-trace invalid: exit %d\n%s", code, out)
	}
}

// extractLine returns the trimmed remainder of the first line containing
// the prefix.
func extractLine(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, prefix) {
			return strings.TrimSpace(line)
		}
	}
	return ""
}
