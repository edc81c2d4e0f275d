// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It runs one named workload for a fixed time, checks every
// output it produces, and prints one JSON result line:
//
//	benchmark --workload engine-nodvs --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation attached. With --trace 1 the same workload runs once
// untraced and once traced, and the result carries the per-layer metrics
// taken from spans recorded around the public calls into each layer. See
// README.md for the workloads, the metrics and the map between them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"momosyn/internal/perf"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and the ones that failed. Every correctness
// check is an operation: a failed check counts in failed like a refused
// or failed request does.
type tally struct {
	attempted, failed int
	// problems keeps the first few failure descriptions for the report.
	problems []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and returns its outcome.
func (t *tally) check(good bool, format string, args ...any) bool {
	if good {
		t.ok()
	} else {
		t.fail(format, args...)
	}
	return good
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	for _, p := range u.problems {
		if len(t.problems) < 20 {
			t.problems = append(t.problems, p)
		}
	}
}

// failFrac is failed ÷ attempted.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workDir holds the workload's scratch files (serve data and cache
	// directories, checkpoints); spanDir receives the span file of a
	// traced run.
	workDir string
	spanDir string
	// report receives the human-readable summary.
	report io.Writer
}

// workloads maps each workload name to its runner. A runner returns the
// metrics of its mode (end-to-end untraced, per-layer traced) and the
// operation tally.
var workloads = map[string]func(runConfig) (map[string]metric, tally, error){
	"engine-nodvs": func(c runConfig) (map[string]metric, tally, error) { return runEngine(c, engineNoDVS) },
	"engine-dvs":   func(c runConfig) (map[string]metric, tally, error) { return runEngine(c, engineDVS) },
	"serve-mix":    runServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/out", "directory for scratch files and span output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workDir: workDir, spanDir: *out, report: stderr,
	}
	env, err := json.Marshal(perf.CurrentEnv("."))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "benchmark: workload %s seed %d seconds %d trace %d; env %s\n", *workload, *seed, *seconds, *trace, env)
	metrics, t, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail("metric %s is not finite", name)
			delete(metrics, name)
		}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	if res.Attempted == 0 {
		fmt.Fprintln(stderr, "benchmark: no operation was attempted")
		return 1
	}
	for _, p := range t.problems {
		fmt.Fprintf(stderr, "benchmark: FAILED: %s\n", p)
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
