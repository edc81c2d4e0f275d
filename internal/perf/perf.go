// Package perf names the specifications the repository benchmark measures
// and fingerprints the environment it measures them in. ResolveSpecs
// expands the benchmark's spec names ("muls", "mulN", "smartphone") into
// systems; CurrentEnv records the Go toolchain, the CPU budget and the
// commit the measured tree was at, so a result can be told apart from one
// taken elsewhere. The measurements themselves live in benchmark/.
package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/model"
)

// Spec is one named specification to measure.
type Spec struct {
	Name string
	Sys  *model.System
}

// ResolveSpecs turns spec names into systems: "muls" expands to the whole
// mul1–mul12 suite, "mulN" to one generated benchmark and "smartphone" to
// the real-life example. Any other name is an error.
func ResolveSpecs(names []string) ([]Spec, error) {
	var out []Spec
	for _, name := range names {
		switch {
		case name == "muls":
			for i := 1; i <= bench.NumMuls; i++ {
				sys, err := bench.MulSystem(i)
				if err != nil {
					return nil, err
				}
				out = append(out, Spec{Name: fmt.Sprintf("mul%d", i), Sys: sys})
			}
		case name == "smartphone":
			sys, err := bench.SmartPhone()
			if err != nil {
				return nil, err
			}
			out = append(out, Spec{Name: name, Sys: sys})
		case len(name) > 3 && name[:3] == "mul" && name[3] >= '0' && name[3] <= '9':
			var i int
			if _, err := fmt.Sscanf(name, "mul%d", &i); err != nil {
				return nil, fmt.Errorf("perf: bad mul spec %q", name)
			}
			sys, err := bench.MulSystem(i)
			if err != nil {
				return nil, err
			}
			out = append(out, Spec{Name: name, Sys: sys})
		default:
			return nil, fmt.Errorf("perf: unknown spec %q (want muls, mulN or smartphone)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perf: no specs to measure")
	}
	return out, nil
}

// Env is the environment fingerprint of one measurement. Numbers are only
// comparable between measurements taken on like environments.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the VCS revision the measured tree was at ("unknown" when
	// not determinable).
	Commit string `json:"commit"`
	// Timestamp is the measurement time, RFC 3339 UTC.
	Timestamp string `json:"timestamp"`
}

// CurrentEnv fingerprints the running process. The commit is resolved from
// the git metadata under dir (see GitCommit); pass "" to search from the
// working directory.
func CurrentEnv(dir string) Env {
	commit, err := GitCommit(dir)
	if err != nil {
		commit = "unknown"
	}
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// GitCommit resolves the current commit hash (short, 12 hex digits) by
// reading the git metadata directly — no git binary required. It walks
// from dir (or the working directory when empty) upwards to the first
// .git entry. A .git directory is the repository itself; a .git file
// ("gitdir: <path>") is a linked worktree or a submodule, whose HEAD lives
// in that gitdir and whose refs live in the gitdir's commondir when it has
// one (a worktree) and in the gitdir itself otherwise (a submodule). HEAD
// is followed through one level of symbolic ref, falling back to
// packed-refs.
func GitCommit(dir string) (string, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		dotGit := filepath.Join(abs, ".git")
		if fi, err := os.Stat(dotGit); err == nil {
			if fi.IsDir() {
				return readGitHead(dotGit, dotGit)
			}
			return readLinkedHead(dotGit)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("perf: no .git above %s", dir)
		}
		abs = parent
	}
}

// readLinkedHead resolves HEAD through a .git file.
func readLinkedHead(dotGit string) (string, error) {
	data, err := os.ReadFile(dotGit)
	if err != nil {
		return "", err
	}
	gitDir, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "gitdir:")
	if !ok {
		return "", fmt.Errorf("perf: %s has no gitdir line", dotGit)
	}
	gitDir = relativeTo(filepath.Dir(dotGit), strings.TrimSpace(gitDir))
	refDir := gitDir
	if common, err := os.ReadFile(filepath.Join(gitDir, "commondir")); err == nil {
		refDir = relativeTo(gitDir, strings.TrimSpace(string(common)))
	}
	return readGitHead(gitDir, refDir)
}

// relativeTo resolves p against base unless it is absolute.
func relativeTo(base, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(base, p)
}

// readGitHead reads HEAD from gitDir and resolves a symbolic ref against
// refDir (loose ref first, then packed-refs).
func readGitHead(gitDir, refDir string) (string, error) {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "", err
	}
	ref := strings.TrimSpace(string(head))
	if hash, ok := strings.CutPrefix(ref, "ref: "); ok {
		ref = strings.TrimSpace(hash)
		if data, err := os.ReadFile(filepath.Join(refDir, filepath.FromSlash(ref))); err == nil {
			return shortHash(strings.TrimSpace(string(data)))
		}
		packed, err := os.ReadFile(filepath.Join(refDir, "packed-refs"))
		if err != nil {
			return "", fmt.Errorf("perf: unresolvable ref %s", ref)
		}
		for _, line := range strings.Split(string(packed), "\n") {
			hash, name, ok := strings.Cut(strings.TrimSpace(line), " ")
			if ok && name == ref {
				return shortHash(hash)
			}
		}
		return "", fmt.Errorf("perf: ref %s not in packed-refs", ref)
	}
	return shortHash(ref)
}

func shortHash(h string) (string, error) {
	if len(h) < 12 {
		return "", fmt.Errorf("perf: malformed commit hash %q", h)
	}
	for _, c := range h {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return "", fmt.Errorf("perf: malformed commit hash %q", h)
		}
	}
	return h[:12], nil
}
