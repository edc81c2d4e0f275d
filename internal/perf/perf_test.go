package perf

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGitCommit(t *testing.T) {
	dir := t.TempDir()
	gitDir := filepath.Join(dir, ".git")
	sub := filepath.Join(dir, "internal", "perf")
	if err := os.MkdirAll(filepath.Join(gitDir, "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	hash := "0123456789abcdef0123456789abcdef01234567"

	// Loose ref, resolved from a subdirectory.
	os.WriteFile(filepath.Join(gitDir, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644)
	os.WriteFile(filepath.Join(gitDir, "refs", "heads", "main"), []byte(hash+"\n"), 0o644)
	got, err := GitCommit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if got != hash[:12] {
		t.Fatalf("loose ref: got %q, want %q", got, hash[:12])
	}

	// Packed ref.
	os.Remove(filepath.Join(gitDir, "refs", "heads", "main"))
	os.WriteFile(filepath.Join(gitDir, "packed-refs"),
		[]byte("# pack-refs with: peeled fully-peeled sorted\n"+hash+" refs/heads/main\n"), 0o644)
	got, err = GitCommit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != hash[:12] {
		t.Fatalf("packed ref: got %q, want %q", got, hash[:12])
	}

	// Linked worktree nested inside the checkout: its .git is a file
	// pointing at .git/worktrees/wt, whose HEAD names a branch that lives
	// in the common dir. The worktree's own commit wins over the
	// enclosing checkout's.
	other := "fedcba9876543210fedcba9876543210fedcba98"
	wtGit := filepath.Join(gitDir, "worktrees", "wt")
	wt := filepath.Join(dir, "wt")
	for _, d := range []string{wtGit, filepath.Join(wt, "cmd")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(wt, ".git"), []byte("gitdir: "+wtGit+"\n"), 0o644)
	os.WriteFile(filepath.Join(wtGit, "HEAD"), []byte("ref: refs/heads/side\n"), 0o644)
	os.WriteFile(filepath.Join(wtGit, "commondir"), []byte("../..\n"), 0o644)
	os.WriteFile(filepath.Join(gitDir, "refs", "heads", "side"), []byte(other+"\n"), 0o644)
	if got, err = GitCommit(filepath.Join(wt, "cmd")); err != nil || got != other[:12] {
		t.Fatalf("worktree: got %q, %v; want %q", got, err, other[:12])
	}
	// Detached worktree HEAD.
	os.WriteFile(filepath.Join(wtGit, "HEAD"), []byte(other+"\n"), 0o644)
	if got, err = GitCommit(wt); err != nil || got != other[:12] {
		t.Fatalf("detached worktree: got %q, %v; want %q", got, err, other[:12])
	}

	// Submodule: a relative gitdir without a commondir keeps its own refs.
	modGit := filepath.Join(gitDir, "modules", "lib")
	mod := filepath.Join(dir, "lib")
	for _, d := range []string{filepath.Join(modGit, "refs", "heads"), mod} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(mod, ".git"), []byte("gitdir: ../.git/modules/lib\n"), 0o644)
	os.WriteFile(filepath.Join(modGit, "HEAD"), []byte("ref: refs/heads/main\n"), 0o644)
	os.WriteFile(filepath.Join(modGit, "refs", "heads", "main"), []byte(other+"\n"), 0o644)
	if got, err = GitCommit(mod); err != nil || got != other[:12] {
		t.Fatalf("submodule: got %q, %v; want %q", got, err, other[:12])
	}

	// A .git file without a gitdir line.
	os.WriteFile(filepath.Join(mod, ".git"), []byte("nonsense\n"), 0o644)
	if _, err := GitCommit(mod); err == nil {
		t.Fatal("gitdir-less .git file accepted")
	}

	// Detached HEAD.
	os.WriteFile(filepath.Join(gitDir, "HEAD"), []byte(hash+"\n"), 0o644)
	got, err = GitCommit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != hash[:12] {
		t.Fatalf("detached: got %q, want %q", got, hash[:12])
	}

	// Malformed hash.
	os.WriteFile(filepath.Join(gitDir, "HEAD"), []byte("not-a-hash\n"), 0o644)
	if _, err := GitCommit(dir); err == nil {
		t.Fatal("malformed HEAD accepted")
	}
}

func TestResolveSpecs(t *testing.T) {
	specs, err := ResolveSpecs([]string{"mul3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "mul3" || specs[0].Sys == nil {
		t.Fatalf("ResolveSpecs(mul3) = %+v", specs)
	}
	specs, err = ResolveSpecs([]string{"muls"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 12 {
		t.Fatalf("muls expanded to %d specs, want 12", len(specs))
	}
	specs, err = ResolveSpecs([]string{"smartphone"})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "smartphone" || specs[0].Sys == nil {
		t.Fatalf("ResolveSpecs(smartphone) = %+v", specs)
	}
	for _, bad := range []string{"../../specs/mul1.spec", "mul13", "sdr"} {
		if _, err := ResolveSpecs([]string{bad}); err == nil {
			t.Fatalf("unknown spec %q accepted", bad)
		}
	}
	if _, err := ResolveSpecs(nil); err == nil {
		t.Fatal("empty spec list accepted")
	}
}
