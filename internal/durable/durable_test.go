package durable_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
)

// onlyFile fails unless dir holds exactly one file, named name, with the
// given content: a successful publish leaves no temp behind.
func onlyFile(t *testing.T, dir, name, content string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("%s holds %v, want only %s", dir, entries, name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil || string(data) != content {
		t.Fatalf("%s = %q, %v; want %q", name, data, err, content)
	}
}

func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"old", "new"} {
		if err := durable.WriteAtomic(durable.OS{}, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	onlyFile(t, dir, "state.json", "new")
}

// TestLinkPublishKeepsFirst: a second publish under the same name loses
// the link race silently and leaves the first content in place.
func TestLinkPublishKeepsFirst(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	for _, content := range []string{"first", "second"} {
		if err := durable.LinkPublish(durable.OS{}, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	onlyFile(t, dir, "entry.json", "first")
}

// TestCreateExclusiveOneWinner: a second create of the same path fails
// with fs.ErrExist and leaves the first content, and no temp, in place.
func TestCreateExclusiveOneWinner(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lease")
	if err := (durable.OS{}).CreateExclusive(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := (durable.OS{}).CreateExclusive(path, []byte("second")); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("second CreateExclusive = %v, want fs.ErrExist", err)
	}
	onlyFile(t, dir, "lease", "first")
}

// TestMkdirSyncsEachCreatedParent creates two missing levels: each new
// directory's parent is fsynced after its mkdir, and a second call on the
// existing tree syncs nothing.
func TestMkdirSyncsEachCreatedParent(t *testing.T) {
	root := t.TempDir()
	cfs := chaosfs.New(durable.OS{})
	leaf := filepath.Join(root, "a", "b")
	if err := durable.Mkdir(cfs, leaf); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(leaf); err != nil || !info.IsDir() {
		t.Fatalf("%s not created: %v", leaf, err)
	}
	at := func(p string) *regexp.Regexp { return regexp.MustCompile(regexp.QuoteMeta(p) + "$") }
	a := filepath.Join(root, "a")
	if err := cfs.InOrder(
		chaosfs.Step{Op: chaosfs.OpMkdir, Path: at(a)},
		chaosfs.Step{Op: chaosfs.OpSyncDir, Path: at(root)},
		chaosfs.Step{Op: chaosfs.OpMkdir, Path: at(leaf)},
		chaosfs.Step{Op: chaosfs.OpSyncDir, Path: at(a)},
	); err != nil {
		t.Fatal(err)
	}

	cfs.Reset()
	if err := durable.Mkdir(cfs, leaf); err != nil {
		t.Fatal(err)
	}
	if n := cfs.Ops(chaosfs.OpSyncDir, nil); n != 0 {
		t.Fatalf("Mkdir of an existing directory ran %d directory syncs, want 0", n)
	}
}

// TestInOrderRejectsMissingStep: a write whose directory is fsynced only
// before it, never after, fails the order check.
func TestInOrderRejectsMissingStep(t *testing.T) {
	dir := t.TempDir()
	cfs := chaosfs.New(durable.OS{})
	if err := cfs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := cfs.WriteFile(filepath.Join(dir, "f"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := cfs.InOrder(
		chaosfs.Step{Op: chaosfs.OpWrite},
		chaosfs.Step{Op: chaosfs.OpSyncDir},
	); err == nil {
		t.Fatal("InOrder accepted a directory sync that precedes the write")
	}
	if err := cfs.InOrder(chaosfs.Step{Op: chaosfs.OpLink}); err == nil {
		t.Fatal("InOrder accepted a step with no record")
	}
}
