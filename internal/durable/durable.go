// Package durable is the one place that makes a write survive a crash or a
// power loss. Every persistent file the project writes — checkpoints, job
// manifests and results, batch records, fleet specs, leases, heartbeats
// and cancel markers, and result-cache entries — goes through WriteAtomic,
// LinkPublish or FS.CreateExclusive here, and every directory that must
// outlive a power loss is created with Mkdir.
//
// All of them run on an FS, so tests can thread chaosfs (the
// fault-injecting FS in the chaosfs subpackage) under any persistence path
// and assert both recovery and the order of the durability steps.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// FS is the filesystem surface every persistence path runs on. OS is the
// production implementation; tests wrap it in chaosfs.FS to inject torn
// writes, short writes, ENOSPC, EIO, rename and link failures and crash
// points.
type FS interface {
	// Mkdir creates one directory, failing with an fs.ErrExist-wrapped
	// error if it already exists; it is the atomic-exclusive primitive
	// behind fleet-wide job-ID allocation. Callers wanting a durable new
	// directory use the package function Mkdir.
	Mkdir(path string) error
	// ReadFile returns the file's contents.
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the names of the directory's entries.
	ReadDir(path string) ([]string, error)
	// WriteFile writes data to a (possibly new) file and syncs it. It is
	// NOT atomic: callers wanting crash-atomicity use WriteAtomic.
	WriteFile(path string, data []byte) error
	// CreateExclusive publishes a new file holding data: readers see no
	// file or all of data, never a partly written file, and the file and
	// its directory entry are durable on return. It fails with an
	// fs.ErrExist-wrapped error when the path already exists; exactly one
	// concurrent caller can win.
	CreateExclusive(path string, data []byte) error
	// Rename atomically moves oldPath over newPath.
	Rename(oldPath, newPath string) error
	// Link creates newPath as a hard link to oldPath, failing with an
	// fs.ErrExist-wrapped error when newPath already exists.
	Link(oldPath, newPath string) error
	// Remove deletes the file.
	Remove(path string) error
	// SyncDir fsyncs a directory, making preceding creations, renames,
	// links and removals in it durable.
	SyncDir(path string) error
}

// OS is the real-filesystem implementation of FS.
type OS struct{}

// Mkdir implements FS.
func (OS) Mkdir(path string) error { return os.Mkdir(path, 0o755) }

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OS) ReadDir(path string) ([]string, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// WriteFile implements FS: write then fsync, so the data (though not
// necessarily the directory entry) is durable on return.
func (OS) WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CreateExclusive implements FS with a link publish: unlike an O_EXCL
// create, which exposes an empty file until the write lands, the link
// makes the whole content appear at once.
func (o OS) CreateExclusive(path string, data []byte) error { return publish(o, path, data) }

// Rename implements FS.
func (OS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Link implements FS.
func (OS) Link(oldPath, newPath string) error { return os.Link(oldPath, newPath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// SyncDir implements FS.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// tmpSeq distinguishes concurrent temp files within one process; the pid
// in the name separates processes sharing a directory (fleet nodes).
var tmpSeq atomic.Uint64

// tempPath names the private staging file for path, in path's directory:
// .<base>.tmp<pid>.<seq>. The leading dot and the suffix keep it out of
// every scanner that matches final names, so a temp left by a crash is
// ignored on restart.
func tempPath(path string) string {
	return filepath.Join(filepath.Dir(path),
		fmt.Sprintf(".%s.tmp%d.%d", filepath.Base(path), os.Getpid(), tmpSeq.Add(1)))
}

// WriteAtomic writes data to path with full crash-atomicity on fsys: a
// synced temp file in the destination directory is renamed over path and
// the directory itself is then fsynced, so after a crash the path holds
// either the old bytes or the new bytes, never a torn mix, and the rename
// itself cannot be lost to an unsynced directory.
func WriteAtomic(fsys FS, path string, data []byte) error {
	tmp := tempPath(path)
	err := fsys.WriteFile(tmp, data)
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best effort: every scanner skips temp names
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// LinkPublish publishes data at path if nothing is there yet: a synced
// temp file is hard-linked to path, the temp is removed and the directory
// is fsynced. Linking never exposes partial content and never replaces an
// existing file, so concurrent publishers of the same deterministic
// content race harmlessly — the loser's link fails with fs.ErrExist, which
// LinkPublish treats as success.
func LinkPublish(fsys FS, path string, data []byte) error {
	if err := publish(fsys, path, data); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return nil
}

// publish links a synced temp holding data to path, removes the temp and
// fsyncs the directory. It returns the link's fs.ErrExist-wrapped error
// when path already exists.
func publish(fsys FS, path string, data []byte) error {
	tmp := tempPath(path)
	err := fsys.WriteFile(tmp, data)
	if err == nil {
		err = fsys.Link(tmp, path)
	}
	_ = fsys.Remove(tmp) // best effort: every scanner skips temp names
	if err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	if serr := fsys.SyncDir(filepath.Dir(path)); serr != nil {
		return serr
	}
	return err
}

// Mkdir creates dir and any missing parents, fsyncing the parent of every
// directory it creates, so a new directory — and the synced files later
// written into it — cannot vanish in a power loss. A directory that
// already exists is left as it is.
func Mkdir(fsys FS, dir string) error {
	err := fsys.Mkdir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		parent := filepath.Dir(dir)
		if parent == dir {
			return err
		}
		if err := Mkdir(fsys, parent); err != nil {
			return err
		}
		err = fsys.Mkdir(dir)
	}
	if errors.Is(err, fs.ErrExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(dir))
}
