// Package fsyncdisc is an analysistest-style fixture for the fsyncdisc
// analyzer; want expectations mark the expected findings.
package fsyncdisc

import "os"

// missingDirSync syncs the file but never the parent directory: a crash
// can lose the rename itself.
func missingDirSync(dir, dst string) error {
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, dst) // want "no parent-directory fsync after it"
}

// unsyncedContent renames a file whose content was never fsynced.
func unsyncedContent(dir, dst string) error {
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	f.Close()
	if err := os.Rename(tmp, dst); err != nil { // want "not fsynced before the rename"
		return err
	}
	return fsyncDir(dir)
}

// writeFileRename stages with os.WriteFile, which does not fsync.
func writeFileRename(dir, dst string, data []byte) error {
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil { // want "os.WriteFile, which does not fsync"
		return err
	}
	return fsyncDir(dir)
}

// dirSyncTooEarly fsyncs the directory before the rename instead of
// after it: the directory entry for the rename is still volatile.
func dirSyncTooEarly(dir, dst string, f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := fsyncDir(dir); err != nil {
		return err
	}
	return os.Rename(f.Name(), dst) // want "fsync precedes the rename"
}

// writeAtomic is the blessed pattern: file sync, rename, directory sync.
func writeAtomic(dir, dst string, data []byte) error {
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
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
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return fsyncDir(dir)
}

// fsyncDir fsyncs a directory; callers carry its name as durability
// evidence.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// linkNoDirSync hard-links a synced temp into place but never fsyncs the
// directory: a link publish needs the directory sync like a rename.
func linkNoDirSync(dst string, f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Link(f.Name(), dst) // want "link has no parent-directory fsync after it"
}

// linkUnsynced links a temp staged with os.WriteFile, which does not
// fsync.
func linkUnsynced(dir, dst string, data []byte) error {
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Link(tmp, dst); err != nil { // want "before publishing it with link"
		return err
	}
	return fsyncDir(dir)
}

// linkPublish is the blessed link pattern: file sync, link, directory
// sync.
func linkPublish(dir, dst string, f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Link(f.Name(), dst); err != nil {
		return err
	}
	return fsyncDir(dir)
}

type osFS struct{}

// Rename forwards its arguments verbatim: a pure wrapper carries no
// durability responsibility of its own, so it is exempt.
func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

// Link is exempt for the same reason.
func (osFS) Link(from, to string) error { return os.Link(from, to) }
