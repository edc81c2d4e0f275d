// Package chaosfs is an injectable filesystem fault layer for crash and
// corruption testing. It wraps any durable.FS and injects the classic
// durability failure modes into chosen operations: torn writes (a prefix
// lands, the call errors), silent short writes, ENOSPC, EIO, rename and
// link failures, and crash points that freeze the filesystem mid-sequence
// the way SIGKILL freezes a process. Tests thread it under the fleet
// store, the single-node job store, the checkpoint writer and the result
// cache to prove that every recovery path actually recovers.
//
// Faults are described by Rules: an operation class, an optional path
// regexp, a countdown selecting the Nth matching call, and the fault kind.
// The package also journals every operation it sees, so tests can assert
// ordering properties (e.g. "the parent directory is fsynced after the
// rename") with InOrder.
package chaosfs

import (
	"errors"
	"fmt"
	"regexp"
	"sync"
	"syscall"

	"momosyn/internal/durable"
)

// Op classifies filesystem operations for fault matching.
type Op string

// The operation classes.
const (
	OpWrite   Op = "write"   // WriteFile
	OpCreate  Op = "create"  // CreateExclusive
	OpRead    Op = "read"    // ReadFile
	OpReadDir Op = "readdir" // ReadDir
	OpRename  Op = "rename"  // Rename (path = destination)
	OpLink    Op = "link"    // Link (path = destination)
	OpRemove  Op = "remove"  // Remove
	OpMkdir   Op = "mkdir"   // Mkdir
	OpSyncDir Op = "syncdir" // SyncDir
	// OpAny matches every operation.
	OpAny Op = ""
)

// Kind is what an injected fault does.
type Kind int

// The fault kinds.
const (
	// KindErr fails the operation with Rule.Err (default EIO) after
	// KeepBytes of the payload have landed (default none). With
	// Err == syscall.ENOSPC this is the disk-full fault.
	KindErr Kind = iota
	// KindTorn writes a prefix of the payload (default half) and then
	// fails the call — the on-disk file is torn.
	KindTorn
	// KindShort silently writes only a prefix of the payload (default
	// half) and reports success — the lost tail is only discoverable by
	// reading back.
	KindShort
	// KindCrash freezes the filesystem: a prefix (default none) lands,
	// the call and every subsequent operation fail with ErrCrashed,
	// simulating a process killed at exactly this write.
	KindCrash
)

// ErrCrashed is returned by every operation after a KindCrash rule fires.
var ErrCrashed = errors.New("chaosfs: simulated crash (process is dead)")

// Rule selects an operation to sabotage.
type Rule struct {
	// Op restricts the rule to one operation class (OpAny: all).
	Op Op
	// Path, when non-nil, restricts the rule to matching paths.
	Path *regexp.Regexp
	// Countdown fires the rule on the Nth matching call (1 or 0 = first).
	Countdown int
	// Repeat keeps the rule firing on every later match as well.
	Repeat bool
	// Kind is the fault behaviour.
	Kind Kind
	// Err overrides the error returned by KindErr/KindTorn (default EIO).
	Err error
	// KeepBytes is how much of a write payload lands before the fault:
	// -1 means half, 0 means the kind's default (none for KindErr and
	// KindCrash, half for KindTorn and KindShort).
	KeepBytes int
}

func (r *Rule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return fmt.Errorf("chaosfs: injected %w", syscall.EIO)
}

func (r *Rule) keep(n int) int {
	k := r.KeepBytes
	if k == 0 && (r.Kind == KindTorn || r.Kind == KindShort) {
		k = -1
	}
	if k == -1 {
		k = n / 2
	}
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	return k
}

// Record is one journaled operation.
type Record struct {
	Op   Op
	Path string
	// Faulted reports that a rule fired on this call.
	Faulted bool
}

// FS is the fault-injecting filesystem. The zero value is not usable; use
// New.
type FS struct {
	inner durable.FS

	mu      sync.Mutex
	rules   []*Rule
	crashed bool
	journal []Record
}

// New wraps inner with an initially fault-free chaos layer.
func New(inner durable.FS) *FS { return &FS{inner: inner} }

// Inject adds a fault rule.
func (f *FS) Inject(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rc := r
	if rc.Countdown <= 0 {
		rc.Countdown = 1
	}
	f.rules = append(f.rules, &rc)
}

// Reset clears rules, the crash flag and the journal.
func (f *FS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules, f.crashed, f.journal = nil, false, nil
}

// Revive clears only the crash flag, simulating the process restarting on
// the same disk state.
func (f *FS) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
}

// Crashed reports whether a KindCrash rule has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Journal returns a copy of the operations seen so far.
func (f *FS) Journal() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Record(nil), f.journal...)
}

// Ops counts journaled operations of one class on paths matching re (nil
// matches all).
func (f *FS) Ops(op Op, re *regexp.Regexp) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, n := Step{Op: op, Path: re}, 0
	for _, rec := range f.journal {
		if st.match(rec) {
			n++
		}
	}
	return n
}

// Step matches one journaled operation: an operation class (OpAny: all)
// on a path matching Path (nil: any path).
type Step struct {
	Op   Op
	Path *regexp.Regexp
}

func (st Step) match(rec Record) bool {
	return (st.Op == OpAny || rec.Op == st.Op) && (st.Path == nil || st.Path.MatchString(rec.Path))
}

// InOrder checks that the steps happen in order, every time, with
// nothing between them: among the journaled records that match any step,
// each record matching the first step is immediately followed by records
// matching the remaining steps, in order. It also fails when no record
// matches the first step. The error names the missing step and lists the
// journal.
func (f *FS) InOrder(steps ...Step) error {
	var seen []Record
	for _, rec := range f.Journal() {
		for _, st := range steps {
			if st.match(rec) {
				seen = append(seen, rec)
				break
			}
		}
	}
	runs := 0
	for i, rec := range seen {
		if !steps[0].match(rec) {
			continue
		}
		runs++
		for k, st := range steps[1:] {
			if i+1+k >= len(seen) || !st.match(seen[i+1+k]) {
				return fmt.Errorf("chaosfs: %s %s is not followed by step %d (%s %v) among the matching records %v",
					rec.Op, rec.Path, k+1, st.Op, st.Path, seen)
			}
		}
	}
	if runs == 0 {
		return fmt.Errorf("chaosfs: no %s %v in journal %v", steps[0].Op, steps[0].Path, f.Journal())
	}
	return nil
}

// begin journals the operation and resolves whether a rule fires on it.
// It returns ErrCrashed once the filesystem is frozen.
func (f *FS) begin(op Op, path string) (*Rule, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	var fired *Rule
	for _, r := range f.rules {
		if r.Countdown == 0 && !r.Repeat {
			continue
		}
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != nil && !r.Path.MatchString(path) {
			continue
		}
		if r.Countdown > 0 {
			r.Countdown--
		}
		if r.Countdown == 0 {
			fired = r
			if fired.Kind == KindCrash {
				f.crashed = true
			}
			break
		}
	}
	f.journal = append(f.journal, Record{Op: op, Path: path, Faulted: fired != nil})
	return fired, nil
}

// gate journals an operation that carries no payload and returns the
// fault a rule injects into it, if any.
func (f *FS) gate(op Op, path string) error {
	r, err := f.begin(op, path)
	if err != nil || r == nil {
		return err
	}
	if r.Kind == KindCrash {
		return ErrCrashed
	}
	return r.err()
}

// outcome is what a payload operation reports once the rule's prefix has
// landed.
func (r *Rule) outcome() error {
	switch r.Kind {
	case KindShort:
		return nil
	case KindCrash:
		return ErrCrashed
	default:
		return r.err()
	}
}

// Mkdir implements durable.FS.
func (f *FS) Mkdir(path string) error {
	if err := f.gate(OpMkdir, path); err != nil {
		return err
	}
	return f.inner.Mkdir(path)
}

// ReadFile implements durable.FS. KindTorn/KindShort deliver a
// truncated read.
func (f *FS) ReadFile(path string) ([]byte, error) {
	r, err := f.begin(OpRead, path)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return f.inner.ReadFile(path)
	}
	switch r.Kind {
	case KindTorn, KindShort:
		data, err := f.inner.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return data[:r.keep(len(data))], nil
	case KindCrash:
		return nil, ErrCrashed
	default:
		return nil, r.err()
	}
}

// ReadDir implements durable.FS.
func (f *FS) ReadDir(path string) ([]string, error) {
	if err := f.gate(OpReadDir, path); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(path)
}

// WriteFile implements durable.FS.
func (f *FS) WriteFile(path string, data []byte) error {
	r, err := f.begin(OpWrite, path)
	if err != nil {
		return err
	}
	if r == nil {
		return f.inner.WriteFile(path, data)
	}
	return f.faultWrite(r, path, data)
}

// CreateExclusive implements durable.FS.
func (f *FS) CreateExclusive(path string, data []byte) error {
	r, err := f.begin(OpCreate, path)
	if err != nil {
		return err
	}
	if r == nil {
		return f.inner.CreateExclusive(path, data)
	}
	// The exclusivity check must stay real even under fault: create the
	// file first (partial payload), so EEXIST semantics are preserved.
	if cerr := f.inner.CreateExclusive(path, data[:r.keep(len(data))]); cerr != nil {
		return cerr
	}
	return r.outcome()
}

// faultWrite applies a write-class fault: a prefix lands, then the kind
// decides the reported outcome.
func (f *FS) faultWrite(r *Rule, path string, data []byte) error {
	keep := r.keep(len(data))
	if keep > 0 || r.Kind == KindShort {
		if err := f.inner.WriteFile(path, data[:keep]); err != nil {
			return err
		}
	}
	return r.outcome()
}

// Rename implements durable.FS. A faulted rename leaves the source in
// place.
func (f *FS) Rename(oldPath, newPath string) error {
	if err := f.gate(OpRename, newPath); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

// Link implements durable.FS. A faulted link leaves the source in place
// and creates nothing.
func (f *FS) Link(oldPath, newPath string) error {
	if err := f.gate(OpLink, newPath); err != nil {
		return err
	}
	return f.inner.Link(oldPath, newPath)
}

// Remove implements durable.FS.
func (f *FS) Remove(path string) error {
	if err := f.gate(OpRemove, path); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// SyncDir implements durable.FS.
func (f *FS) SyncDir(path string) error {
	if err := f.gate(OpSyncDir, path); err != nil {
		return err
	}
	return f.inner.SyncDir(path)
}
