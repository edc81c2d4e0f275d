package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"momosyn/internal/durable"
)

// Lease protocol. A job's lease files live in its job directory and are
// named lease.e<epoch>. Claiming epoch E is an exclusive creation of
// lease.e<E> (durable.FS.CreateExclusive): the filesystem guarantees
// exactly one winner per epoch number, so two nodes can never both
// believe they hold the same epoch.
// The current holder is the highest-numbered lease file; every lower epoch
// is fenced off. Claim candidates pick E = (highest epoch ever observed in
// the directory, across lease AND state files) + 1, so epochs are strictly
// monotonic even after lease files are cleaned up or corrupted — state
// files keep the floor, and the epoch is parsed from file NAMES, which a
// torn write cannot damage.

// Errors of the claim/renew protocol.
var (
	// ErrUnavailable reports a claim attempt on a job whose lease is held
	// and current, or that another node won the race for.
	ErrUnavailable = errors.New("fleet: job lease unavailable")
	// ErrLeaseLost reports that a higher lease epoch exists: this node has
	// been fenced off and must stop writing job state immediately.
	ErrLeaseLost = errors.New("fleet: lease lost to a higher epoch")
)

// leaseRecord is the JSON content of a lease file. The epoch also appears
// in the file name, which is authoritative: content corruption can delay
// liveness detection but never confuse fencing.
type leaseRecord struct {
	Job      string    `json:"job"`
	Node     string    `json:"node"`
	Epoch    int       `json:"epoch"`
	Acquired time.Time `json:"acquired"`
	Deadline time.Time `json:"deadline"`
	Released bool      `json:"released,omitempty"`
}

// ClaimState summarises a job's lease situation for claim decisions and
// operational reporting.
type ClaimState struct {
	// Epoch is the highest epoch observed across lease and state files;
	// 0 when the job has never been claimed.
	Epoch int
	// LeaseEpoch is the highest lease file epoch (0 when none).
	LeaseEpoch int
	// Holder is the node named by the current lease ("" when none or
	// unreadable).
	Holder string
	// Held reports a current, unexpired, unreleased lease.
	Held bool
	// Released reports a gracefully released current lease.
	Released bool
	// Expired reports a current lease whose deadline has passed.
	Expired bool
	// Corrupt reports that the current lease file exists but its content
	// is unreadable (it is treated as expired: liveness cannot be proven).
	Corrupt bool
}

// Lease is a held claim on one job at one epoch. All its writes are fenced:
// they re-verify the epoch before (and after) touching job state.
type Lease struct {
	store *Store
	// Job is the claimed job ID.
	Job string
	// Epoch is the claim epoch; every state file this lease writes embeds
	// it in its name.
	Epoch int
	// Holder is the owning node ID.
	Holder string

	deadline time.Time
}

// claimState inspects the job directory once and classifies its lease.
func (s *Store) claimState(job string) (ClaimState, error) {
	names, err := s.fs.ReadDir(s.jobDir(job))
	if err != nil {
		return ClaimState{}, fmt.Errorf("fleet: job %s: %w", job, err)
	}
	var cs ClaimState
	for _, name := range names {
		if e, ok := parseLeaseName(name); ok {
			if e > cs.LeaseEpoch {
				cs.LeaseEpoch = e
			}
			if e > cs.Epoch {
				cs.Epoch = e
			}
			continue
		}
		if _, e, ok := parseStateName(name); ok && e > cs.Epoch {
			cs.Epoch = e
		}
	}
	if cs.LeaseEpoch == 0 {
		return cs, nil
	}
	data, err := s.fs.ReadFile(s.leasePath(job, cs.LeaseEpoch))
	if err != nil {
		// Present in the listing but unreadable: treat like corrupt
		// content — claimable, since liveness cannot be proven.
		s.corruptLeases.Inc()
		cs.Corrupt, cs.Expired = true, true
		return cs, nil
	}
	var rec leaseRecord
	if jerr := json.Unmarshal(data, &rec); jerr != nil || rec.Deadline.IsZero() {
		s.corruptLeases.Inc()
		cs.Corrupt, cs.Expired = true, true
		return cs, nil
	}
	cs.Holder = rec.Node
	cs.Released = rec.Released
	cs.Expired = !s.now().Before(rec.Deadline)
	cs.Held = !rec.Released && !cs.Expired
	return cs, nil
}

// ClaimState reports the job's current lease situation.
func (s *Store) ClaimState(job string) (ClaimState, error) { return s.claimState(job) }

// Claim attempts to take the job's lease at the next epoch. It fails with
// ErrUnavailable when the current lease is held and unexpired, or when a
// concurrent claimant wins the exclusive-create race for the next epoch.
// A claim over an expired (or corrupt) prior lease counts as a steal.
func (s *Store) Claim(job string) (*Lease, error) {
	cs, err := s.claimState(job)
	if err != nil {
		return nil, err
	}
	if cs.Held {
		return nil, fmt.Errorf("%w: held by %s until its deadline (epoch %d)", ErrUnavailable, cs.Holder, cs.LeaseEpoch)
	}
	epoch := cs.Epoch + 1
	now := s.now()
	rec := leaseRecord{
		Job: job, Node: s.node, Epoch: epoch,
		Acquired: now, Deadline: now.Add(s.ttl),
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		return nil, fmt.Errorf("fleet: lease encode: %w", err)
	}
	if err := s.fs.CreateExclusive(s.leasePath(job, epoch), data); err != nil {
		if errors.Is(err, fs.ErrExist) {
			s.claimConflicts.Inc()
			return nil, fmt.Errorf("%w: lost the claim race for epoch %d", ErrUnavailable, epoch)
		}
		return nil, fmt.Errorf("fleet: claim %s: %w", job, err)
	}
	s.claims.Inc()
	if cs.LeaseEpoch > 0 && !cs.Released {
		s.steals.Inc()
		if cs.Expired && !cs.Corrupt {
			s.expiredLeases.Inc()
		}
	}
	return &Lease{store: s, Job: job, Epoch: epoch, Holder: s.node, deadline: rec.Deadline}, nil
}

// Verify re-checks the fence: it fails with ErrLeaseLost when any lease
// epoch above this one exists (another node reclaimed the job), counting a
// fence rejection. A held lease whose own file disappeared is also lost —
// the holder can no longer prove anything.
func (l *Lease) Verify() error {
	names, err := l.store.fs.ReadDir(l.store.jobDir(l.Job))
	if err != nil {
		return fmt.Errorf("fleet: verify %s: %w", l.Job, err)
	}
	maxLease := 0
	for _, name := range names {
		if e, ok := parseLeaseName(name); ok && e > maxLease {
			maxLease = e
		}
	}
	if maxLease != l.Epoch {
		l.store.fenceRejects.Inc()
		return fmt.Errorf("%w: job %s epoch %d superseded (current lease epoch %d)", ErrLeaseLost, l.Job, l.Epoch, maxLease)
	}
	return nil
}

// Renew extends the lease deadline by one TTL from now. It verifies the
// fence first and fails with ErrLeaseLost once superseded; the holder must
// then abandon the job without further writes.
func (l *Lease) Renew() error {
	if err := l.Verify(); err != nil {
		return err
	}
	now := l.store.now()
	deadline := now.Add(l.store.ttl)
	if err := l.write(leaseRecord{
		Job: l.Job, Node: l.Holder, Epoch: l.Epoch,
		Acquired: now, Deadline: deadline,
	}); err != nil {
		return fmt.Errorf("fleet: renew %s: %w", l.Job, err)
	}
	l.deadline = deadline
	l.store.renewals.Inc()
	return nil
}

// Release marks the lease released in place (keeping the epoch floor), so
// any node may claim the job immediately without waiting for expiry.
func (l *Lease) Release() error {
	if err := l.Verify(); err != nil {
		return err
	}
	if err := l.write(leaseRecord{
		Job: l.Job, Node: l.Holder, Epoch: l.Epoch,
		Acquired: l.store.now(), Deadline: l.store.now(), Released: true,
	}); err != nil {
		return fmt.Errorf("fleet: release %s: %w", l.Job, err)
	}
	l.store.releases.Inc()
	return nil
}

// write atomically replaces the lease file content. Only the epoch winner
// ever writes this path, so there is exactly one legitimate writer.
func (l *Lease) write(rec leaseRecord) error {
	data, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	return durable.WriteAtomic(l.store.fs, l.store.leasePath(l.Job, l.Epoch), data)
}

// Deadline returns the lease's current deadline.
func (l *Lease) Deadline() time.Time { return l.deadline }
