package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
	"momosyn/internal/ga"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
)

// chaosStore opens a Store over a chaosfs-wrapped real filesystem with a
// frozen, advanceable clock, and creates one submitted job.
func chaosStore(t *testing.T, node string) (*Store, *chaosfs.FS, string, *time.Time) {
	t.Helper()
	now := time.Now()
	cfs := chaosfs.New(durable.OS{})
	s, err := Open(Config{
		Dir: t.TempDir(), Node: node, TTL: 250 * time.Millisecond,
		FS: cfs, Registry: obs.NewRegistry(),
		Now: func() time.Time { return now },
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	job, err := s.NewJobID()
	if err != nil {
		t.Fatalf("NewJobID: %v", err)
	}
	manifest := fmt.Sprintf(`{"id":%q,"state":"queued"}`, job)
	if err := s.CreateJob(job, []byte(`{"spec":1}`), []byte(manifest)); err != nil {
		t.Fatalf("CreateJob: %v", err)
	}
	return s, cfs, job, &now
}

// peer opens a second node's Store over the same directory and clock,
// bypassing the chaos layer (the peer's disk is healthy).
func peer(t *testing.T, s *Store, node string, now *time.Time) *Store {
	t.Helper()
	p, err := Open(Config{
		Dir: s.Dir(), Node: node, TTL: s.TTL(),
		Registry: obs.NewRegistry(),
		Now:      func() time.Time { return *now },
	})
	if err != nil {
		t.Fatalf("Open peer: %v", err)
	}
	return p
}

// manifestValid mirrors the serve layer's manifest validator: JSON that
// names the right job and carries a non-empty state.
func manifestValid(job string) func([]byte) error {
	return func(data []byte) error {
		var m struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return err
		}
		if m.ID != job {
			return fmt.Errorf("manifest names job %q, want %q", m.ID, job)
		}
		if m.State == "" {
			return errors.New("manifest has no state")
		}
		return nil
	}
}

var (
	leaseRe    = regexp.MustCompile(`lease\.`)
	manifestRe = regexp.MustCompile(`manifest\.`)
	ckptRe     = regexp.MustCompile(`\.ckpt`)
)

// TestChaosLeaseClaimFaults drives every write-fault class through the
// lease claim path: a faulted claim must fail loudly (or, for a silent
// short write, lose the lease to the next claimant), and the job must be
// claimable again afterwards — never wedged, never two live holders.
func TestChaosLeaseClaimFaults(t *testing.T) {
	t.Run("eio", func(t *testing.T) {
		s, cfs, job, _ := chaosStore(t, "a")
		cfs.Inject(chaosfs.Rule{Op: chaosfs.OpCreate, Path: leaseRe, Kind: chaosfs.KindErr})
		if _, err := s.Claim(job); err == nil {
			t.Fatal("claim under EIO succeeded")
		}
		cfs.Reset()
		// The faulted attempt may have left a torn epoch-1 lease behind;
		// liveness cannot be proven from it, so the job is claimable.
		l, err := s.Claim(job)
		if err != nil {
			t.Fatalf("re-claim after EIO: %v", err)
		}
		if l.Epoch != 2 {
			t.Fatalf("re-claim epoch = %d, want 2 (over the torn epoch-1 lease)", l.Epoch)
		}
	})

	t.Run("enospc", func(t *testing.T) {
		s, cfs, job, _ := chaosStore(t, "a")
		cfs.Inject(chaosfs.Rule{Op: chaosfs.OpCreate, Path: leaseRe, Kind: chaosfs.KindErr, Err: syscall.ENOSPC})
		_, err := s.Claim(job)
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("claim on full disk: %v, want ENOSPC", err)
		}
		cfs.Reset()
		if _, err := s.Claim(job); err != nil {
			t.Fatalf("re-claim after ENOSPC: %v", err)
		}
	})

	t.Run("torn", func(t *testing.T) {
		s, cfs, job, _ := chaosStore(t, "a")
		cfs.Inject(chaosfs.Rule{Op: chaosfs.OpCreate, Path: leaseRe, Kind: chaosfs.KindTorn})
		if _, err := s.Claim(job); err == nil {
			t.Fatal("torn claim reported success")
		}
		cfs.Reset()
		cs, err := s.ClaimState(job)
		if err != nil {
			t.Fatalf("ClaimState over torn lease: %v", err)
		}
		if cs.Held || !cs.Corrupt {
			t.Fatalf("torn lease classified %+v, want corrupt and claimable", cs)
		}
		if _, err := s.Claim(job); err != nil {
			t.Fatalf("re-claim over torn lease: %v", err)
		}
	})

	t.Run("short", func(t *testing.T) {
		// The silent killer: the claim "succeeds" but only half the lease
		// record landed. The holder believes it owns the job; a peer sees a
		// corrupt lease, claims the next epoch, and fencing settles it.
		s, cfs, job, now := chaosStore(t, "a")
		cfs.Inject(chaosfs.Rule{Op: chaosfs.OpCreate, Path: leaseRe, Kind: chaosfs.KindShort})
		la, err := s.Claim(job)
		if err != nil {
			t.Fatalf("short-write claim: %v", err)
		}
		b := peer(t, s, "b", now)
		cs, err := b.ClaimState(job)
		if err != nil {
			t.Fatalf("peer ClaimState: %v", err)
		}
		if !cs.Corrupt {
			t.Fatalf("peer classified short-written lease %+v, want Corrupt", cs)
		}
		if _, err := b.Claim(job); err != nil {
			t.Fatalf("peer claim over short-written lease: %v", err)
		}
		if err := la.Write(KindManifest, []byte(`{}`)); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("original holder write: %v, want ErrLeaseLost", err)
		}
	})

	t.Run("crash", func(t *testing.T) {
		s, cfs, job, _ := chaosStore(t, "a")
		cfs.Inject(chaosfs.Rule{Op: chaosfs.OpCreate, Path: leaseRe, Kind: chaosfs.KindCrash})
		if _, err := s.Claim(job); !errors.Is(err, chaosfs.ErrCrashed) {
			t.Fatalf("claim at crash point: %v, want ErrCrashed", err)
		}
		// The process is dead: everything fails until "restart".
		if _, err := s.Jobs(); !errors.Is(err, chaosfs.ErrCrashed) {
			t.Fatalf("post-crash op: %v, want ErrCrashed", err)
		}
		cfs.Revive()
		l, err := s.Claim(job)
		if err != nil {
			t.Fatalf("claim after restart: %v", err)
		}
		if l.Epoch != 2 {
			t.Fatalf("post-restart epoch = %d, want 2", l.Epoch)
		}
	})
}

// TestChaosLeaseRenewFaults drives faults through the renew path, which
// replaces the lease file atomically: a failed renew must never damage the
// existing lease record.
func TestChaosLeaseRenewFaults(t *testing.T) {
	renewUnder := func(t *testing.T, rule chaosfs.Rule, wantLeaseIntact bool) {
		t.Helper()
		s, cfs, job, _ := chaosStore(t, "a")
		l, err := s.Claim(job)
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		cfs.Inject(rule)
		if err := l.Renew(); err == nil {
			t.Fatal("faulted renew reported success")
		}
		cfs.Reset()
		cs, err := s.ClaimState(job)
		if err != nil {
			t.Fatalf("ClaimState: %v", err)
		}
		if wantLeaseIntact && (!cs.Held || cs.Corrupt) {
			t.Fatalf("lease after failed renew: %+v, want intact and held", cs)
		}
		if err := l.Renew(); err != nil {
			t.Fatalf("renew after fault cleared: %v", err)
		}
	}

	t.Run("torn-tmp-write", func(t *testing.T) {
		// The torn write hits the temp file; the rename never runs, so the
		// real lease record is untouched.
		renewUnder(t, chaosfs.Rule{Op: chaosfs.OpWrite, Path: leaseRe, Kind: chaosfs.KindTorn}, true)
	})
	t.Run("rename-failure", func(t *testing.T) {
		renewUnder(t, chaosfs.Rule{Op: chaosfs.OpRename, Path: leaseRe, Kind: chaosfs.KindErr}, true)
	})
	t.Run("dir-sync-failure", func(t *testing.T) {
		// The rename landed but its durability could not be proven: the
		// renew must report failure (content may be either record — both
		// are valid lease states for this epoch holder).
		renewUnder(t, chaosfs.Rule{Op: chaosfs.OpSyncDir, Kind: chaosfs.KindErr}, false)
	})
}

// TestChaosManifestWriteFaults drives every fault class through the fenced
// manifest write: a failed or silently-torn write must degrade reads to
// the last good manifest (the submitter's epoch-0 document), never wedge.
func TestChaosManifestWriteFaults(t *testing.T) {
	cases := []struct {
		name      string
		rule      chaosfs.Rule
		wantErrIs error // nil: any non-nil error; also nil for "short" which succeeds
		silent    bool  // KindShort reports success
	}{
		{"eio", chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindErr}, nil, false},
		{"enospc", chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindErr, Err: syscall.ENOSPC}, syscall.ENOSPC, false},
		{"torn", chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindTorn}, nil, false},
		{"short", chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindShort}, nil, true},
		{"rename-failure", chaosfs.Rule{Op: chaosfs.OpRename, Path: manifestRe, Kind: chaosfs.KindErr}, nil, false},
		{"crash", chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindCrash}, chaosfs.ErrCrashed, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, cfs, job, _ := chaosStore(t, "a")
			l, err := s.Claim(job)
			if err != nil {
				t.Fatalf("Claim: %v", err)
			}
			cfs.Inject(tc.rule)
			werr := l.Write(KindManifest, []byte(fmt.Sprintf(`{"id":%q,"state":"running"}`, job)))
			if tc.silent {
				if werr != nil {
					t.Fatalf("short write should report success, got %v", werr)
				}
			} else if werr == nil {
				t.Fatal("faulted manifest write reported success")
			} else if tc.wantErrIs != nil && !errors.Is(werr, tc.wantErrIs) {
				t.Fatalf("manifest write error %v, want %v", werr, tc.wantErrIs)
			}
			cfs.Revive() // clears only a crash; other faults were one-shot
			data, epoch, lerr := s.Latest(job, KindManifest, manifestValid(job))
			if lerr != nil {
				t.Fatalf("Latest after faulted write: %v", lerr)
			}
			if epoch != 0 {
				t.Fatalf("Latest epoch = %d, want degrade to the epoch-0 manifest", epoch)
			}
			var m map[string]any
			if json.Unmarshal(data, &m) != nil || m["state"] != "queued" {
				t.Fatalf("degraded manifest content: %s", data)
			}
			if tc.silent && s.reg.Counter("fleet.corrupt_state_files").Value() == 0 {
				t.Fatal("silently torn manifest not counted as corrupt")
			}
		})
	}
}

// goodCkpt builds a structurally valid checkpoint (mirrors the runctl
// corruption-sweep seed).
func goodCkpt(gen int) *runctl.Checkpoint {
	return &runctl.Checkpoint{
		Version: runctl.Version, SavedAt: time.Unix(1700000000, 0),
		System: "chaos-sys", GenomeLen: 2, Seed: 7, Fingerprint: "fp",
		Snapshot: ga.Snapshot{
			Generation: gen,
			Population: [][]int{{0, 1}, {1, 0}},
			Fitness:    []float64{1, 2},
		},
	}
}

// TestChaosCheckpointSaveFaults drives every fault class through
// runctl.SaveFS on the fleet checkpoint path: a good epoch-1 checkpoint
// exists; the epoch-2 save is sabotaged; recovery must find the epoch-1
// checkpoint via LatestPath with the full runctl.Load validation.
func TestChaosCheckpointSaveFaults(t *testing.T) {
	cases := []struct {
		name   string
		rule   chaosfs.Rule
		silent bool
	}{
		{"eio", chaosfs.Rule{Op: chaosfs.OpWrite, Path: ckptRe, Kind: chaosfs.KindErr}, false},
		{"enospc", chaosfs.Rule{Op: chaosfs.OpWrite, Path: ckptRe, Kind: chaosfs.KindErr, Err: syscall.ENOSPC}, false},
		{"torn", chaosfs.Rule{Op: chaosfs.OpWrite, Path: ckptRe, Kind: chaosfs.KindTorn}, false},
		{"short", chaosfs.Rule{Op: chaosfs.OpWrite, Path: ckptRe, Kind: chaosfs.KindShort}, true},
		{"rename-failure", chaosfs.Rule{Op: chaosfs.OpRename, Path: ckptRe, Kind: chaosfs.KindErr}, false},
		{"crash", chaosfs.Rule{Op: chaosfs.OpWrite, Path: ckptRe, Kind: chaosfs.KindCrash}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, cfs, job, _ := chaosStore(t, "a")
			l1, err := s.Claim(job)
			if err != nil {
				t.Fatalf("Claim: %v", err)
			}
			if err := l1.Fenced(func() error {
				return runctl.SaveFS(cfs, l1.StatePath(KindCheckpoint), goodCkpt(3))
			}); err != nil {
				t.Fatalf("good checkpoint save: %v", err)
			}
			if err := l1.Release(); err != nil {
				t.Fatalf("Release: %v", err)
			}
			l2, err := s.Claim(job)
			if err != nil {
				t.Fatalf("re-claim: %v", err)
			}
			cfs.Inject(tc.rule)
			serr := l2.Fenced(func() error {
				return runctl.SaveFS(cfs, l2.StatePath(KindCheckpoint), goodCkpt(9))
			})
			if tc.silent {
				if serr != nil {
					t.Fatalf("short-write save should report success, got %v", serr)
				}
			} else if serr == nil {
				t.Fatal("faulted checkpoint save reported success")
			}
			cfs.Revive()
			var got *runctl.Checkpoint
			path, epoch, lerr := s.LatestPath(job, KindCheckpoint, func(p string) error {
				cp, err := runctl.Load(p)
				if err != nil {
					return err
				}
				got = cp
				return nil
			})
			if lerr != nil {
				t.Fatalf("LatestPath after faulted save: %v", lerr)
			}
			if epoch != l1.Epoch {
				t.Fatalf("recovered checkpoint epoch = %d (%s), want last-good %d", epoch, path, l1.Epoch)
			}
			if got == nil || got.Snapshot.Generation != 3 {
				t.Fatalf("recovered checkpoint = %+v, want the generation-3 snapshot", got)
			}
		})
	}
}

// TestLiveNodesIgnoresHeartbeatTemp crashes a heartbeat between the temp
// write and the rename: the synced temp holds a valid record of node a,
// and after the restart's next heartbeat node a must still count once.
func TestLiveNodesIgnoresHeartbeatTemp(t *testing.T) {
	s, cfs, _, now := chaosStore(t, "a")
	cfs.Inject(chaosfs.Rule{Op: chaosfs.OpRename, Path: regexp.MustCompile(`nodes/a\.json$`), Kind: chaosfs.KindCrash})
	if err := s.HeartbeatNode(); !errors.Is(err, chaosfs.ErrCrashed) {
		t.Fatalf("HeartbeatNode under crash = %v, want ErrCrashed", err)
	}
	restarted := peer(t, s, "a", now)
	if err := restarted.HeartbeatNode(); err != nil {
		t.Fatalf("HeartbeatNode after restart: %v", err)
	}
	if names, _ := os.ReadDir(filepath.Join(s.Dir(), "nodes")); len(names) != 2 {
		t.Fatalf("nodes/ holds %d files, want the record plus the crash's temp", len(names))
	}
	if live, err := restarted.LiveNodes(); err != nil || live != 1 {
		t.Fatalf("LiveNodes = %d, %v; want 1", live, err)
	}
}

// TestScannersIgnoreLeftoverTemps crashes a manifest write and a lease
// renewal between the temp write and the rename, leaving two synced temps
// in the job directory: the epoch and claim scanners must see exactly
// what they saw before the crashes.
func TestScannersIgnoreLeftoverTemps(t *testing.T) {
	s, cfs, job, _ := chaosStore(t, "a")
	l, err := s.Claim(job)
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	running := []byte(fmt.Sprintf(`{"id":%q,"state":"running"}`, job))
	if err := l.Write(KindManifest, running); err != nil {
		t.Fatalf("Write: %v", err)
	}
	wantEpochs, err := s.Epochs(job, KindManifest)
	if err != nil {
		t.Fatalf("Epochs: %v", err)
	}
	wantClaim, err := s.claimState(job)
	if err != nil {
		t.Fatalf("claimState: %v", err)
	}

	cfs.Inject(chaosfs.Rule{Op: chaosfs.OpRename, Path: manifestRe, Kind: chaosfs.KindCrash})
	if err := l.Write(KindManifest, running); !errors.Is(err, chaosfs.ErrCrashed) {
		t.Fatalf("Write under crash = %v, want ErrCrashed", err)
	}
	cfs.Revive()
	cfs.Inject(chaosfs.Rule{Op: chaosfs.OpRename, Path: leaseRe, Kind: chaosfs.KindCrash})
	if err := l.Renew(); !errors.Is(err, chaosfs.ErrCrashed) {
		t.Fatalf("Renew under crash = %v, want ErrCrashed", err)
	}
	cfs.Revive()
	names, _ := os.ReadDir(filepath.Join(s.Dir(), "jobs", job))
	temps := 0
	for _, n := range names {
		if strings.Contains(n.Name(), ".tmp") {
			temps++
		}
	}
	if temps != 2 {
		t.Fatalf("job dir holds %d temps, want 2: %v", temps, names)
	}

	if got, err := s.Epochs(job, KindManifest); err != nil || !reflect.DeepEqual(got, wantEpochs) {
		t.Errorf("Epochs with leftover temps = %v, %v; want %v", got, err, wantEpochs)
	}
	if got, err := s.claimState(job); err != nil || got != wantClaim {
		t.Errorf("claimState with leftover temps = %+v, %v; want %+v", got, err, wantClaim)
	}
}

// TestCorruptionSweepLease flips every byte of a live lease record in turn,
// and truncates it to every length: the claim-state classifier must never
// error, the epoch (parsed from the file NAME) must never change, and the
// lease must classify as either held or claimable — a corrupt lease can
// delay or cost the holder its claim, but can never wedge the job or spawn
// a second concurrent holder.
func TestCorruptionSweepLease(t *testing.T) {
	s, _, job, now := chaosStore(t, "a")
	la, err := s.Claim(job)
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	b := peer(t, s, "b", now)
	leasePath := s.leasePath(job, la.Epoch)
	valid, err := os.ReadFile(leasePath)
	if err != nil {
		t.Fatalf("read lease: %v", err)
	}
	check := func(t *testing.T, label string, data []byte) {
		if err := os.WriteFile(leasePath, data, 0o644); err != nil {
			t.Fatalf("%s: write: %v", label, err)
		}
		cs, err := b.ClaimState(job)
		if err != nil {
			t.Fatalf("%s: ClaimState errored (wedged job): %v", label, err)
		}
		if cs.Epoch != la.Epoch || cs.LeaseEpoch != la.Epoch {
			t.Fatalf("%s: epoch misread as %d/%d, want %d (names are authoritative)", label, cs.Epoch, cs.LeaseEpoch, la.Epoch)
		}
		if cs.Held == (cs.Expired || cs.Corrupt) {
			t.Fatalf("%s: incoherent classification %+v", label, cs)
		}
	}

	for off := range valid {
		data := append([]byte(nil), valid...)
		data[off] ^= 0xff
		check(t, fmt.Sprintf("flip@%d", off), data)
	}
	for n := 0; n < len(valid); n++ {
		check(t, fmt.Sprintf("trunc@%d", n), valid[:n])
	}

	// Detection must have fired for at least the blatant corruptions.
	if b.reg.Counter("fleet.corrupt_leases").Value() == 0 {
		t.Fatal("sweep never detected a corrupt lease")
	}

	// Leave one corrupt variant in place and run the full recovery: the
	// peer claims the next epoch and the original holder is fenced off.
	if err := os.WriteFile(leasePath, valid[:len(valid)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	lb, err := b.Claim(job)
	if err != nil {
		t.Fatalf("claim over corrupt lease: %v", err)
	}
	if lb.Epoch != la.Epoch+1 {
		t.Fatalf("recovery epoch = %d, want %d", lb.Epoch, la.Epoch+1)
	}
	if err := la.Write(KindManifest, []byte(`{}`)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("fenced holder write: %v, want ErrLeaseLost", err)
	}
}

// TestCorruptionSweepManifest flips every byte and truncates to every
// length of the epoch-1 manifest: reads must always produce a manifest the
// validator accepts — the damaged epoch itself when the damage is
// immaterial, otherwise the last good epoch below it — and never an error.
func TestCorruptionSweepManifest(t *testing.T) {
	s, _, job, _ := chaosStore(t, "a")
	l, err := s.Claim(job)
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	good := []byte(fmt.Sprintf(`{"id":%q,"state":"running","epoch":1}`, job))
	if err := l.Write(KindManifest, good); err != nil {
		t.Fatalf("Write: %v", err)
	}
	manifestPath := s.StatePath(job, KindManifest, l.Epoch)
	validate := manifestValid(job)

	check := func(t *testing.T, label string, data []byte) {
		if err := os.WriteFile(manifestPath, data, 0o644); err != nil {
			t.Fatalf("%s: write: %v", label, err)
		}
		got, epoch, err := s.Latest(job, KindManifest, validate)
		if err != nil {
			t.Fatalf("%s: Latest errored (wedged job): %v", label, err)
		}
		if verr := validate(got); verr != nil {
			t.Fatalf("%s: Latest returned an invalid manifest (epoch %d): %v\n%s", label, epoch, verr, got)
		}
		if epoch != 0 && epoch != l.Epoch {
			t.Fatalf("%s: Latest epoch = %d, want %d or the epoch-0 fallback", label, epoch, l.Epoch)
		}
	}

	for off := range good {
		data := append([]byte(nil), good...)
		data[off] ^= 0xff
		check(t, fmt.Sprintf("flip@%d", off), data)
	}
	for n := 0; n < len(good); n++ {
		check(t, fmt.Sprintf("trunc@%d", n), good[:n])
	}

	if s.reg.Counter("fleet.corrupt_state_files").Value() == 0 {
		t.Fatal("sweep never detected a corrupt manifest")
	}
}
