package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/obs"
)

// newStore opens a store over a temp dir with a controllable clock.
func newStore(t *testing.T, node string, dir string, now *func() time.Time) *Store {
	t.Helper()
	clock := time.Now
	if now != nil {
		clock = func() time.Time { return (*now)() }
	}
	s, err := Open(Config{
		Dir: dir, Node: node, TTL: 250 * time.Millisecond,
		Registry: obs.NewRegistry(), Now: clock,
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", node, err)
	}
	return s
}

func mkJob(t *testing.T, s *Store) string {
	t.Helper()
	id, err := s.NewJobID()
	if err != nil {
		t.Fatalf("NewJobID: %v", err)
	}
	if err := s.CreateJob(id, []byte(`{"spec":"x"}`), []byte(`{"id":"`+id+`","state":"queued"}`)); err != nil {
		t.Fatalf("CreateJob: %v", err)
	}
	return id
}

func TestClaimRaceSingleWinner(t *testing.T) {
	dir := t.TempDir()
	// Frozen clock: the winner's lease must not expire however slowly the
	// losing goroutines get scheduled.
	now := time.Now()
	clock := func() time.Time { return now }
	const nodes = 16
	stores := make([]*Store, nodes)
	for i := range stores {
		stores[i] = newStore(t, fmt.Sprintf("n%02d", i), dir, &clock)
	}
	job := mkJob(t, stores[0])

	var wg sync.WaitGroup
	leases := make([]*Lease, nodes)
	errs := make([]error, nodes)
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leases[i], errs[i] = stores[i].Claim(job)
		}(i)
	}
	wg.Wait()

	winners := 0
	for i := range leases {
		if leases[i] != nil {
			winners++
			if leases[i].Epoch != 1 {
				t.Errorf("winner epoch = %d, want 1", leases[i].Epoch)
			}
		} else if !errors.Is(errs[i], ErrUnavailable) {
			t.Errorf("loser %d: error %v, want ErrUnavailable", i, errs[i])
		}
	}
	if winners != 1 {
		t.Fatalf("%d nodes won the claim race, want exactly 1", winners)
	}
}

func TestClaimHeldAndReleased(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := func() time.Time { return now }
	a := newStore(t, "a", dir, &clock)
	b := newStore(t, "b", dir, &clock)
	job := mkJob(t, a)

	la, err := a.Claim(job)
	if err != nil {
		t.Fatalf("a.Claim: %v", err)
	}
	if _, err := b.Claim(job); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("b.Claim on held lease: %v, want ErrUnavailable", err)
	}
	if err := la.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	lb, err := b.Claim(job)
	if err != nil {
		t.Fatalf("b.Claim after release: %v", err)
	}
	if lb.Epoch != 2 {
		t.Fatalf("epoch after release-claim = %d, want 2", lb.Epoch)
	}
}

func TestExpiredLeaseIsStolenAndOldHolderFenced(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clockA, clockB := func() time.Time { return now }, func() time.Time { return now }
	a := newStore(t, "a", dir, &clockA)
	b := newStore(t, "b", dir, &clockB)
	job := mkJob(t, a)

	la, err := a.Claim(job)
	if err != nil {
		t.Fatalf("a.Claim: %v", err)
	}
	if err := la.Write(KindManifest, []byte(`{"state":"running"}`)); err != nil {
		t.Fatalf("a manifest write: %v", err)
	}

	// Node a goes silent; its lease expires.
	now = now.Add(time.Second)
	lb, err := b.Claim(job)
	if err != nil {
		t.Fatalf("b.Claim over expired lease: %v", err)
	}
	if lb.Epoch != la.Epoch+1 {
		t.Fatalf("steal epoch = %d, want %d", lb.Epoch, la.Epoch+1)
	}
	if got := b.reg.Counter("fleet.steals").Value(); got != 1 {
		t.Fatalf("fleet.steals = %d, want 1", got)
	}
	if got := b.reg.Counter("fleet.expired_leases").Value(); got != 1 {
		t.Fatalf("fleet.expired_leases = %d, want 1", got)
	}

	// The resurrected old holder is fenced on every path.
	if err := la.Verify(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Verify: %v, want ErrLeaseLost", err)
	}
	if err := la.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Renew: %v, want ErrLeaseLost", err)
	}
	if err := la.Write(KindManifest, []byte(`{"state":"done"}`)); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale Write: %v, want ErrLeaseLost", err)
	}
	if got := a.reg.Counter("fleet.fence_rejects").Value(); got == 0 {
		t.Fatal("fleet.fence_rejects = 0 on the stale node, want > 0")
	}

	// The thief's writes land and shadow the stale epoch.
	if err := lb.Write(KindManifest, []byte(`{"state":"running","node":"b"}`)); err != nil {
		t.Fatalf("thief manifest write: %v", err)
	}
	data, epoch, err := b.Latest(job, KindManifest, nil)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if epoch != lb.Epoch {
		t.Fatalf("latest manifest epoch = %d, want the thief's %d", epoch, lb.Epoch)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil || m["node"] != "b" {
		t.Fatalf("latest manifest is not the thief's: %s", data)
	}
}

func TestEpochMonotonicAcrossLeaseCleanup(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := func() time.Time { return now }
	s := newStore(t, "a", dir, &clock)
	job := mkJob(t, s)

	l1, err := s.Claim(job)
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if err := l1.Write(KindCheckpoint, []byte("ckpt-e1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// An operator (or crash cleanup) deletes every lease file. The state
	// files keep the epoch floor.
	if err := os.Remove(filepath.Join(dir, "jobs", job, fmt.Sprintf("lease.e%08d", 1))); err != nil {
		t.Fatalf("remove lease: %v", err)
	}
	l2, err := s.Claim(job)
	if err != nil {
		t.Fatalf("Claim after lease cleanup: %v", err)
	}
	if l2.Epoch != 2 {
		t.Fatalf("epoch after lease-file loss = %d, want 2 (floor from state files)", l2.Epoch)
	}
}

func TestCorruptLeaseContentIsClaimableButFencingHolds(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := func() time.Time { return now }
	a := newStore(t, "a", dir, &clock)
	b := newStore(t, "b", dir, &clock)
	job := mkJob(t, a)

	la, err := a.Claim(job)
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	// The holder's lease file content gets torn to garbage. Liveness can no
	// longer be proven, so the job must be claimable...
	leaseFile := filepath.Join(dir, "jobs", job, fmt.Sprintf("lease.e%08d", 1))
	if err := os.WriteFile(leaseFile, []byte("\x00garbage"), 0o644); err != nil {
		t.Fatalf("corrupt lease: %v", err)
	}
	cs, err := b.ClaimState(job)
	if err != nil {
		t.Fatalf("ClaimState: %v", err)
	}
	if !cs.Corrupt || cs.Held {
		t.Fatalf("ClaimState on corrupt lease = %+v, want Corrupt && !Held", cs)
	}
	if b.reg.Counter("fleet.corrupt_leases").Value() == 0 {
		t.Fatal("fleet.corrupt_leases not counted")
	}
	lb, err := b.Claim(job)
	if err != nil {
		t.Fatalf("Claim over corrupt lease: %v", err)
	}
	// ...and fencing still holds, because epochs live in file NAMES.
	if lb.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", lb.Epoch)
	}
	if err := la.Write(KindManifest, []byte("x")); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale holder write after content corruption: %v, want ErrLeaseLost", err)
	}
}

func TestLatestSkipsCorruptEpochs(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := func() time.Time { return now }
	s := newStore(t, "a", dir, &clock)
	job := mkJob(t, s)

	l1, _ := s.Claim(job)
	if err := l1.Write(KindManifest, []byte(`{"ok":1}`)); err != nil {
		t.Fatal(err)
	}
	l1.Release()
	l2, _ := s.Claim(job)
	if err := l2.Write(KindManifest, []byte(`{"ok":2}`)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest epoch's manifest in place.
	if err := os.WriteFile(s.StatePath(job, KindManifest, l2.Epoch), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := func(d []byte) error {
		if !json.Valid(d) {
			return errors.New("invalid JSON")
		}
		return nil
	}
	data, epoch, err := s.Latest(job, KindManifest, valid)
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if epoch != l1.Epoch {
		t.Fatalf("Latest degraded to epoch %d, want last-good %d", epoch, l1.Epoch)
	}
	if string(data) != `{"ok":1}` {
		t.Fatalf("Latest content = %s", data)
	}
	if s.reg.Counter("fleet.corrupt_state_files").Value() == 0 {
		t.Fatal("fleet.corrupt_state_files not counted")
	}
}

func TestNewJobIDConcurrentUnique(t *testing.T) {
	dir := t.TempDir()
	const nodes = 8
	stores := make([]*Store, nodes)
	for i := range stores {
		stores[i] = newStore(t, fmt.Sprintf("n%d", i), dir, nil)
	}
	var wg sync.WaitGroup
	ids := make([]string, nodes)
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := stores[i].NewJobID()
			if err != nil {
				t.Errorf("NewJobID: %v", err)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" {
			continue
		}
		if seen[id] {
			t.Fatalf("job ID %s allocated twice", id)
		}
		seen[id] = true
	}
	if len(seen) != nodes {
		t.Fatalf("%d unique IDs for %d nodes", len(seen), nodes)
	}
}

func TestCancelMarkerAndNodeHeartbeats(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clock := func() time.Time { return now }
	a := newStore(t, "a", dir, &clock)
	b := newStore(t, "b", dir, &clock)
	job := mkJob(t, a)

	if a.CancelRequested(job) {
		t.Fatal("cancel marker present before request")
	}
	if err := b.RequestCancel(job); err != nil {
		t.Fatalf("RequestCancel: %v", err)
	}
	if err := b.RequestCancel(job); err != nil {
		t.Fatalf("RequestCancel twice: %v", err)
	}
	if !a.CancelRequested(job) {
		t.Fatal("cancel marker not visible to the other node")
	}

	if err := a.HeartbeatNode(); err != nil {
		t.Fatalf("HeartbeatNode: %v", err)
	}
	if err := b.HeartbeatNode(); err != nil {
		t.Fatalf("HeartbeatNode: %v", err)
	}
	if live, err := a.LiveNodes(); err != nil || live != 2 {
		t.Fatalf("LiveNodes = %d, %v; want 2", live, err)
	}
	now = now.Add(time.Second) // both heartbeats lapse
	if live, err := a.LiveNodes(); err != nil || live != 0 {
		t.Fatalf("LiveNodes after expiry = %d, %v; want 0", live, err)
	}
}

func TestFencedBracketsDetectPostWriteLoss(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	clockA, clockB := func() time.Time { return now }, func() time.Time { return now }
	a := newStore(t, "a", dir, &clockA)
	b := newStore(t, "b", dir, &clockB)
	job := mkJob(t, a)

	la, err := a.Claim(job)
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	// The write itself succeeds, but B steals the lease between the write
	// and the post-verify: the holder must see ErrLeaseLost.
	err = la.Fenced(func() error {
		now = now.Add(time.Second)
		if _, cerr := b.Claim(job); cerr != nil {
			t.Fatalf("b.Claim mid-write: %v", cerr)
		}
		return durable.WriteAtomic(a.fs, a.StatePath(job, KindManifest, la.Epoch), []byte("{}"))
	})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("Fenced with mid-write steal: %v, want ErrLeaseLost", err)
	}
}
