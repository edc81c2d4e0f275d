package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
	"momosyn/internal/fleet"
	"momosyn/internal/ga"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/serve"
)

// drain shuts a started server down and waits for its workers.
func drain(t *testing.T, s *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// runBatch submits a two-seed batch of quick jobs and waits for it.
func runBatch(t *testing.T, a *api, spec string) *serve.BatchStatusView {
	t.Helper()
	c := batchClient(a)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	view, err := c.SubmitBatch(ctx, serve.BatchRequest{
		Specs:   []serve.BatchSpecRef{{Spec: spec}},
		Seeds:   []int64{21, 22},
		Options: []serve.JobRequest{quickOption()},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.WaitBatch(ctx, view.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return status
}

// TestAtomicWriteSyncsDirAfterRename checks the durability order of every
// atomic writer against the chaosfs journal: each time, the synced temp is
// written, renamed into place, and then the parent directory is fsynced —
// so a crash right after the rename cannot lose the entry.
func TestAtomicWriteSyncsDirAfterRename(t *testing.T) {
	// Fleet: a lease-fenced manifest write.
	fleetFS := chaosfs.New(durable.OS{})
	store, err := fleet.Open(fleet.Config{Dir: t.TempDir(), Node: "a", FS: fleetFS, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	job, err := store.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CreateJob(job, []byte(`{}`), []byte(fmt.Sprintf(`{"id":%q,"state":"queued"}`, job))); err != nil {
		t.Fatal(err)
	}
	lease, err := store.Claim(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Write(fleet.KindManifest, []byte(fmt.Sprintf(`{"id":%q,"state":"running"}`, job))); err != nil {
		t.Fatal(err)
	}

	// runctl: a checkpoint written directly.
	ckptFS := chaosfs.New(durable.OS{})
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cp := &runctl.Checkpoint{System: "s", GenomeLen: 1, Snapshot: ga.Snapshot{
		Population: [][]int{{0}}, Fitness: []float64{1}, Generation: 1}}
	if err := runctl.SaveFS(ckptFS, filepath.Join(ckptDir, "run.ckpt"), cp); err != nil {
		t.Fatal(err)
	}

	// Single-node serve: one batch whose jobs checkpoint every generation
	// covers the manifest, result, checkpoint and batch-record writers.
	serveFS := chaosfs.New(durable.OS{})
	srv, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8, CheckpointEvery: 1, FS: serveFS})
	runBatch(t, a, tinySpec(t))
	drain(t, srv)

	cases := []struct {
		name      string
		fs        *chaosfs.FS
		file, dir string
	}{
		{"fleet.Lease.Write", fleetFS, `manifest\.e00000001\.json`, `jobs/j000001`},
		{"runctl.SaveFS", ckptFS, `run\.ckpt`, `ckpt`},
		{"serve.manifest", serveFS, `manifest\.json`, `jobs/j000001`},
		{"serve.result", serveFS, `result\.json`, `jobs/j000001`},
		{"serve.checkpoint", serveFS, `job\.ckpt`, `jobs/j000001`},
		{"serve.batch", serveFS, `b000001\.json`, `batches`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			temp := regexp.MustCompile(`/` + c.dir + `/\.` + c.file + `\.tmp\d+\.\d+$`)
			final := regexp.MustCompile(`/` + c.dir + `/` + c.file + `$`)
			dir := regexp.MustCompile(`/` + c.dir + `$`)
			if err := c.fs.InOrder(
				chaosfs.Step{Op: chaosfs.OpWrite, Path: temp},
				chaosfs.Step{Op: chaosfs.OpRename, Path: final},
				chaosfs.Step{Op: chaosfs.OpSyncDir, Path: dir},
			); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewDirsSyncParent checks that every directory single-node serve
// creates — a submitted job's, a cache-hit job's and batches/ — is made
// durable by an fsync of its parent before the request returns.
func TestNewDirsSyncParent(t *testing.T) {
	cfs := chaosfs.New(durable.OS{})
	spec := tinySpec(t)
	dataDir := t.TempDir()
	_, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8, DataDir: dataDir, CacheDir: t.TempDir(), FS: cfs})
	jobsDir := regexp.MustCompile(regexp.QuoteMeta(filepath.Join(dataDir, "jobs")) + `$`)
	steps := func(dir string, parent *regexp.Regexp) []chaosfs.Step {
		return []chaosfs.Step{
			{Op: chaosfs.OpMkdir, Path: regexp.MustCompile(`/` + dir + `$`)},
			{Op: chaosfs.OpSyncDir, Path: parent},
		}
	}

	cfs.Reset()
	first := a.submit(quickJob(spec, 1))
	if err := cfs.InOrder(steps(first.ID, jobsDir)...); err != nil {
		t.Fatalf("submit: %v", err)
	}
	a.await(first.ID, "done", stateIs(serve.StateDone))

	cfs.Reset()
	hit := a.submit(quickJob(spec, 1))
	if !hit.Cached {
		t.Fatalf("resubmission %s was not a cache hit", hit.ID)
	}
	if err := cfs.InOrder(steps(hit.ID, jobsDir)...); err != nil {
		t.Fatalf("cache hit: %v", err)
	}

	cfs.Reset()
	runBatch(t, a, spec)
	if err := cfs.InOrder(steps("batches", regexp.MustCompile(regexp.QuoteMeta(dataDir)+`$`))...); err != nil {
		t.Fatalf("batch: %v", err)
	}
}

// TestRecoveryIgnoresLeftoverTemps restarts a data directory twice: once
// as a clean shutdown left it, and once after crashes between temp write
// and rename left synced temps beside a manifest and a batch record. Job
// recovery and batch recovery must rebuild the same state both times.
func TestRecoveryIgnoresLeftoverTemps(t *testing.T) {
	dataDir := t.TempDir()
	spec := tinySpec(t)
	srv, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8, DataDir: dataDir})
	batch := runBatch(t, a, spec)
	drain(t, srv)

	snapshot := func() ([]serve.StatusView, *serve.BatchStatusView) {
		t.Helper()
		srv, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8, DataDir: dataDir})
		defer drain(t, srv)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c := batchClient(a)
		jobs, err := c.ListAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.BatchStatus(ctx, batch.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp := a.do("GET", "/v1/batches/b000002", nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET b000002: status %d, want 404", resp.StatusCode)
		}
		return jobs, b
	}
	wantJobs, wantBatch := snapshot()

	// A crash freezes the filesystem right before each rename: the temps,
	// holding complete records that contradict the durable ones, remain.
	for _, path := range []string{
		filepath.Join(dataDir, "jobs", "j000001", "manifest.json"),
		filepath.Join(dataDir, "batches", batch.ID+".json"),
	} {
		cfs := chaosfs.New(durable.OS{})
		cfs.Inject(chaosfs.Rule{Op: chaosfs.OpRename, Kind: chaosfs.KindCrash})
		junk := []byte(`{"id":"j000009","state":"queued"}`)
		if err := durable.WriteAtomic(cfs, path, junk); !errors.Is(err, chaosfs.ErrCrashed) {
			t.Fatalf("WriteAtomic %s under crash = %v, want ErrCrashed", path, err)
		}
		entries, _ := os.ReadDir(filepath.Dir(path))
		if len(entries) < 2 {
			t.Fatalf("no temp left beside %s: %v", path, entries)
		}
	}

	gotJobs, gotBatch := snapshot()
	if !reflect.DeepEqual(gotJobs, wantJobs) {
		t.Errorf("job table with leftover temps:\n%+v\nwant\n%+v", gotJobs, wantJobs)
	}
	if !reflect.DeepEqual(gotBatch, wantBatch) {
		t.Errorf("batch with leftover temps:\n%+v\nwant\n%+v", gotBatch, wantBatch)
	}
}

// durableOps counts the journaled file writes, exclusive creates and
// directory syncs on paths matching re (nil: every path).
type durableOps struct{ Writes, Creates, SyncDirs int }

func countDurableOps(cfs *chaosfs.FS, re *regexp.Regexp) durableOps {
	return durableOps{
		Writes:   cfs.Ops(chaosfs.OpWrite, re),
		Creates:  cfs.Ops(chaosfs.OpCreate, re),
		SyncDirs: cfs.Ops(chaosfs.OpSyncDir, re),
	}
}

// TestDurableOpsPerJob pins the durable operations one job costs on
// Config.FS: a fresh single-node job, a single-node cache hit and a fresh
// fleet job. Every WriteFile is an fsync, so writes plus directory syncs
// is the job's fsync count. The result cache's own content-addressed store
// is opened on the real filesystem, not on Config.FS, so its put on a
// fresh job and its read on a hit are not in these counts. A change that
// moves a count must say why in CHANGES.md and re-pin it here.
//
// It also pins the single-node write order: the queued manifest (right
// after the job directory is made), the running manifest, the result and
// the terminal manifest; and, for a cache hit, the result before the
// manifest.
func TestDurableOpsPerJob(t *testing.T) {
	spec := tinySpec(t)

	t.Run("single-node", func(t *testing.T) {
		cfs := chaosfs.New(durable.OS{})
		srv, a := startServer(t, serve.Config{Workers: 1, QueueDepth: 8, CacheDir: t.TempDir(), FS: cfs})

		cfs.Reset()
		fresh := a.submit(quickJob(spec, 1))
		a.await(fresh.ID, "done", stateIs(serve.StateDone))
		if got, want := countDurableOps(cfs, nil), (durableOps{Writes: 6, Creates: 0, SyncDirs: 7}); got != want {
			t.Errorf("fresh job: durable ops %+v, want %+v", got, want)
		}
		dir := `/jobs/` + fresh.ID
		manifest := chaosfs.Step{Op: chaosfs.OpRename, Path: regexp.MustCompile(dir + `/manifest\.json$`)}
		result := chaosfs.Step{Op: chaosfs.OpRename, Path: regexp.MustCompile(dir + `/result\.json$`)}
		if err := cfs.InOrder(
			chaosfs.Step{Op: chaosfs.OpMkdir, Path: regexp.MustCompile(dir + `$`)},
			manifest, // queued
			manifest, // running
			result,
			manifest, // done
		); err != nil {
			t.Errorf("fresh job write order: %v", err)
		}

		cfs.Reset()
		hit := a.submit(quickJob(spec, 1))
		if !hit.Cached {
			t.Fatalf("resubmission %s was not a cache hit", hit.ID)
		}
		if got, want := countDurableOps(cfs, nil), (durableOps{Writes: 2, Creates: 0, SyncDirs: 3}); got != want {
			t.Errorf("cache hit: durable ops %+v, want %+v", got, want)
		}
		dir = `/jobs/` + hit.ID
		if err := cfs.InOrder(
			chaosfs.Step{Op: chaosfs.OpMkdir, Path: regexp.MustCompile(dir + `$`)},
			chaosfs.Step{Op: chaosfs.OpRename, Path: regexp.MustCompile(dir + `/result\.json$`)},
			chaosfs.Step{Op: chaosfs.OpRename, Path: regexp.MustCompile(dir + `/manifest\.json$`)},
		); err != nil {
			t.Errorf("cache hit write order: %v", err)
		}
		drain(t, srv)
	})

	t.Run("fleet", func(t *testing.T) {
		// The job is published before the node starts and the heartbeat is
		// an hour, so the node's first coordination pass claims it and no
		// lease renewal lands while it runs: the count is the job's own. The
		// node's liveness record lives under nodes/ and is not counted.
		cfs := chaosfs.New(durable.OS{})
		s, err := serve.New(serve.Config{
			FleetDir: t.TempDir(), NodeID: "nodeA", Workers: 1, QueueDepth: 8,
			Heartbeat: time.Hour, LeaseTTL: 3 * time.Hour, FS: cfs, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := newAPI(t, s)
		cfs.Reset()
		j := a.submit(quickJob(spec, 1))
		s.Start(context.Background())
		a.await(j.ID, "done", stateIs(serve.StateDone))
		// The terminal commit leaves the lease to expire instead of
		// rewriting it; the drain makes sure nothing else lands later.
		drain(t, s)
		jobs := regexp.MustCompile(`/jobs(/|$)`)
		if got, want := countDurableOps(cfs, jobs), (durableOps{Writes: 6, Creates: 2, SyncDirs: 7}); got != want {
			t.Errorf("fleet job: durable ops %+v, want %+v", got, want)
		}
	})
}
