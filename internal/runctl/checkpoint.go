package runctl

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/ga"
	"momosyn/internal/obs"
)

// Version is the checkpoint file format version. Load rejects files written
// by an incompatible version instead of silently misreading them.
const Version = 1

// magic identifies checkpoint files; the trailing byte is the format
// version so mismatches are detected before gob decoding.
const magic = "MMSYN-CKPT\x01"

// CacheCounters reports fitness-cache effectiveness for a run segment.
type CacheCounters struct {
	// Hits and Misses count cache lookups; Evictions counts entries dropped
	// to keep the cache within its capacity.
	Hits, Misses, Evictions uint64
	// Entries is the resident entry count when the counters were captured.
	Entries int
	// Capacity is the configured bound.
	Capacity int
}

// HitRate returns the fraction of lookups served from the cache.
func (c CacheCounters) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Checkpoint is the resumable state of one synthesis run, written at
// generation boundaries. The engine snapshot carries the population; the
// surrounding fields pin the run identity so a checkpoint cannot silently
// resume a different problem or configuration.
type Checkpoint struct {
	Version int
	SavedAt time.Time
	// System is the specification's system name.
	System string
	// GenomeLen guards against resuming with a different problem instance.
	GenomeLen int
	// Seed is the run seed; resuming requires the same seed.
	Seed int64
	// Fingerprint captures the options that shaped the search; resuming
	// with different options would diverge from the interrupted run.
	Fingerprint string
	// RNGState is the Source position at the snapshot's generation
	// boundary.
	RNGState uint64
	// Snapshot is the GA engine state.
	Snapshot ga.Snapshot
	// Cache carries the fitness-cache counters across the interruption (the
	// cache contents themselves are recomputed, not persisted).
	Cache CacheCounters
	// Faults are the evaluation faults recorded so far, so the run-level
	// fault budget keeps counting across a resume.
	Faults []EvalFault
	// Metrics carries the cumulative observability metric state (counters,
	// phase histograms), so a resumed run's telemetry continues from the
	// interrupted run's totals. Empty when the run was not instrumented;
	// checkpoints written by older builds decode with it nil.
	Metrics []obs.MetricState
}

// Save writes the checkpoint atomically to the real filesystem; see SaveFS.
func Save(path string, cp *Checkpoint) error { return SaveFS(durable.OS{}, path, cp) }

// SaveFS encodes the checkpoint and writes it with durable.WriteAtomic on
// fsys, so a crash mid-write never corrupts an existing checkpoint and a
// crash right after the rename cannot lose the new one. Gob is used rather
// than JSON because population fitness values are legitimately +Inf for
// infeasible genomes, which JSON cannot represent.
func SaveFS(fsys durable.FS, path string, cp *Checkpoint) error {
	if cp.Version == 0 {
		cp.Version = Version
	}
	if cp.SavedAt.IsZero() {
		cp.SavedAt = time.Now()
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return fmt.Errorf("runctl: checkpoint encode: %w", err)
	}
	if err := durable.WriteAtomic(fsys, path, buf.Bytes()); err != nil {
		return fmt.Errorf("runctl: checkpoint: %w", err)
	}
	return nil
}

// Load reads and validates a checkpoint written by Save.
func Load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runctl: checkpoint: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("runctl: %s is not a checkpoint file: %w", path, err)
	}
	if string(head[:len(magic)-1]) != magic[:len(magic)-1] {
		return nil, fmt.Errorf("runctl: %s is not a checkpoint file", path)
	}
	if head[len(magic)-1] != magic[len(magic)-1] {
		return nil, fmt.Errorf("runctl: checkpoint %s has format version %d, this build reads version %d",
			path, head[len(magic)-1], magic[len(magic)-1])
	}
	cp := &Checkpoint{}
	if err := decode(br, cp); err != nil {
		return nil, fmt.Errorf("runctl: checkpoint %s is corrupt: %w", path, err)
	}
	if err := cp.validate(); err != nil {
		return nil, fmt.Errorf("runctl: checkpoint %s is corrupt: %w", path, err)
	}
	return cp, nil
}

// decode runs the gob decoder behind a recover barrier: a truncated or
// bit-flipped payload must surface as a diagnostic error, never a panic
// (gob is not fully hardened against hostile input).
func decode(r io.Reader, cp *Checkpoint) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("decode panicked: %v", p)
		}
	}()
	if err := gob.NewDecoder(r).Decode(cp); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// validate rejects structurally inconsistent state that gob-decoded
// cleanly — the last line of defence against resuming from garbage that a
// damaged payload happened to deserialise into.
func (cp *Checkpoint) validate() error {
	if cp.Version != Version {
		return fmt.Errorf("version %d unsupported (want %d)", cp.Version, Version)
	}
	s := &cp.Snapshot
	if len(s.Population) == 0 {
		return fmt.Errorf("empty population")
	}
	if cp.GenomeLen <= 0 {
		return fmt.Errorf("genome length %d", cp.GenomeLen)
	}
	if len(s.Fitness) != len(s.Population) {
		return fmt.Errorf("%d fitness values for %d individuals", len(s.Fitness), len(s.Population))
	}
	for i, g := range s.Population {
		if len(g) != cp.GenomeLen {
			return fmt.Errorf("individual %d has %d loci, genome length is %d", i, len(g), cp.GenomeLen)
		}
	}
	if n := len(s.BestGenome); n != 0 && n != cp.GenomeLen {
		return fmt.Errorf("best genome has %d loci, genome length is %d", n, cp.GenomeLen)
	}
	if s.Generation < 0 || s.Evaluations < 0 || s.Stagnant < 0 || s.Restarts < 0 {
		return fmt.Errorf("negative progress counters (gen=%d evals=%d stagnant=%d restarts=%d)",
			s.Generation, s.Evaluations, s.Stagnant, s.Restarts)
	}
	return nil
}
