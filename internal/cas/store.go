package cas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"momosyn/internal/durable"
)

// SchemaVersion is the on-disk entry schema. Entries written under a
// different schema are treated as corrupt on read — evicted and
// re-synthesized, never served.
const SchemaVersion = 1

const (
	entryExt = ".json"
	// atime sidecars carry LRU recency as their mtime: POSIX atime is
	// unreliable (relatime, noatime mounts), so Get touches an empty
	// sidecar file instead. Sidecars are advisory — losing one merely
	// ages its entry toward eviction.
	atimeExt = ".atime"
)

// Provenance records where a cached result came from, for auditability
// and invalidation: EngineVersion participates in the key, so a version
// bump orphans old entries (they age out via LRU) rather than serving
// results from a different engine.
type Provenance struct {
	EngineVersion string `json:"engine_version"`
	Commit        string `json:"commit,omitempty"`
	Certified     bool   `json:"certified"`
}

// Entry is one cached certified result.
type Entry struct {
	Schema     int             `json:"schema"`
	Key        string          `json:"key"`
	System     string          `json:"system"`
	Provenance Provenance      `json:"provenance"`
	Result     json.RawMessage `json:"result"`
}

// Counter is an incrementable metric hook; *obs.Counter satisfies it.
type Counter interface{ Inc() }

// Metrics are the store's observability hooks; nil fields are ignored.
type Metrics struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
	Corrupt   Counter
}

func inc(c Counter) {
	if c != nil {
		c.Inc()
	}
}

// Store is an on-disk content-addressed result store rooted at one
// directory. Multiple Stores (across processes and fleet nodes) may
// share the directory concurrently.
type Store struct {
	dir      string
	maxBytes int64
	metrics  Metrics
	// fs carries every durable write (tests swap in chaosfs).
	fs durable.FS

	// evictMu serialises in-process eviction scans; cross-process races
	// are benign (both nodes remove cold entries, removal of an
	// already-removed file is ignored).
	evictMu sync.Mutex
}

// Open creates or reopens a store rooted at dir. maxBytes caps the total
// size of entry files; 0 means unbounded.
func Open(dir string, maxBytes int64, metrics Metrics) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cas: empty store directory")
	}
	s := &Store{dir: dir, maxBytes: maxBytes, metrics: metrics, fs: durable.OS{}}
	if err := durable.Mkdir(s.fs, dir); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+entryExt)
}

// Get returns the entry under key, or (nil, false) on a miss. Entries
// that fail validation — wrong schema, key mismatch, undecodable result —
// are evicted on the spot and reported as corrupt, so a damaged cache
// degrades to re-synthesis, never to serving bad bytes.
func (s *Store) Get(key string) (*Entry, bool) {
	if !ValidKey(key) {
		inc(s.metrics.Misses)
		return nil, false
	}
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		inc(s.metrics.Misses)
		return nil, false
	}
	e, err := decodeEntry(data, key)
	if err != nil {
		s.evictCorrupt(path)
		inc(s.metrics.Corrupt)
		inc(s.metrics.Misses)
		return nil, false
	}
	s.touch(key)
	inc(s.metrics.Hits)
	return e, true
}

// Discard removes the entry under key and its sidecar, and counts it as
// corrupt, as Get does for an entry that fails to decode. It is for an
// entry Get served that the caller then found unusable: left in place, it
// would shadow every later Put of the key, since a Put loses the link race
// to an existing entry. Best-effort, like Get's eviction.
func (s *Store) Discard(key string) {
	if !ValidKey(key) {
		return
	}
	s.evictCorrupt(s.entryPath(key))
	inc(s.metrics.Corrupt)
}

// decodeEntry strictly decodes and validates one entry file against the
// key it was looked up under.
func decodeEntry(data []byte, key string) (*Entry, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e Entry
	if err := dec.Decode(&e); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after entry")
	}
	if e.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %d, want %d", e.Schema, SchemaVersion)
	}
	if e.Key != key {
		return nil, fmt.Errorf("entry key %q under file key %q", e.Key, key)
	}
	if e.Provenance.EngineVersion == "" {
		return nil, errors.New("missing engine version")
	}
	// The Decoder has already checked the whole value's syntax, the
	// RawMessage included, so only an absent result is left to reject.
	if len(e.Result) == 0 {
		return nil, errors.New("invalid result document")
	}
	return &e, nil
}

// evictCorrupt removes a damaged entry and its sidecar. Best-effort: a
// concurrent fleet node may have removed them already.
func (s *Store) evictCorrupt(path string) {
	os.Remove(path)
	os.Remove(atimePath(path))
}

func atimePath(entryPath string) string {
	return entryPath[:len(entryPath)-len(entryExt)] + atimeExt
}

// touch refreshes the entry's LRU recency sidecar. Best-effort and
// unfsynced: recency is advisory, losing a touch only ages the entry.
func (s *Store) touch(key string) {
	side := atimePath(s.entryPath(key))
	now := time.Now()
	if err := os.Chtimes(side, now, now); err != nil {
		if f, err := os.OpenFile(side, os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			f.Close()
		}
	}
}

// Put publishes an entry with durable.LinkPublish, which is crash-safe and
// race-free across fleet nodes: link never exposes partial content, and a
// concurrent publish of the same key simply loses the link race — content
// under a key is deterministic, so the loser's bytes are identical and
// discarded. A successful Put then enforces the size cap.
func (s *Store) Put(e *Entry) error {
	if e.Schema == 0 {
		e.Schema = SchemaVersion
	}
	if !ValidKey(e.Key) {
		return fmt.Errorf("cas: invalid key %q", e.Key)
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	data = append(data, '\n')
	if _, err := decodeEntry(data, e.Key); err != nil {
		return fmt.Errorf("cas: refusing to publish invalid entry: %w", err)
	}
	path := s.entryPath(e.Key)
	if err := durable.Mkdir(s.fs, filepath.Dir(path)); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	if err := durable.LinkPublish(s.fs, path, data); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	s.touch(e.Key)
	s.evict()
	return nil
}

type entryInfo struct {
	path    string
	size    int64
	recency time.Time
}

// evict enforces the size cap: while the summed size of entry files
// exceeds maxBytes, the least-recently-used entry (by sidecar mtime,
// falling back to the entry's own mtime) is removed. Best-effort — an
// unreadable bucket or a concurrently removed file is skipped.
func (s *Store) evict() {
	if s.maxBytes <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	entries, total := s.scan()
	if total <= s.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].recency.Before(entries[j].recency)
	})
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err == nil {
			inc(s.metrics.Evictions)
		}
		os.Remove(atimePath(e.path))
		total -= e.size
	}
}

// scan walks the store and returns every entry file with its size and
// LRU recency, plus the total entry size.
func (s *Store) scan() ([]entryInfo, int64) {
	var entries []entryInfo
	var total int64
	buckets, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0
	}
	for _, b := range buckets {
		if !b.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, b.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != entryExt {
				continue
			}
			path := filepath.Join(s.dir, b.Name(), f.Name())
			info, err := f.Info()
			if err != nil {
				continue
			}
			recency := info.ModTime()
			if side, err := os.Stat(atimePath(path)); err == nil {
				recency = side.ModTime()
			}
			entries = append(entries, entryInfo{path: path, size: info.Size(), recency: recency})
			total += info.Size()
		}
	}
	return entries, total
}
