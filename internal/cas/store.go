package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"momosyn/internal/durable"
	"momosyn/internal/jsonw"
)

// SchemaVersion is the on-disk entry schema. Entries written under a
// different schema are treated as corrupt on read — evicted and
// re-synthesized, never served. Schema 2 embeds the result document
// verbatim after its SHA-256 (result_sha256), so a read checks the digest
// instead of parsing the result.
const SchemaVersion = 2

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

// Open creates or reopens a store rooted at dir on the real filesystem.
// maxBytes caps the total size of entry files; 0 means unbounded.
func Open(dir string, maxBytes int64, metrics Metrics) (*Store, error) {
	return OpenFS(durable.OS{}, dir, maxBytes, metrics)
}

// OpenFS is Open on fsys: every entry read, publish and eviction goes
// through it (the server passes its own filesystem, so tests can inject
// faults into cache publishes and count their fsyncs). LRU sidecars stay
// on the real filesystem: they are advisory and never synced.
func OpenFS(fsys durable.FS, dir string, maxBytes int64, metrics Metrics) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cas: empty store directory")
	}
	s := &Store{dir: dir, maxBytes: maxBytes, metrics: metrics, fs: fsys}
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

// Get returns the entry under key, or (nil, false) on a miss. An entry
// is served only when its header is exactly what Put writes for the
// values it holds (no unknown, missing, reordered or re-spaced field), its
// schema is SchemaVersion, its key is the file's, it names an engine
// version, its result hashes to result_sha256 and nothing follows the
// document. Any other entry is evicted on the spot and counted as
// corrupt, so a damaged cache degrades to re-synthesis, never to serving
// bad bytes. The result itself is never parsed.
func (s *Store) Get(key string) (*Entry, bool) {
	if !ValidKey(key) {
		inc(s.metrics.Misses)
		return nil, false
	}
	path := s.entryPath(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		inc(s.metrics.Misses)
		return nil, false
	}
	e, err := parseEntry(data, key)
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
// corrupt, as Get does for an entry that fails validation. It is for an
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

// The schema-2 entry file is
//
//	{
//	  "schema": 2,
//	  "key": "<key>",
//	  "system": "<system>",
//	  "provenance": {
//	    "engine_version": "<version>",
//	    "commit": "<commit>",
//	    "certified": true
//	  },
//	  "result_sha256": "<hex SHA-256 of the result bytes>",
//	  "result": <the result document, verbatim>
//	}
//
// with a final newline; commit is left out when empty. The header is
// everything before resultSep, in json.MarshalIndent's layout.
const (
	resultSep = ",\n  \"result\": "
	entryEnd  = "\n}\n"
)

// entryHeader is the decoded header of an entry file.
type entryHeader struct {
	Schema       int        `json:"schema"`
	Key          string     `json:"key"`
	System       string     `json:"system"`
	Provenance   Provenance `json:"provenance"`
	ResultSHA256 string     `json:"result_sha256"`
}

// appendHeader appends the header of an entry whose result hashes to
// digest (hex), up to resultSep.
func appendHeader(b []byte, e *Entry, digest string) []byte {
	w := jsonw.Writer{B: b}
	w.Open('{')
	w.Field("schema")
	w.Int(int64(e.Schema))
	w.Field("key")
	w.String(e.Key)
	w.Field("system")
	w.String(e.System)
	w.Field("provenance")
	w.Open('{')
	w.Field("engine_version")
	w.String(e.Provenance.EngineVersion)
	if e.Provenance.Commit != "" {
		w.Field("commit")
		w.String(e.Provenance.Commit)
	}
	w.Field("certified")
	w.Bool(e.Provenance.Certified)
	w.Close('}')
	w.Field("result_sha256")
	w.String(digest)
	return w.B
}

// encodeEntry renders e as its entry file, refusing what Get would refuse:
// another schema, an invalid key, a missing engine version, or a result
// that is not one valid JSON document. json.Valid is the only scan of the
// result on publish. The result is stored verbatim, less any whitespace
// around it.
func encodeEntry(e *Entry) ([]byte, error) {
	switch {
	case e.Schema != SchemaVersion:
		return nil, fmt.Errorf("schema %d, want %d", e.Schema, SchemaVersion)
	case !ValidKey(e.Key):
		return nil, fmt.Errorf("invalid key %q", e.Key)
	case e.Provenance.EngineVersion == "":
		return nil, errors.New("missing engine version")
	case !json.Valid(e.Result):
		return nil, errors.New("invalid result document")
	}
	// A label is stored as it reads back: each byte of invalid UTF-8 as
	// U+FFFD, so the header re-encodes to itself.
	h := *e
	h.Result = bytes.TrimSpace(e.Result) // json.Valid: only JSON whitespace
	h.System = validUTF8(h.System)
	h.Provenance.EngineVersion = validUTF8(h.Provenance.EngineVersion)
	h.Provenance.Commit = validUTF8(h.Provenance.Commit)
	sum := sha256.Sum256(h.Result)
	data := appendHeader(make([]byte, 0, 512+len(h.Result)), &h, hex.EncodeToString(sum[:]))
	data = append(data, resultSep...)
	data = append(data, h.Result...)
	return append(data, entryEnd...), nil
}

// validUTF8 replaces each byte of invalid UTF-8 in s with U+FFFD, as
// encoding/json does when it decodes the string's encoding.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// parseEntry validates one entry file against the key it was looked up
// under and returns it, its Result aliasing data. The header is decoded
// and must re-encode to the same bytes; the result is only hashed.
func parseEntry(data []byte, key string) (*Entry, error) {
	sep := bytes.Index(data, []byte(resultSep))
	if sep < 0 || !bytes.HasSuffix(data[sep:], []byte(entryEnd)) {
		return nil, errors.New("not a schema-2 entry")
	}
	head := data[:sep]
	var h entryHeader
	dec := json.NewDecoder(bytes.NewReader(append(head[:len(head):len(head)], '}')))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return nil, err
	}
	e := &Entry{Schema: h.Schema, Key: h.Key, System: h.System, Provenance: h.Provenance}
	switch {
	case h.Schema != SchemaVersion:
		return nil, fmt.Errorf("schema %d, want %d", h.Schema, SchemaVersion)
	case h.Key != key:
		return nil, fmt.Errorf("entry key %q under file key %q", h.Key, key)
	case h.Provenance.EngineVersion == "":
		return nil, errors.New("missing engine version")
	case !bytes.Equal(appendHeader(make([]byte, 0, len(head)), e, h.ResultSHA256), head):
		return nil, errors.New("entry header is not in its canonical form")
	}
	e.Result = data[sep+len(resultSep) : len(data)-len(entryEnd)]
	sum := sha256.Sum256(e.Result)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	if string(digest[:]) != h.ResultSHA256 {
		return nil, errors.New("result does not match result_sha256")
	}
	return e, nil
}

// evictCorrupt removes a damaged entry and its sidecar. Best-effort: a
// concurrent fleet node may have removed them already.
func (s *Store) evictCorrupt(path string) {
	_ = s.fs.Remove(path)
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
// discarded. A successful Put then enforces the size cap. The result is
// stored verbatim; a zero Schema means SchemaVersion.
func (s *Store) Put(e *Entry) error {
	if e.Schema == 0 {
		e.Schema = SchemaVersion
	}
	data, err := encodeEntry(e)
	if err != nil {
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
