package cas

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
)

func TestKeyShape(t *testing.T) {
	k := Key([]byte("spec"), []byte("opts"))
	if !ValidKey(k) {
		t.Fatalf("Key produced an invalid key %q", k)
	}
	if k != Key([]byte("spec"), []byte("opts")) {
		t.Fatal("Key is not deterministic")
	}
	for _, bad := range []string{"", "zz", strings.Repeat("g", 64), strings.ToUpper(k), k + "00", k[:63]} {
		if ValidKey(bad) {
			t.Errorf("ValidKey accepted %q", bad)
		}
	}
}

// TestKeyLengthPrefixed pins the anti-collision property: moving a byte
// across the part boundary must change the key.
func TestKeyLengthPrefixed(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("part boundary does not participate in the key")
	}
	if Key([]byte("abc")) == Key([]byte("abc"), nil) {
		t.Fatal("empty trailing part does not participate in the key")
	}
}

type countingMetric struct {
	mu sync.Mutex
	n  int
}

func (c *countingMetric) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *countingMetric) value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

type testMetrics struct {
	hits, misses, evictions, corrupt countingMetric
}

func (m *testMetrics) metrics() Metrics {
	return Metrics{Hits: &m.hits, Misses: &m.misses, Evictions: &m.evictions, Corrupt: &m.corrupt}
}

func testEntry(key, payload string) *Entry {
	return &Entry{
		Schema:     SchemaVersion,
		Key:        key,
		System:     "sys",
		Provenance: Provenance{EngineVersion: "momosyn-synth/1", Certified: true},
		Result:     json.RawMessage(fmt.Sprintf(`{"payload":%q}`, payload)),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	var m testMetrics
	s, err := Open(t.TempDir(), 0, m.metrics())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("round-trip"))
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if m.misses.value() != 1 {
		t.Fatalf("misses = %d, want 1", m.misses.value())
	}
	if err := s.Put(testEntry(key, "hello")); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if e.System != "sys" || !e.Provenance.Certified {
		t.Fatalf("entry lost fields: %+v", e)
	}
	var payload struct{ Payload string }
	if err := json.Unmarshal(e.Result, &payload); err != nil || payload.Payload != "hello" {
		t.Fatalf("result payload = %q, %v", payload.Payload, err)
	}
	if m.hits.value() != 1 || m.corrupt.value() != 0 {
		t.Fatalf("hits = %d corrupt = %d, want 1, 0", m.hits.value(), m.corrupt.value())
	}
	// The entry lives at <dir>/<key[:2]>/<key>.json.
	if _, err := os.Stat(filepath.Join(s.Dir(), key[:2], key+".json")); err != nil {
		t.Fatalf("entry not at the documented path: %v", err)
	}
}

func TestStoreRejectsInvalidKeyAndEntry(t *testing.T) {
	s, err := Open(t.TempDir(), 0, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("../../etc/passwd"); ok {
		t.Fatal("malformed key hit")
	}
	if err := s.Put(testEntry("short", "x")); err == nil {
		t.Fatal("Put accepted an invalid key")
	}
	bad := testEntry(Key([]byte("k")), "x")
	bad.Result = json.RawMessage("{truncated")
	if err := s.Put(bad); err == nil {
		t.Fatal("Put accepted an invalid result document")
	}
	bad = testEntry(Key([]byte("k")), "x")
	bad.Provenance.EngineVersion = ""
	if err := s.Put(bad); err == nil {
		t.Fatal("Put accepted an entry without engine version")
	}
}

// TestStoreCorruptionSweep flips every byte position (stride 7) and
// truncates the entry at every length (stride 11), proving each damaged
// variant is evicted and never served, and that the slot re-fills cleanly.
func TestStoreCorruptionSweep(t *testing.T) {
	var m testMetrics
	s, err := Open(t.TempDir(), 0, m.metrics())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("sweep"))
	if err := s.Put(testEntry(key, "sweep-payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key[:2], key+".json")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var variants [][]byte
	for i := 0; i < len(pristine); i += 7 {
		v := append([]byte(nil), pristine...)
		v[i] ^= 0xff
		variants = append(variants, v)
	}
	for n := 0; n < len(pristine); n += 11 {
		variants = append(variants, append([]byte(nil), pristine[:n]...))
	}

	served := 0
	for i, v := range variants {
		if err := os.WriteFile(path, v, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := s.Get(key)
		if ok {
			// A flip inside the free-form payload string can survive
			// validation — that is fine (content-addressing covers the
			// inputs, not the stored bytes) as long as the entry is
			// structurally valid and correctly keyed.
			if e.Key != key || e.Schema != SchemaVersion || !json.Valid(e.Result) {
				t.Fatalf("variant %d: served a structurally invalid entry", i)
			}
			served++
			continue
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("variant %d: corrupt entry not evicted (stat err %v)", i, err)
		}
		// The slot must re-fill and serve again.
		if err := s.Put(testEntry(key, "sweep-payload")); err != nil {
			t.Fatalf("variant %d: re-publish after eviction: %v", i, err)
		}
		if _, ok := s.Get(key); !ok {
			t.Fatalf("variant %d: miss after re-publish", i)
		}
	}
	if m.corrupt.value() == 0 {
		t.Fatal("sweep never tripped the corrupt counter")
	}
	if served > len(variants)/2 {
		t.Fatalf("%d/%d damaged variants served — validation is too loose", served, len(variants))
	}
	t.Logf("sweep: %d variants, %d benign payload flips served, %d evicted as corrupt",
		len(variants), served, m.corrupt.value())
}

func TestStoreSchemaMismatchEvicted(t *testing.T) {
	var m testMetrics
	s, err := Open(t.TempDir(), 0, m.metrics())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("schema"))
	if err := s.Put(testEntry(key, "x")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), key[:2], key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), `"schema": 1`, `"schema": 99`, 1)
	if stale == string(data) {
		t.Fatal("schema field not found in entry encoding")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("served an entry with a future schema")
	}
	if m.corrupt.value() != 1 {
		t.Fatalf("corrupt = %d, want 1", m.corrupt.value())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("stale-schema entry not evicted")
	}
}

// TestStoreLRUEviction fills the store past its cap and proves the
// least-recently-used entries go first: the oldest entry survives because
// a Get refreshed it, while untouched middle entries are evicted.
func TestStoreLRUEviction(t *testing.T) {
	var m testMetrics
	entrySize := len(mustEncode(t, testEntry(Key([]byte("probe")), "payload-0")))
	// Room for ~3 entries.
	s, err := Open(t.TempDir(), int64(3*entrySize+entrySize/2), m.metrics())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = Key([]byte(fmt.Sprintf("lru-%d", i)))
	}
	if err := s.Put(testEntry(keys[0], "payload-0")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // sidecar mtimes order the LRU scan
	if err := s.Put(testEntry(keys[1], "payload-1")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Put(testEntry(keys[2], "payload-2")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, ok := s.Get(keys[0]); !ok { // refresh: keys[0] is now the hottest
		t.Fatal("premature eviction")
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Put(testEntry(keys[3], "payload-3")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.Put(testEntry(keys[4], "payload-4")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[0]); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Error("least recently used entry survived")
	}
	if _, ok := s.Get(keys[4]); !ok {
		t.Error("just-written entry was evicted")
	}
	if m.evictions.value() == 0 {
		t.Error("size cap never tripped the eviction counter")
	}
}

func mustEncode(t *testing.T, e *Entry) []byte {
	t.Helper()
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestStoreConcurrentPublish races publishers and readers of one key
// across two Store handles sharing a directory (the fleet topology);
// every read must observe a complete valid entry.
func TestStoreConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, 0, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("race"))
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 8; i++ {
		store := a
		if i%2 == 1 {
			store = b
		}
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if err := s.Put(testEntry(key, "race-payload")); err != nil {
					errc <- err
					return
				}
				if e, ok := s.Get(key); ok {
					var payload struct{ Payload string }
					if err := json.Unmarshal(e.Result, &payload); err != nil || payload.Payload != "race-payload" {
						errc <- fmt.Errorf("torn read: %q %v", e.Result, err)
						return
					}
				}
			}
		}(store)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if _, ok := a.Get(key); !ok {
		t.Fatal("entry missing after concurrent publish")
	}
}

// TestPutSyncsDirAfterLink checks the publish order against the chaosfs
// journal: the synced temp is written, linked to the entry name, and only
// then is the bucket directory fsynced.
func TestPutSyncsDirAfterLink(t *testing.T) {
	s, err := Open(t.TempDir(), 0, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	cfs := chaosfs.New(durable.OS{})
	s.fs = cfs
	key := Key([]byte("ordered"))
	if err := s.Put(testEntry(key, "payload")); err != nil {
		t.Fatal(err)
	}
	bucket := regexp.QuoteMeta(filepath.Dir(s.entryPath(key)))
	if err := cfs.InOrder(
		chaosfs.Step{Op: chaosfs.OpWrite, Path: regexp.MustCompile(bucket + `/\.` + key + `\.json\.tmp\d+\.\d+$`)},
		chaosfs.Step{Op: chaosfs.OpLink, Path: regexp.MustCompile(bucket + `/` + key + `\.json$`)},
		chaosfs.Step{Op: chaosfs.OpSyncDir, Path: regexp.MustCompile(bucket + `$`)},
	); err != nil {
		t.Fatal(err)
	}
}

// TestScanIgnoresLeftoverTemps crashes a publish between the temp write
// and the link, leaving a synced temp that holds a complete entry: the
// size scan must see the same entries, and eviction under a cap that
// exactly fits them must remove nothing.
func TestScanIgnoresLeftoverTemps(t *testing.T) {
	var m testMetrics
	s, err := Open(t.TempDir(), 0, m.metrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Put(testEntry(Key([]byte(fmt.Sprintf("kept-%d", i))), "payload")); err != nil {
			t.Fatal(err)
		}
	}
	wantEntries, wantTotal := s.scan()

	cfs := chaosfs.New(durable.OS{})
	cfs.Inject(chaosfs.Rule{Op: chaosfs.OpLink, Kind: chaosfs.KindCrash})
	s.fs = cfs
	crashed := Key([]byte("crashed"))
	if err := s.Put(testEntry(crashed, "payload")); !errors.Is(err, chaosfs.ErrCrashed) {
		t.Fatalf("Put under crash = %v, want ErrCrashed", err)
	}
	if names, _ := os.ReadDir(filepath.Dir(s.entryPath(crashed))); len(names) == 0 {
		t.Fatal("the crash left no temp behind")
	}

	gotEntries, gotTotal := s.scan()
	if !reflect.DeepEqual(gotEntries, wantEntries) || gotTotal != wantTotal {
		t.Fatalf("scan with a leftover temp = %v (%d bytes), want %v (%d bytes)", gotEntries, gotTotal, wantEntries, wantTotal)
	}
	s.maxBytes = wantTotal
	s.evict()
	if n := m.evictions.value(); n != 0 {
		t.Fatalf("eviction under a cap that fits every entry removed %d", n)
	}
}
