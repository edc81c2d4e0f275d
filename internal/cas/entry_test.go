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
	"reflect"
	"testing"
)

// strictEntry is an entry file as encoding/json reads it.
type strictEntry struct {
	Schema       int             `json:"schema"`
	Key          string          `json:"key"`
	System       string          `json:"system"`
	Provenance   Provenance      `json:"provenance"`
	ResultSHA256 string          `json:"result_sha256"`
	Result       json.RawMessage `json:"result"`
}

// decodeEntryStrict is the reference reader of an entry file: a strict
// encoding/json decode (unknown fields and trailing data refused) and the
// checks Get makes, the digest included. Get never runs it; every entry
// Put writes must pass it and decode to the entry Get returns.
func decodeEntryStrict(data []byte, key string) (*Entry, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e strictEntry
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
	sum := sha256.Sum256(e.Result)
	if hex.EncodeToString(sum[:]) != e.ResultSHA256 {
		return nil, errors.New("result does not match result_sha256")
	}
	return &Entry{Schema: e.Schema, Key: e.Key, System: e.System, Provenance: e.Provenance, Result: e.Result}, nil
}

// TestPutEntriesDecodeStrictly: every entry Put writes is one JSON
// document that the strict reference reader accepts, and it decodes to
// the entry Get returns, the result bytes verbatim (less surrounding
// whitespace), labels with invalid UTF-8 as they read back.
func TestPutEntriesDecodeStrictly(t *testing.T) {
	s, err := Open(t.TempDir(), 0, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	results := []string{
		`{"payload":"x"}`,
		"{\n  \"id\": \"j000001\",\n  \"state\": \"done\",\n  \"avg_power\": 0.0006000000000000001\n}",
		` [1, 2, {"a": null}] `,
		`"just a string"`,
	}
	for i, result := range results {
		for _, commit := range []string{"", "0123abc"} {
			key := Key([]byte(fmt.Sprintf("strict-%d-%s", i, commit)))
			in := &Entry{Key: key, System: "odd <sys> & \"q\" \\ \t\n é \xff  ",
				Provenance: Provenance{EngineVersion: "momosyn-synth/9", Commit: commit, Certified: i%2 == 0},
				Result:     json.RawMessage(result)}
			if err := s.Put(in); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(s.entryPath(key))
			if err != nil {
				t.Fatal(err)
			}
			want, err := decodeEntryStrict(data, key)
			if err != nil {
				t.Fatalf("entry %d: the strict reader refuses what Put wrote: %v\n%s", i, err, data)
			}
			got, ok := s.Get(key)
			if !ok {
				t.Fatalf("entry %d: Get refuses what Put wrote:\n%s", i, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("entry %d: Get returned %+v, the strict reader %+v", i, got, want)
			}
			if !bytes.Equal(got.Result, bytes.TrimSpace([]byte(result))) {
				t.Fatalf("entry %d: result %q, want the published bytes %q", i, got.Result, result)
			}
		}
	}
}

// TestSchema1EntryEvictedOnce: an entry as schema 1 wrote it (the whole
// entry through json.MarshalIndent, no digest) is corrupt to this schema:
// the first Get evicts it, and the key publishes and serves afresh.
func TestSchema1EntryEvictedOnce(t *testing.T) {
	var m testMetrics
	s, err := Open(t.TempDir(), 0, m.metrics())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("schema-1"))
	old := testEntry(key, "old")
	old.Schema = 1
	data, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("served a schema-1 entry")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) || m.corrupt.value() != 1 {
		t.Fatalf("schema-1 entry not evicted once (stat %v, corrupt %d)", err, m.corrupt.value())
	}
	if err := s.Put(testEntry(key, "new")); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(key); !ok || e.Schema != SchemaVersion {
		t.Fatalf("republished entry: hit %v", ok)
	}
}

// serverResult is a result document as mmserved publishes it, cut down
// to a few slots: every kind of value it holds (strings, ints, floats in
// both formats, booleans, a sorted mapping, the certificate) is here.
const serverResult = `{
  "id": "j000001",
  "state": "done",
  "system": "mul1",
  "seed": 3,
  "dvs": false,
  "avg_power": 0.0006000000000000001,
  "objective_power": 0.0006000000000000001,
  "feasible": true,
  "generations": 5,
  "evaluations": 12,
  "elapsed": "4ms",
  "modes": [
    {
      "name": "m0",
      "prob": 0.6,
      "period": 0.025,
      "makespan": 0.0187,
      "dynamic_power": 0.0004,
      "static_power": 2e-7,
      "weighted_power": 0.00024,
      "schedule": [
        {
          "task": "t0",
          "pe": "cpu0",
          "start": 0,
          "finish": 0.0031,
          "energy": 1.5e-7
        },
        {
          "task": "t1",
          "pe": "asic1",
          "start": 0.0031,
          "finish": 0.0187,
          "energy": 4e-6
        }
      ]
    }
  ],
  "mapping": [
    {
      "mode": "m0",
      "tasks": {
        "t0": "cpu0",
        "t1": "asic1"
      }
    }
  ],
  "certification": {
    "certified": true,
    "checks": 118,
    "claim_feasible": true
  }
}`

// TestSingleBitFlipsNeverServeAlteredResult flips every bit of every byte
// of a server-shaped entry and reads each variant as Get does. No variant
// may come back with a result other than the published bytes, or with
// another key, schema or certification. The only variants read at all
// are flips that leave a provenance label (system, engine version) a
// different valid string: those labels are not part of any served
// document, and the result under them is the published one.
func TestSingleBitFlipsNeverServeAlteredResult(t *testing.T) {
	key := Key([]byte("server-shaped"))
	in := &Entry{Schema: SchemaVersion, Key: key, System: "mul1",
		Provenance: Provenance{EngineVersion: "momosyn-synth/5", Certified: true},
		Result:     json.RawMessage(serverResult)}
	pristine, err := encodeEntry(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseEntry(pristine, key); err != nil {
		t.Fatal(err)
	}
	// The byte ranges of the two label values, quotes excluded.
	labels := make([][2]int, 0, 2)
	for _, v := range []string{`"system": "mul1"`, `"engine_version": "momosyn-synth/5"`} {
		i := bytes.Index(pristine, []byte(v))
		start := i + bytes.IndexByte([]byte(v), ' ') + 2
		labels = append(labels, [2]int{start, i + len(v) - 1})
	}
	inLabel := func(pos int) bool {
		for _, r := range labels {
			if pos >= r[0] && pos < r[1] {
				return true
			}
		}
		return false
	}
	variant := make([]byte, len(pristine))
	read := 0
	for pos := range pristine {
		for bit := 0; bit < 8; bit++ {
			copy(variant, pristine)
			variant[pos] ^= 1 << bit
			e, err := parseEntry(variant, key)
			if err != nil {
				continue
			}
			if !inLabel(pos) {
				t.Fatalf("flip of bit %d at byte %d (%q) was read as a valid entry", bit, pos, pristine[pos])
			}
			if !bytes.Equal(e.Result, []byte(serverResult)) || e.Key != key || e.Schema != SchemaVersion || !e.Provenance.Certified {
				t.Fatalf("flip of bit %d at byte %d altered the entry read: %+v", bit, pos, e)
			}
			read++
		}
	}
	t.Logf("%d single-bit variants of a %d-byte entry; %d label flips read with the published result, the rest refused",
		8*len(pristine), len(pristine), read)
}
