package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// stringCases need every escape AppendString writes, and its fast path.
var stringCases = []string{
	"", "j000001", "plain ascii ~ !#$%'()*+,-./:;=?@[]^_`{|}", "quote\"", "back\\slash",
	"<html>", "a&b", "tab\t", "nl\n", "cr\r", "\b\f", "\x00\x1f\x7f", "é", "  ", "\xff\xfe",
	"mixed <é\xff>", "line\u2028sep\u2029para", "\xe2\x80", "\xed\xa0\x80 surrogate", "日本語 \U0001F600",
	"system s\n\npe cpu class=gpp vmax=3.3 vt=0.8\n",
}

// TestAppendJSONStringMatchesMarshal pins AppendString to json.Marshal of
// a string, escapes and fast path alike.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	for _, s := range stringCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

// FuzzAppendJSONString checks AppendString against json.Marshal on
// arbitrary bytes, valid UTF-8 or not.
//
//	go test -run '^$' -fuzz '^FuzzAppendJSONString$' -fuzztime 10s ./internal/jsonw
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range stringCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	})
}

// TestAppendFloatMatchesMarshal pins AppendFloat to json.Marshal of a
// float64 around both format switches, and its refusal of ±Inf and NaN.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.0006000000000000001, 1e-6, 9.999999999999999e-7,
		-1e-7, 1e-300, 5e-324, 1e20, 1e21, -1e21, 123456789012345678901234.0, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 3.3, 2.5e-5, 1e-10, 123.456,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) encoded an unsupported value", f)
		}
	}
}

// TestWriterMatchesMarshalIndent lays out nested objects and arrays,
// empty ones included, with and without a prefix, against
// json.MarshalIndent.
func TestWriterMatchesMarshalIndent(t *testing.T) {
	type inner struct {
		A []int        `json:"a"`
		B struct{}     `json:"b"`
		C []struct{}   `json:"c"`
		D []string     `json:"d"`
		E map[int]bool `json:"e"`
	}
	type doc struct {
		N     int64   `json:"n"`
		F     float64 `json:"f"`
		S     string  `json:"s"`
		In    inner   `json:"in"`
		Empty []int   `json:"empty"`
	}
	v := doc{N: -7, F: 2.5e-7, S: "<x>", In: inner{A: []int{1, 2}, C: []struct{}{{}}, D: []string{}}, Empty: []int{}}
	for _, prefix := range []string{"", "  "} {
		want, err := json.MarshalIndent(&v, prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		w := Writer{Prefix: prefix}
		w.Open('{')
		w.Field("n")
		w.Int(v.N)
		w.Field("f")
		w.Float(v.F)
		w.Field("s")
		w.String(v.S)
		w.Field("in")
		w.Open('{')
		w.Field("a")
		w.Open('[')
		for _, x := range v.In.A {
			w.Elem()
			w.Int(int64(x))
		}
		w.Close(']')
		w.Field("b")
		w.Open('{')
		w.Close('}')
		w.Field("c")
		w.Open('[')
		w.Elem()
		w.Open('{')
		w.Close('}')
		w.Close(']')
		w.Field("d")
		w.Open('[')
		w.Close(']')
		w.Field("e")
		w.B = append(w.B, "null"...)
		w.Close('}')
		w.Field("empty")
		w.Open('[')
		w.Close(']')
		w.Close('}')
		if w.Err != nil || !bytes.Equal(w.B, want) {
			t.Fatalf("prefix %q: Writer wrote (err %v)\n%s\nwant\n%s", prefix, w.Err, w.B, want)
		}
	}
	var w Writer
	w.Float(math.NaN())
	w.Float(1)
	if w.Err == nil || !strings.HasSuffix(string(w.B), "1") {
		t.Fatalf("Writer.Float: err %v after NaN, bytes %q", w.Err, w.B)
	}
}
