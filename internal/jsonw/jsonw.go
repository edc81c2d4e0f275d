// Package jsonw appends JSON documents by hand in exactly the bytes
// encoding/json writes: AppendString escapes a string as json.Marshal
// does (HTML-safe), AppendFloat formats a float64 as json.Marshal does,
// and Writer lays members out as json.MarshalIndent does. The service
// path writes its documents with it so that no reflection or re-indenting
// pass runs per request; the tests keep encoding/json as the reference.
package jsonw

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// safe reports the ASCII bytes encoding/json copies into a string as they
// are: printable ASCII (DEL included) except '"', '\\', '<', '>' and '&'.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as encoding/json encodes a string with HTML
// escaping: '"' and '\\' backslash-escaped; '\b', '\f', '\n', '\r' and
// '\t' by name; other control bytes and '<', '>', '&' as \u00XX; U+2028
// and U+2029 as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ErrUnsupportedFloat is AppendFloat's error for ±Inf and NaN, which
// encoding/json refuses to encode as numbers.
var ErrUnsupportedFloat = errors.New("jsonw: unsupported float value (Inf or NaN)")

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with the
// exponent's leading zero trimmed (e-07 → e-7).
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, ErrUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Writer appends one document in json.MarshalIndent's layout with a
// two-space indent: every member and element on a line of its own after
// Prefix and one indent per level, and an empty object or array as {} or
// []. The first line carries no prefix, as with MarshalIndent. Values are
// appended to B after Field or Elem; Float records the first ±Inf or NaN
// it is given in Err.
type Writer struct {
	B      []byte
	Prefix string
	Err    error

	depth int
	// empty is true while the innermost open object or array has no
	// member yet.
	empty bool
}

func (w *Writer) newline() {
	w.B = append(w.B, '\n')
	w.B = append(w.B, w.Prefix...)
	for i := 0; i < w.depth; i++ {
		w.B = append(w.B, ' ', ' ')
	}
}

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(c byte) {
	w.B = append(w.B, c)
	w.depth++
	w.empty = true
}

// Close ends the innermost object ('}') or array (']').
func (w *Writer) Close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.B = append(w.B, c)
	w.empty = false
}

// Elem starts the next array element.
func (w *Writer) Elem() {
	if !w.empty {
		w.B = append(w.B, ',')
	}
	w.empty = false
	w.newline()
}

// Field starts the next object member; name must need no escaping.
func (w *Writer) Field(name string) {
	w.Elem()
	w.B = append(w.B, '"')
	w.B = append(w.B, name...)
	w.B = append(w.B, '"', ':', ' ')
}

// String appends s as a JSON string.
func (w *Writer) String(s string) { w.B = AppendString(w.B, s) }

// Int appends n.
func (w *Writer) Int(n int64) { w.B = strconv.AppendInt(w.B, n, 10) }

// Bool appends v.
func (w *Writer) Bool(v bool) { w.B = strconv.AppendBool(w.B, v) }

// Float appends f as a JSON number; ±Inf and NaN set Err.
func (w *Writer) Float(f float64) {
	var err error
	w.B, err = AppendFloat(w.B, f)
	if err != nil && w.Err == nil {
		w.Err = err
	}
}
