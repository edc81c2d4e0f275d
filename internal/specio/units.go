package specio

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseTime parses a duration with unit suffix (ns, us, ms, s) into
// seconds. A bare number is seconds.
func ParseTime(s string) (float64, error) { return parseUnit(s, "time", timeUnits) }

// ParsePower parses a power with unit suffix (uW, mW, W) into watts. A
// bare number is watts.
func ParsePower(s string) (float64, error) { return parseUnit(s, "power", powerUnits) }

// ParseBandwidth parses a bandwidth (B/s, kB/s, MB/s, GB/s) into bytes per
// second. A bare number is bytes per second.
func ParseBandwidth(s string) (float64, error) { return parseUnit(s, "bandwidth", bandwidthUnits) }

type unit struct {
	suffix string
	scale  float64
}

// parseUnit matches the longest suffix first. Suffixes match
// case-sensitively and there is no case-folding fallback: "10ms" and
// "10mW" parse, while "10MS" and "10mw" are rejected as bad values.
func parseUnit(s, what string, units []unit) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty %s value", what)
	}
	best := unit{}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) && len(u.suffix) > len(best.suffix) {
			best = u
		}
	}
	num := s
	scale := 1.0
	if best.suffix != "" {
		num = s[:len(s)-len(best.suffix)]
		scale = best.scale
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s value %q", what, s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative %s value %q", what, s)
	}
	return v * scale, nil
}

// The unit tables, largest unit first (the order the formatters need;
// parseUnit matches the longest suffix whatever the order).
var (
	timeUnits      = []unit{{"s", 1}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}}
	powerUnits     = []unit{{"W", 1}, {"mW", 1e-3}, {"uW", 1e-6}}
	bandwidthUnits = []unit{{"GB/s", 1e9}, {"MB/s", 1e6}, {"kB/s", 1e3}, {"B/s", 1}}
)

// FormatTime renders seconds with the largest unit that keeps the value
// >= 1 (or ns for very small values), using minimal digits, unless that
// rendering would not parse back to exactly v (see appendUnit).
func FormatTime(v float64) string { return string(appendUnit(nil, v, timeUnits)) }

// FormatPower renders watts analogously (W, mW, uW).
func FormatPower(v float64) string { return string(appendUnit(nil, v, powerUnits)) }

// FormatBandwidth renders bytes per second (GB/s, MB/s, kB/s, B/s).
func FormatBandwidth(v float64) string { return string(appendUnit(nil, v, bandwidthUnits)) }

// appendUnit appends v rendered in the largest unit of units (ordered
// largest first) that keeps the number >= 1, provided parseUnit reads that
// rendering back to exactly v. v/scale printed with minimal digits does
// not always do that: 0.018 renders as "18ms", which parses to 18*1e-3, a
// neighbouring float. When the scaled rendering misses, v falls back to
// the base unit (scale 1), where the minimal-digit form is exact.
func appendUnit(b []byte, v float64, units []unit) []byte {
	u := units[len(units)-1]
	if v == 0 {
		return append(append(b, '0'), u.suffix...)
	}
	for _, c := range units {
		if v >= c.scale {
			u = c
			break
		}
	}
	n := len(b)
	b = strconv.AppendFloat(b, v/u.scale, 'g', -1, 64)
	if back, err := strconv.ParseFloat(string(b[n:]), 64); err == nil && back*u.scale == v {
		return append(b, u.suffix...)
	}
	for _, c := range units {
		if c.scale == 1 {
			u = c
		}
	}
	return append(strconv.AppendFloat(b[:n], v, 'g', -1, 64), u.suffix...)
}
