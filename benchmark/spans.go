package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation (a synthesis run,
// a replayed mapping, a submitted job) share Trace; Parent names the span
// that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans keeps every recorded span in memory until the run writes them out
// at the end, so recording costs an append and two clock reads.
type spans struct {
	mu   sync.Mutex
	next int64
	list []span
}

// begin opens a span. It returns the span's ID, for use as a child's
// parent, and the function that closes the span and returns its duration.
func (r *spans) begin(trace, name string, parent int64) (id int64, end func() time.Duration) {
	r.mu.Lock()
	r.next++
	id = r.next
	r.mu.Unlock()
	start := time.Now()
	return id, func() time.Duration {
		stop := time.Now()
		r.mu.Lock()
		r.list = append(r.list, span{ID: id, Parent: parent, Trace: trace, Name: name,
			Start: start.UnixNano(), End: stop.UnixNano()})
		r.mu.Unlock()
		return stop.Sub(start)
	}
}

// record stores a span measured elsewhere (start and duration known).
func (r *spans) record(trace, name string, parent int64, start time.Time, d time.Duration) {
	r.mu.Lock()
	r.next++
	r.list = append(r.list, span{ID: r.next, Parent: parent, Trace: trace, Name: name,
		Start: start.UnixNano(), End: start.Add(d).UnixNano()})
	r.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (r *spans) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.list {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of the named spans and counts them.
func (r *spans) total(name string) (time.Duration, int) {
	var sum time.Duration
	ds := r.durations(name)
	for _, d := range ds {
		sum += d
	}
	return sum, len(ds)
}

// meanUS is the mean duration of the named spans in microseconds (0 when
// the layer was never called).
func (r *spans) meanUS(name string) float64 {
	sum, n := r.total(name)
	return ratio(micros(sum), float64(n))
}

// meanMS is meanUS in milliseconds.
func (r *spans) meanMS(name string) float64 { return r.meanUS(name) / 1e3 }

// p50MS is the median duration of the named spans in milliseconds (0 when
// the layer was never called).
func (r *spans) p50MS(name string) float64 {
	ds := r.durations(name)
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = millis(d)
	}
	return median(xs)
}

// write stores the spans as JSON lines in dir/name.
func (r *spans) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.list {
		if err := enc.Encode(&s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	n := len(r.list)
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans)", path, n), nil
}
