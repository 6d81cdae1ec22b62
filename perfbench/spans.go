package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the ID of the span that caused it (0 for a
// root); spans of one HTTP request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps finished spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay a clock read per call.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r     *recorder
	s     span
	start time.Time
}

// begin starts a span. On a nil recorder nothing is recorded, but end
// still returns the elapsed time.
func (r *recorder) begin(layer, name string, parent int64, req string) openSpan {
	o := openSpan{r: r, start: time.Now()}
	if r == nil {
		return o
	}
	r.mu.Lock()
	r.next++
	o.s = span{ID: r.next, Parent: parent, Layer: layer, Name: name, Req: req, Start: o.start.Sub(r.epoch)}
	r.mu.Unlock()
	return o
}

// id is the span's ID, for children (0 when not recording).
func (o openSpan) id() int64 { return o.s.ID }

// end records the span and returns its duration.
func (o openSpan) end() time.Duration {
	end := time.Now()
	if o.r != nil {
		o.s.End = end.Sub(o.r.epoch)
		o.r.mu.Lock()
		o.r.spans = append(o.r.spans, o.s)
		o.r.mu.Unlock()
	}
	return end.Sub(o.start)
}

// add records an already-measured interval, for calls timed by a layer
// hook that has its own start and end.
func (r *recorder) add(layer, name string, parent int64, req string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{ID: r.next, Parent: parent, Layer: layer, Name: name, Req: req,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the finished spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func (r *recorder) selfTimes() map[string]time.Duration {
	return selfTimes(r.snapshot())
}

func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeFile dumps the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
