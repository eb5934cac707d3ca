package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"bordercontrol/internal/trace"
)

// spans keeps the traced pass's host-time spans in memory; they are
// written once, when the run ends.
type spans struct {
	t0     time.Time
	mu     sync.Mutex
	tracks []*track
}

// track is the span tree of one cell, fleet run or served job. Only the
// goroutine executing that unit records into it.
type track struct {
	name  string
	t0    time.Time
	spans []span
	stack []int
}

type span struct {
	name       string
	start, end time.Duration // since the run's trace origin
	parent     int           // index of the enclosing span, -1 for a root
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// track starts the span tree of one unit of work. Safe for concurrent use.
func (s *spans) track(name string) *track {
	t := &track{name: name, t0: s.t0}
	s.mu.Lock()
	s.tracks = append(s.tracks, t)
	s.mu.Unlock()
	return t
}

// begin opens a span nested in the innermost open one.
func (t *track) begin(name string) {
	t.at(name, time.Now(), time.Time{})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *track) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = time.Since(t.t0)
}

// at records a span with known bounds, nested in the innermost open span,
// and returns its index.
func (t *track) at(name string, from, to time.Time) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: from.Sub(t.t0), end: to.Sub(t.t0), parent: parent})
	return len(t.spans) - 1
}

// push makes span i the innermost open span for later at calls; pop
// undoes it.
func (t *track) push(i int) { t.stack = append(t.stack, i) }
func (t *track) pop()       { t.stack = t.stack[:len(t.stack)-1] }

type spanTotal struct {
	count       int
	total, self time.Duration
}

// totals aggregates spans by name. Self time is a span's duration minus
// the time its children cover; children of one span never overlap, since
// one goroutine records them in sequence.
func (s *spans) totals() map[string]*spanTotal {
	out := map[string]*spanTotal{}
	if s == nil {
		return out
	}
	for _, t := range s.tracks {
		child := make([]time.Duration, len(t.spans))
		for _, sp := range t.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range t.spans {
			tot := out[sp.name]
			if tot == nil {
				tot = &spanTotal{}
				out[sp.name] = tot
			}
			tot.count++
			tot.total += sp.end - sp.start
			tot.self += sp.end - sp.start - child[i]
		}
	}
	return out
}

// writeChrome renders every span in Chrome trace-event form through
// internal/trace, one trace process per track, and returns the span count.
func (s *spans) writeChrome(w io.Writer) (int, error) {
	m := trace.NewMulti()
	n := 0
	for _, t := range s.tracks {
		tr := m.New(t.name)
		for _, sp := range t.spans {
			tr.Complete("perfbench", sp.name, uint64(sp.start)*1000, uint64(sp.end-sp.start)*1000)
			n++
		}
	}
	return n, m.WriteJSON(w)
}

// writeSelfTimes prints the span totals per traced batch, largest self
// time first.
func (s *spans) writeSelfTimes(w io.Writer, batches int) {
	tots := s.totals()
	names := make([]string, 0, len(tots))
	for name := range tots {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if tots[names[i]].self != tots[names[j]].self {
			return tots[names[i]].self > tots[names[j]].self
		}
		return names[i] < names[j]
	})
	n := float64(max(batches, 1))
	fmt.Fprintf(w, "\nspans per traced batch (%d batches):\n", batches)
	fmt.Fprintf(w, "  %-22s %10s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		t := tots[name]
		fmt.Fprintf(w, "  %-22s %10.1f %12.6f %12.6f\n", name, float64(t.count)/n, t.total.Seconds()/n, t.self.Seconds()/n)
	}
}
