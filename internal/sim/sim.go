// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is kept in integer picoseconds so that components in different clock
// domains (a 3 GHz CPU, a 700 MHz GPU, a DRAM channel) can schedule events
// on one shared timeline without rounding drift. A Clock converts between a
// domain's cycles and picoseconds.
//
// Determinism: events at the same timestamp fire in the order they were
// scheduled (FIFO), so a run is a pure function of its inputs.
//
// The event queue is engineered for the hot path: a radix queue over the
// monotone event times, holding int32 indexes into a flat slot arena whose
// freed slots are recycled through a free list. Steady-state scheduling and
// firing allocates nothing — see DESIGN.md §10 for the layout and the
// determinism argument.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
)

// Time is a simulation timestamp in picoseconds.
type Time uint64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Clock describes a clock domain by its period. The zero Clock is invalid;
// use NewClock.
type Clock struct {
	period Time // picoseconds per cycle
}

// NewClock returns a clock domain running at hz cycles per second.
// Frequencies above 1 THz or below 1 Hz are rejected.
func NewClock(hz float64) (Clock, error) {
	if hz <= 0 || hz > 1e12 || math.IsNaN(hz) {
		return Clock{}, fmt.Errorf("sim: invalid clock frequency %v Hz", hz)
	}
	p := Time(math.Round(1e12 / hz))
	if p == 0 {
		p = 1
	}
	return Clock{period: p}, nil
}

// MustClock is NewClock for known-good constants; it panics on error.
func MustClock(hz float64) Clock {
	c, err := NewClock(hz)
	if err != nil {
		panic(err)
	}
	return c
}

// Period returns the picoseconds per cycle of this domain.
func (c Clock) Period() Time { return c.period }

// Cycles converts a cycle count in this domain to a duration.
func (c Clock) Cycles(n uint64) Time { return Time(n) * c.period }

// CyclesAt returns how many full cycles of this domain fit in t.
func (c Clock) CyclesAt(t Time) uint64 {
	if c.period == 0 {
		return 0
	}
	return uint64(t / c.period)
}

// EventFunc is the pre-bound event callback form: fired with the current
// simulation time and the payload word it was scheduled with. Bind the func
// value once (at component construction) and thread per-event state through
// arg — scheduling it then allocates nothing, unlike a fresh closure.
type EventFunc func(now Time, arg uint64)

// event is one scheduled callback, stored in the engine's slot arena.
// Exactly one of fn and cb is set: fn is the closure form (At/After), cb+arg
// the pre-bound form (ScheduleInto).
type event struct {
	at  Time
	fn  func()
	cb  EventFunc
	arg uint64
}

// Engine is a discrete-event simulator. The zero Engine is ready to use.
type Engine struct {
	now   Time
	fired uint64

	// The pending-event queue: a radix queue of indexes into the slots
	// arena. free recycles retired slot indexes LIFO so the arena stops
	// growing once the in-flight population peaks.
	//
	// Times never decrease (nothing is scheduled before now), so the queue
	// keys every pending event by how far it lies from base, the time of
	// the latest refill: buckets[b], b > 0, holds the events whose time
	// first differs from base at bit b-1, and buckets[0] holds the events
	// at exactly base, from head on, in schedule order. Every bucket is in
	// schedule order (see refill), so pops come out in (time, schedule
	// order) — DESIGN.md §10.
	slots    []event
	free     []int32
	base     Time
	buckets  [65][]int32
	head     int    // next entry of buckets[0] to pop
	nonempty uint64 // bit b-1 set iff buckets[b] holds an event
	pending  int

	// Interrupt, when non-nil, is polled by Run every interruptStride
	// events; when it reports true, Run stops between events with the
	// remaining queue intact. It lets a caller abort a long simulation from
	// outside the simulated timeline (context cancellation, timeouts)
	// without affecting the determinism of runs that complete.
	Interrupt func() bool

	// Tracer, when non-nil, receives a queue-depth counter sample every
	// interruptStride events under the "engine" category. It is pure
	// observation: attaching a tracer never changes scheduling.
	Tracer *trace.Tracer

	// depthHist distributes the pending-queue depth, sampled on a fixed
	// simulated-time cadence (depthCadence). The sample is taken inside
	// Step — no sampler event is ever scheduled, so the event count, the
	// schedule order, and every artifact derived from them are identical
	// with or without anyone reading the histogram.
	depthHist stats.Histogram
	nextDepth Time

	// Sharded execution (see shard.go): which shard of a ShardedEngine
	// this engine is, the coordinator, the shard-local outbox of pending
	// cross-shard messages, and the sender-side message sequence counter
	// used for the canonical barrier merge. All zero for a standalone
	// engine, which behaves exactly as before.
	shard   ShardID
	owner   *ShardedEngine
	outbox  []xmsg
	sendSeq uint64
}

// interruptStride is how many events Run executes between Interrupt polls;
// a power of two so the check compiles to a mask.
const interruptStride = 4096

// depthCadence is the simulated-time interval between queue-depth samples.
const depthCadence = Microsecond

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns how many events are scheduled but not yet executed.
func (e *Engine) Pending() int { return e.pending }

// alloc returns a free slot index, growing the arena only when no retired
// slot is available.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slots = append(e.slots, event{})
	return int32(len(e.slots) - 1)
}

// push files slot idx, due at t, into its bucket. Equal times always share
// a bucket and a new event is appended after every pending one, so each
// bucket stays in schedule order.
func (e *Engine) push(idx int32, t Time) {
	b := bits.Len64(uint64(t ^ e.base))
	e.buckets[b] = append(e.buckets[b], idx)
	if b > 0 {
		e.nonempty |= 1 << (b - 1)
	}
	e.pending++
}

// refill empties the lowest non-empty bucket into the lower ones, re-based
// on its earliest time. It runs only while bucket 0 is empty, and every
// bucket below the source is empty too, so each destination receives a
// subsequence of the source in its order: buckets stay in schedule order.
// An event only ever moves to a lower bucket, so it moves at most 64 times.
func (e *Engine) refill() {
	b := bits.TrailingZeros64(e.nonempty) + 1
	src := e.buckets[b]
	e.base = e.earliest(src)
	for _, idx := range src {
		nb := bits.Len64(uint64(e.slots[idx].at ^ e.base))
		e.buckets[nb] = append(e.buckets[nb], idx)
		if nb > 0 {
			e.nonempty |= 1 << (nb - 1)
		}
	}
	e.buckets[b] = src[:0]
	e.nonempty &^= 1 << (b - 1)
}

// earliest returns the least time among the slots of a non-empty bucket.
func (e *Engine) earliest(bucket []int32) Time {
	t := e.slots[bucket[0]].at
	for _, idx := range bucket[1:] {
		if at := e.slots[idx].at; at < t {
			t = at
		}
	}
	return t
}

// next returns the time of the next pending event. It only reads the
// queue: a peek that refilled would move base up to the head's time, and a
// cross-shard message may still be scheduled between now and that head.
func (e *Engine) next() (Time, bool) {
	if e.head < len(e.buckets[0]) {
		return e.base, true
	}
	if e.nonempty == 0 {
		return 0, false
	}
	return e.earliest(e.buckets[bits.TrailingZeros64(e.nonempty)+1]), true
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a component bug, never valid input.
//
// The closure form is convenient for setup and low-frequency events; code on
// the per-request hot path should use ScheduleInto, whose pre-bound callback
// avoids allocating a closure per event.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	idx := e.alloc()
	s := &e.slots[idx]
	s.at, s.fn, s.cb, s.arg = t, fn, nil, 0
	e.push(idx, t)
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// ScheduleInto schedules the pre-bound callback cb to fire at absolute time
// t with payload arg. It is the allocation-free form of At: cb should be a
// long-lived func value (a field bound at component construction), with all
// per-event state packed into arg or reachable from cb's receiver. Ordering
// is identical to At — the two forms share one queue.
func (e *Engine) ScheduleInto(t Time, cb EventFunc, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	if cb == nil {
		panic("sim: scheduling nil event")
	}
	idx := e.alloc()
	s := &e.slots[idx]
	s.at, s.fn, s.cb, s.arg = t, nil, cb, arg
	e.push(idx, t)
}

// ScheduleIntoAfter is ScheduleInto at d picoseconds from now.
func (e *Engine) ScheduleIntoAfter(d Time, cb EventFunc, arg uint64) {
	e.ScheduleInto(e.now+d, cb, arg)
}

// Step executes the single next event. It reports false if no events remain.
func (e *Engine) Step() bool {
	if e.pending == 0 {
		return false
	}
	if e.head == len(e.buckets[0]) {
		e.refill()
	}
	b0 := e.buckets[0]
	idx := b0[e.head]
	e.head++
	switch {
	case e.head == len(b0):
		// Drained: reclaim it, so a chain of events at one time reuses
		// the same few entries.
		e.buckets[0], e.head = b0[:0], 0
	case e.head >= 32 && 2*e.head >= len(b0):
		// Events at this time keep scheduling more at it: drop the popped
		// prefix, so the bucket stays bounded by the pending population.
		e.buckets[0], e.head = b0[:copy(b0, b0[e.head:])], 0
	}
	e.pending--
	s := &e.slots[idx]
	e.now = s.at
	e.fired++
	if e.now >= e.nextDepth {
		// One sample per elapsed cadence window, stamped at the first event
		// that crosses the boundary. Depth here still includes this event's
		// successors only — it was already popped above.
		e.depthHist.Record(uint64(e.pending))
		e.nextDepth = e.now + depthCadence
	}
	fn, cb, arg := s.fn, s.cb, s.arg
	// Clear the callback references before firing: the slot is recycled (a
	// callback may immediately schedule into it) and must not pin closures
	// for the GC.
	s.fn, s.cb = nil, nil
	e.free = append(e.free, idx)
	if cb != nil {
		cb(e.now, arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty (or Interrupt reports true)
// and returns the final time. On a shard of a ShardedEngine the poll also
// covers the coordinator's stop flag, so a run driven directly through a
// shard still honors fleet-wide cancellation.
func (e *Engine) Run() Time {
	for {
		if e.fired%interruptStride == 0 {
			if e.interrupted() {
				break
			}
			if e.Tracer != nil {
				e.Tracer.Counter("engine", "pending_events", uint64(e.now), float64(e.pending))
			}
		}
		if !e.Step() {
			break
		}
	}
	return e.now
}

// RegisterMetrics publishes the engine's progress counters under s
// ("engine.events", "engine.pending", "engine.now_ps", "engine.queue_depth").
func (e *Engine) RegisterMetrics(s stats.Scope) {
	s.CounterFunc("events", e.Fired)
	s.CounterFunc("pending", func() uint64 { return uint64(e.Pending()) })
	s.CounterFunc("now_ps", func() uint64 { return uint64(e.now) })
	s.Histogram("queue_depth", &e.depthHist)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// simulated clock to the deadline. Events scheduled beyond the deadline stay
// queued. It reports how many events fired. Like Run it polls Interrupt
// every interruptStride events, so a cancelled caller is not stuck behind a
// long bounded run.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var n uint64
	for {
		if t, ok := e.next(); !ok || t > deadline {
			break
		}
		if e.fired%interruptStride == 0 && e.interrupted() {
			break
		}
		e.Step()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunFor runs for d picoseconds past the current time (see RunUntil).
func (e *Engine) RunFor(d Time) uint64 { return e.RunUntil(e.now + d) }
