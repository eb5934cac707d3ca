package sim

// This file keeps the engine's original container/heap event queue as an
// unexported reference implementation. The production engine (a radix
// queue over pooled slots) must fire events in exactly the order this one
// does — (timestamp, schedule sequence) — on any schedule, including
// same-timestamp bursts, events scheduled from inside a firing event, wide
// time gaps, and bounded runs that stop short of the next event. The
// cross-check below and FuzzEngineSchedule enforce that.

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent is the reference queue's closure-carrying event.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine is the pre-overhaul engine: a binary container/heap of events.
type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) At(t Time, fn func()) {
	if t < e.now {
		panic("refEngine: scheduling in the past")
	}
	e.seq++
	heap.Push(&e.events, refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *refEngine) next() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

func (e *refEngine) RunUntil(deadline Time) uint64 {
	var n uint64
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

func (e *refEngine) RunFor(d Time) uint64 { return e.RunUntil(e.now + d) }

// scheduler is the least common API of the two engines, for differential
// driving. The production adapter alternates the closure and pre-bound
// forms so both feed one queue.
type scheduler interface {
	Now() Time
	At(t Time, fn func())
	Step() bool
}

// boundedScheduler adds the bounded runs and the read-only peek that
// shard windows use.
type boundedScheduler interface {
	scheduler
	next() (Time, bool)
	RunUntil(deadline Time) uint64
	RunFor(d Time) uint64
}

// intoAdapter drives an Engine scheduling every other event through
// ScheduleInto instead of At, routing the payload word back to a closure
// table. Ordering must be indistinguishable from closures all the way down.
type intoAdapter struct {
	*Engine
	n   int
	fns []func()
}

func (a *intoAdapter) At(t Time, fn func()) {
	a.n++
	if a.n%2 == 1 {
		a.fns = append(a.fns, fn)
		a.Engine.ScheduleInto(t, func(_ Time, arg uint64) { a.fns[arg]() }, uint64(len(a.fns)-1))
		return
	}
	a.Engine.At(t, fn)
}

// fireRec is one observed firing: when, and which scheduled event.
type fireRec struct {
	at Time
	id int
}

// script drives a scheduler from a byte script: each firing event logs
// itself and spends script bytes to schedule children. The script is
// consumed in firing order, so two engines diverge loudly if their orders
// ever differ.
type script struct {
	s      scheduler
	data   []byte
	pos    int
	nextID int
	log    []fireRec
}

func (sc *script) byte() (byte, bool) {
	if sc.pos >= len(sc.data) {
		return 0, false
	}
	b := sc.data[sc.pos]
	sc.pos++
	return b, true
}

// delta maps a script byte to a time delta. Most bytes give deltas below
// 8, so same-timestamp bursts and children scheduled exactly at Now() are
// common; the top 40 byte values give 2^0..2^39, so events also land far
// apart and the high time bits get exercised.
func delta(d byte) Time {
	if d >= 0xd8 {
		return 1 << (d - 0xd8)
	}
	return Time(d % 8)
}

func (sc *script) schedule(t Time) {
	id := sc.nextID
	sc.nextID++
	sc.s.At(t, func() {
		sc.log = append(sc.log, fireRec{at: sc.s.Now(), id: id})
		n, ok := sc.byte()
		if !ok {
			return
		}
		for j := byte(0); j < n%4; j++ {
			d, ok := sc.byte()
			if !ok {
				return
			}
			sc.schedule(sc.s.Now() + delta(d))
		}
	})
}

func newScript(s scheduler, data []byte) *script {
	sc := &script{s: s, data: data}
	for i := 0; i < 3; i++ {
		d, _ := sc.byte()
		sc.schedule(delta(d))
	}
	return sc
}

// runScript runs a script to completion with Step alone.
func runScript(s scheduler, data []byte) []fireRec {
	sc := newScript(s, data)
	for s.Step() {
	}
	return sc.log
}

// runBoundedScript interleaves single steps with bounded runs, the way a
// shard window drives its engine: a quarter of the driver's bytes run to a
// deadline short of or past pending events (RunUntil or RunFor, the same
// delta mapping), peek at the next pending time, and schedule a new event
// between the advanced clock and that time. A queue whose peek reordered
// it would then fire the new event late.
func runBoundedScript(s boundedScheduler, data []byte) []fireRec {
	sc := newScript(s, data)
	for {
		c, ok := sc.byte()
		if !ok {
			break
		}
		if c%4 != 0 {
			if !s.Step() {
				break
			}
			continue
		}
		d, _ := sc.byte()
		if c%8 == 0 {
			s.RunUntil(s.Now() + delta(d))
		} else {
			s.RunFor(delta(d))
		}
		head, ok := s.next()
		if !ok {
			break
		}
		f, _ := sc.byte()
		sc.schedule(s.Now() + (head-s.Now())*Time(f%4)/4)
	}
	for s.Step() {
	}
	return sc.log
}

// diffEngines runs the same script, bounded runs included, on the
// production engine (mixed At / ScheduleInto) and the container/heap
// reference and reports the first divergence.
func diffEngines(t testing.TB, data []byte) {
	t.Helper()
	got := runBoundedScript(&intoAdapter{Engine: &Engine{}}, data)
	want := runBoundedScript(&refEngine{}, data)
	if len(got) != len(want) {
		t.Fatalf("engines fired different event counts: new=%d ref=%d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("firing order diverges at event %d: new=(t=%d id=%d) ref=(t=%d id=%d)",
				i, got[i].at, got[i].id, want[i].at, want[i].id)
		}
	}
}

func TestEngineMatchesHeapReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		diffEngines(t, data)
	}
}

// TestEngineMatchesReferenceSameTimestampBurst pins the FIFO contract for a
// pure burst: many events at one timestamp, half scheduled through each
// form, interleaved with nested scheduling at the already-current time.
func TestEngineMatchesReferenceSameTimestampBurst(t *testing.T) {
	newE := &intoAdapter{Engine: &Engine{}}
	ref := &refEngine{}
	var got, want []fireRec
	collect := func(s scheduler, log *[]fireRec) {
		id := 0
		for i := 0; i < 100; i++ {
			i := i
			s.At(9, func() {
				*log = append(*log, fireRec{at: s.Now(), id: id})
				id++
				if i%5 == 0 {
					s.At(s.Now(), func() { *log = append(*log, fireRec{at: s.Now(), id: -i}) })
				}
			})
		}
		for s.Step() {
		}
	}
	collect(newE, &got)
	collect(ref, &want)
	if len(got) != len(want) {
		t.Fatalf("burst fired %d events on the new engine, %d on the reference", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("burst order diverges at %d: new=%+v ref=%+v", i, got[i], want[i])
		}
	}
}

// TestEnginePoolRecycles checks the slot arena stops growing once the
// in-flight population peaks: a long self-rescheduling chain must reuse one
// slot, not leak one per event.
func TestEnginePoolRecycles(t *testing.T) {
	var e Engine
	n := 0
	var tick EventFunc
	tick = func(_ Time, _ uint64) {
		n++
		if n < 100000 {
			e.ScheduleIntoAfter(3, tick, 0)
		}
	}
	e.ScheduleIntoAfter(3, tick, 0)
	e.Run()
	if n != 100000 {
		t.Fatalf("chain fired %d times, want 100000", n)
	}
	if len(e.slots) > 4 {
		t.Errorf("slot arena grew to %d for a 1-deep chain; pool not recycling", len(e.slots))
	}
}

// TestEngineSameTimeChainsStayBounded: events at one time that keep
// scheduling more at that time never let bucket 0 drain, yet the queue's
// storage must stay bounded by the pending population rather than grow
// with every event fired.
func TestEngineSameTimeChainsStayBounded(t *testing.T) {
	for _, chains := range []int{1, 3, 100} {
		var e Engine
		n := 0
		var tick EventFunc
		tick = func(now Time, _ uint64) {
			n++
			if n <= 100000 {
				e.ScheduleInto(now, tick, 0)
			}
		}
		for i := 0; i < chains; i++ {
			e.ScheduleInto(7, tick, 0)
		}
		e.Run()
		if n != 100000+chains || e.Now() != 7 {
			t.Fatalf("%d chains: fired %d events ending at %d, want %d at 7", chains, n, e.Now(), 100000+chains)
		}
		if c := cap(e.buckets[0]); c > 4*chains+64 {
			t.Errorf("%d chains: bucket 0 grew to %d entries for %d pending events", chains, c, chains)
		}
		if len(e.slots) > chains+1 {
			t.Errorf("%d chains: slot arena grew to %d", chains, len(e.slots))
		}
	}
}

func TestScheduleIntoOrderingWithAt(t *testing.T) {
	var e Engine
	var got []int
	cb := func(_ Time, arg uint64) { got = append(got, int(arg)) }
	e.At(10, func() { got = append(got, 0) })
	e.ScheduleInto(10, cb, 1)
	e.At(10, func() { got = append(got, 2) })
	e.ScheduleInto(5, cb, 3)
	e.Run()
	want := []int{3, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleIntoPanics(t *testing.T) {
	var e Engine
	cb := func(Time, uint64) {}
	e.ScheduleInto(100, cb, 0)
	e.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleInto in the past should panic")
			}
		}()
		e.ScheduleInto(50, cb, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil ScheduleInto callback should panic")
			}
		}()
		e.ScheduleInto(200, nil, 0)
	}()
}
