package sim

// Sharded conservative-PDES execution: one simulated run, many cores.
//
// A ShardedEngine partitions a simulation into shard-local Engines — each
// keeping the pooled radix queue and its own (at, seq) total order —
// connected only by timestamped cross-shard messages (Engine.Send). Shards
// synchronize conservatively: messages must land at least the lookahead
// window past the sender's clock, so within any window of width lookahead
// starting at the global minimum next-event time, every shard can execute
// its local events without hearing from the others. The run loop is the
// synchronous-window (YAWNS-style) variant of the classic
// Chandy–Misra–Bryant protocol: the per-window earliest-output-time
// announcements that CMB carries in null messages are batched into one
// barrier per window. See DESIGN.md §13 for the determinism argument.
//
// Determinism: shard-local execution is sequential, so each shard's
// (at, seq) order is exactly the serial engine's; messages generated during
// a window are merged at the barrier in canonical (at, sender shard, sender
// sequence) order before delivery, so destination schedule order — and
// therefore every downstream artifact — are independent of how many worker
// goroutines executed the window. Workers only changes wall-clock time,
// never a single simulated outcome.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bordercontrol/internal/stats"
)

// ShardID identifies one shard-local engine within a ShardedEngine.
type ShardID int32

// xmsg is one in-flight cross-shard message: a pre-bound callback to fire
// on the destination shard at a timestamp at least lookahead past the
// sender's clock. from/seq give the canonical merge order at the barrier.
type xmsg struct {
	at   Time
	to   ShardID
	cb   EventFunc
	arg  uint64
	from ShardID
	seq  uint64
}

// ShardedEngine coordinates shard-local Engines under a conservative
// lookahead window. Build one with NewShardedEngine, bind each simulated
// component to exactly one shard (Shard(i)), and communicate across shards
// only through Engine.Send. The zero value is not usable.
type ShardedEngine struct {
	shards    []*Engine
	lookahead Time

	// Workers bounds how many shards execute concurrently within one
	// window: 0 = GOMAXPROCS, 1 = serial. It is pure execution policy —
	// every simulated outcome is bit-identical at any setting.
	Workers int

	// Interrupt, when non-nil, is polled between events on every shard and
	// at each window barrier; when it reports true the whole sharded run
	// stops promptly, leaving the remaining queues intact. Unlike a
	// single Engine's Interrupt it MUST be safe for concurrent use: shard
	// worker goroutines poll it in parallel (a context-cancellation poll
	// is; anything touching shared state must synchronize).
	Interrupt func() bool

	// stop latches the first true Interrupt poll (or an explicit Stop) so
	// every other shard halts at its next poll without re-invoking the
	// user's Interrupt.
	stop atomic.Bool

	// runnable and scratch are reused across windows; msgs is the barrier
	// merge buffer.
	runnable []int32
	msgs     []xmsg
	next     atomic.Int32 // window work-stealing cursor

	windows   uint64 // conservative windows executed
	delivered uint64 // cross-shard messages delivered
	maxSkew   Time   // widest now-spread observed at a barrier
}

// NewShardedEngine returns an engine of n shards under the given lookahead
// window. Every cross-shard message must be timestamped at least lookahead
// past its sender's clock; model it as the latency of the border crossing
// the message represents (a doorbell write, an IRQ, a DMA descriptor
// fetch). n must be at least 1 and lookahead at least 1 ps.
func NewShardedEngine(n int, lookahead Time) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: ShardedEngine needs at least one shard, got %d", n))
	}
	if lookahead == 0 {
		panic("sim: ShardedEngine needs a non-zero lookahead window")
	}
	s := &ShardedEngine{lookahead: lookahead}
	s.shards = make([]*Engine, n)
	for i := range s.shards {
		s.shards[i] = &Engine{shard: ShardID(i), owner: s, outbox: make([]xmsg, 0)}
	}
	return s
}

// NumShards returns how many shard-local engines the run is partitioned
// into.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// Shard returns shard i's local engine. Components bound to a shard
// schedule on it exactly as on a standalone Engine.
func (s *ShardedEngine) Shard(i int) *Engine { return s.shards[i] }

// Lookahead returns the conservative window width.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// Now returns the maximum shard-local clock — the furthest point simulated
// time has reached anywhere. Individual shards may lag by up to the
// current window width.
func (s *ShardedEngine) Now() Time {
	var t Time
	for _, e := range s.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Fired returns the total events executed across all shards.
func (s *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, e := range s.shards {
		n += e.fired
	}
	return n
}

// Pending returns the total events scheduled but not yet executed,
// including cross-shard messages not yet delivered.
func (s *ShardedEngine) Pending() int {
	n := 0
	for _, e := range s.shards {
		n += e.pending + len(e.outbox)
	}
	return n
}

// Windows returns how many conservative windows the run executed.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

// Delivered returns how many cross-shard messages have been merged and
// delivered at window barriers.
func (s *ShardedEngine) Delivered() uint64 { return s.delivered }

// MaxSkew returns the widest spread between the fastest and slowest
// non-idle shard clock observed at any barrier — how much concurrency the
// lookahead window actually admitted.
func (s *ShardedEngine) MaxSkew() Time { return s.maxSkew }

// Stop makes every shard halt at its next interrupt poll. Safe to call
// concurrently with Run.
func (s *ShardedEngine) Stop() { s.stop.Store(true) }

// interrupted reports (and latches) whether the run should stop.
func (s *ShardedEngine) interrupted() bool {
	if s.stop.Load() {
		return true
	}
	if s.Interrupt != nil && s.Interrupt() {
		s.stop.Store(true)
		return true
	}
	return false
}

// workers resolves the effective window parallelism.
func (s *ShardedEngine) workers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// nextEventTime returns the minimum pending-event timestamp across shards.
func (s *ShardedEngine) nextEventTime() (Time, bool) {
	var min Time
	ok := false
	for _, e := range s.shards {
		if t, has := e.next(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// Run executes the sharded simulation to completion (or interruption) and
// returns the final simulated time. Each iteration computes the global
// lower bound t of pending-event time, executes every shard's events in
// [t, t+lookahead) — in parallel, bounded by Workers — and then merges and
// delivers the window's cross-shard messages in canonical order. Message
// timestamps are at least send-time + lookahead >= t + lookahead, so no
// message can land inside the window that produced it: every shard's
// window execution is independent, and the protocol never deadlocks.
func (s *ShardedEngine) Run() Time {
	for !s.interrupted() {
		// Deliver first so messages sent during setup (or by the previous
		// window) are visible to the lower-bound computation.
		s.deliver()
		t, ok := s.nextEventTime()
		if !ok {
			break
		}
		s.windows++
		s.runWindow(t + s.lookahead)
		s.observeSkew()
	}
	return s.Now()
}

// runWindow executes every shard's events with timestamps below horizon.
func (s *ShardedEngine) runWindow(horizon Time) {
	s.runnable = s.runnable[:0]
	for i, e := range s.shards {
		if t, ok := e.next(); ok && t < horizon {
			s.runnable = append(s.runnable, int32(i))
		}
	}
	workers := s.workers()
	if workers > len(s.runnable) {
		workers = len(s.runnable)
	}
	if workers <= 1 {
		for _, i := range s.runnable {
			s.shards[i].runWindow(horizon)
		}
		return
	}
	// Work-stealing over the runnable shards: workers pull the next index
	// from an atomic cursor. Shards touch only shard-local state during a
	// window, so the only synchronization needed is the barrier itself.
	s.next.Store(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := s.next.Add(1) - 1
				if int(k) >= len(s.runnable) {
					return
				}
				s.shards[s.runnable[k]].runWindow(horizon)
			}
		}()
	}
	wg.Wait()
}

// deliver merges every shard's outbox in canonical (at, sender, sender
// sequence) order and schedules the messages into their destination
// shards. The order is a pure function of simulated state, so destination
// schedule order is identical at any worker count.
func (s *ShardedEngine) deliver() {
	s.msgs = s.msgs[:0]
	for _, e := range s.shards {
		s.msgs = append(s.msgs, e.outbox...)
		e.outbox = e.outbox[:0]
	}
	if len(s.msgs) == 0 {
		return
	}
	sort.Slice(s.msgs, func(i, j int) bool {
		a, b := &s.msgs[i], &s.msgs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.seq < b.seq
	})
	for i := range s.msgs {
		m := &s.msgs[i]
		s.shards[m.to].ScheduleInto(m.at, m.cb, m.arg)
		m.cb = nil // release the callback reference
	}
	s.delivered += uint64(len(s.msgs))
}

// observeSkew records the now-spread across shards that fired any events.
func (s *ShardedEngine) observeSkew() {
	var lo, hi Time
	first := true
	for _, e := range s.shards {
		if e.fired == 0 {
			continue
		}
		if first || e.now < lo {
			lo = e.now
		}
		if first || e.now > hi {
			hi = e.now
		}
		first = false
	}
	if !first && hi-lo > s.maxSkew {
		s.maxSkew = hi - lo
	}
}

// RegisterMetrics publishes the coordinator's counters under sc
// ("...windows", "...messages", "...shards", "...max_skew_ps"). Per-shard
// engine counters register through each shard's own Engine.RegisterMetrics.
func (s *ShardedEngine) RegisterMetrics(sc stats.Scope) {
	sc.CounterFunc("windows", func() uint64 { return s.windows })
	sc.CounterFunc("messages", func() uint64 { return s.delivered })
	sc.CounterFunc("shards", func() uint64 { return uint64(len(s.shards)) })
	sc.CounterFunc("max_skew_ps", func() uint64 { return uint64(s.maxSkew) })
	sc.CounterFunc("events", s.Fired)
}

// ShardID returns which shard of a ShardedEngine this engine is; a
// standalone engine is shard 0.
func (e *Engine) ShardID() ShardID { return e.shard }

// Sharded returns the coordinating ShardedEngine, or nil for a standalone
// engine.
func (e *Engine) Sharded() *ShardedEngine { return e.owner }

// Send schedules the pre-bound callback cb to fire on shard `to` at
// absolute time at — the cross-shard border crossing of a sharded run. On
// a standalone engine, or when to is the local shard, it is exactly
// ScheduleInto. A genuinely remote send must satisfy the conservative
// contract at >= Now() + lookahead (model the crossing's real latency —
// doorbells, IRQs and DMA descriptor fetches are never free); violating it
// panics, because it would let a message land inside the window that
// produced it and break determinism.
//
// Call Send only from the sending shard's own events (or during setup,
// before Run): the outbox is shard-local and unsynchronized by design.
func (e *Engine) Send(to ShardID, at Time, cb EventFunc, arg uint64) {
	if e.owner == nil || to == e.shard {
		e.ScheduleInto(at, cb, arg)
		return
	}
	s := e.owner
	if int(to) < 0 || int(to) >= len(s.shards) {
		panic(fmt.Sprintf("sim: Send to unknown shard %d of %d", to, len(s.shards)))
	}
	if cb == nil {
		panic("sim: sending nil event")
	}
	if at < e.now+s.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send at %d violates lookahead (now %d + %d)",
			at, e.now, s.lookahead))
	}
	e.sendSeq++
	e.outbox = append(e.outbox, xmsg{at: at, to: to, cb: cb, arg: arg, from: e.shard, seq: e.sendSeq})
}

// SendAfter is Send at d picoseconds from now; d must be at least the
// lookahead window for a remote destination.
func (e *Engine) SendAfter(to ShardID, d Time, cb EventFunc, arg uint64) {
	e.Send(to, e.now+d, cb, arg)
}

// runWindow executes events with timestamps strictly below limit, polling
// the interrupt chain on the usual stride. Unlike RunUntil it never
// advances the clock past the last fired event: a window boundary leaves
// no timing residue, so the same schedule fires identically whatever
// window boundaries sliced it.
func (e *Engine) runWindow(limit Time) uint64 {
	var n uint64
	for {
		if t, ok := e.next(); !ok || t >= limit {
			break
		}
		if e.fired%interruptStride == 0 && e.interrupted() {
			break
		}
		e.Step()
		n++
	}
	return n
}

// interrupted polls this shard's own Interrupt and the coordinator's
// latched stop flag, so one shard's cancellation halts every other shard
// at its next poll.
func (e *Engine) interrupted() bool {
	if e.Interrupt != nil && e.Interrupt() {
		if e.owner != nil {
			e.owner.stop.Store(true)
		}
		return true
	}
	return e.owner != nil && e.owner.interrupted()
}
