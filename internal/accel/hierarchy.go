package accel

import (
	"errors"
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/ats"
	"bordercontrol/internal/cache"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tlb"
)

// ErrBlocked is returned when a request is refused at the border: the
// accelerator receives no data and the write does not happen.
var ErrBlocked = errors.New("accel: request blocked at border")

// Hierarchy is the memory path of one accelerator, from a compute unit's
// access to its completion time. The five evaluated configurations differ
// only in which Hierarchy they use.
type Hierarchy interface {
	// Access performs op for a wavefront on compute unit cu of process
	// asid, returning the completion time. data holds the bytes a store
	// writes (nil for loads).
	Access(at sim.Time, cu int, asid arch.ASID, op Op, data []byte) (sim.Time, error)
	// Drain flushes whatever accelerator-side state must reach memory at
	// kernel end (dirty caches) and returns the completion time.
	Drain(at sim.Time) sim.Time
}

// zeroBlock backs the data of stores that carry none. Callers only ever
// copy from the returned slice (cache.Write copies into the line), so
// sharing one immutable buffer keeps stores allocation-free.
var zeroBlock [arch.BlockSize]byte

// opBytes returns the bytes store op writes: its payload in arena, or zeros
// when it carries none.
func opBytes(op *Op, arena []byte) []byte {
	if op.Payload != 0 {
		return op.PayloadIn(arena)
	}
	n := int(op.Size)
	if n <= 0 || n > int(arch.BlockSize) {
		n = 8
	}
	return zeroBlock[:n]
}

// SandboxConfig describes the accelerator-resident hierarchy used by the
// ATS-only baseline and both Border Control configurations: per-CU L1
// caches and TLBs, a shared L2.
type SandboxConfig struct {
	Name         string
	Clock        sim.Clock
	CUs          int
	L1TLBEntries int // 64 in Table 3
	L1Size       int // 16 KB in Table 3
	L2Size       int // 256 KB (highly threaded) / 64 KB (moderately)
	L1Ways       int
	L2Ways       int
	L1Latency    sim.Time
	L2Latency    sim.Time
	// DrainStall models completing outstanding requests and the ATS flush
	// during a TLB shootdown; it applies to trusted and untrusted
	// accelerators alike (paper §5.2.4).
	DrainStall sim.Time
	// FlushScanLatency is the cost of walking the cache arrays during a
	// (selective or full) flush, independent of how many blocks turn out
	// dirty. This is the Border-Control-only part of a downgrade (paper
	// §5.2.4: BC pays roughly twice the trusted baseline).
	FlushScanLatency sim.Time
}

// DefaultSandboxConfig returns the Table 3 GPU cache hierarchy.
func DefaultSandboxConfig(name string, clock sim.Clock, cus int, l2Size int) SandboxConfig {
	return SandboxConfig{
		Name:             name,
		Clock:            clock,
		CUs:              cus,
		L1TLBEntries:     64,
		L1Size:           16 << 10,
		L2Size:           l2Size,
		L1Ways:           4,
		L2Ways:           8,
		L1Latency:        clock.Cycles(1),
		L2Latency:        clock.Cycles(8),
		DrainStall:       clock.Cycles(1500),
		FlushScanLatency: clock.Cycles(1200),
	}
}

// Sandboxed is the accelerator-optimized hierarchy: physically-addressed
// L1s per CU, a shared physically-addressed L2, and per-CU L1 TLBs filled
// by the ATS. All requests leaving the L2 cross the border port, where
// Border Control (when attached to the port) checks them.
type Sandboxed struct {
	cfg    SandboxConfig
	eng    *sim.Engine
	ats    *ats.ATS
	border *BorderPort
	l1tlbs []*tlb.TLB
	l1s    []*cache.Cache
	l2     *cache.Cache
	pr     *prof.Profiler
	// flushBuf is the scratch slice L2 flushes append to. A flush takes it
	// for the whole writeback loop: a denied writeback can exit the process
	// and so flush again before the loop ends, and that nested flush then
	// allocates its own slice instead of overwriting this one.
	flushBuf []cache.DirtyBlock

	stallUntil sim.Time

	Loads      stats.Counter
	Stores     stats.Counter
	Drains     stats.Counter
	Downgrades stats.Counter
}

// NewSandboxed builds the hierarchy. The border port is attached by the
// caller so the same hierarchy serves the unsafe baseline (nil Border
// Control) and both BC configurations.
func NewSandboxed(cfg SandboxConfig, eng *sim.Engine, atsvc *ats.ATS, border *BorderPort) (*Sandboxed, error) {
	if cfg.CUs <= 0 {
		return nil, fmt.Errorf("accel: need at least one CU, got %d", cfg.CUs)
	}
	h := &Sandboxed{cfg: cfg, eng: eng, ats: atsvc, border: border}
	for i := 0; i < cfg.CUs; i++ {
		t, err := tlb.NewFullyAssociative(cfg.L1TLBEntries)
		if err != nil {
			return nil, err
		}
		h.l1tlbs = append(h.l1tlbs, t)
		l1, err := cache.New(cache.Config{
			Name:       fmt.Sprintf("%s-l1-%d", cfg.Name, i),
			SizeBytes:  cfg.L1Size,
			Ways:       cfg.L1Ways,
			Policy:     cache.WriteThrough,
			HitLatency: cfg.L1Latency,
		})
		if err != nil {
			return nil, err
		}
		h.l1s = append(h.l1s, l1)
	}
	l2, err := cache.New(cache.Config{
		Name:       cfg.Name + "-l2",
		SizeBytes:  cfg.L2Size,
		Ways:       cfg.L2Ways,
		Policy:     cache.WriteBack,
		HitLatency: cfg.L2Latency,
	})
	if err != nil {
		return nil, err
	}
	h.l2 = l2
	return h, nil
}

// Border returns the hierarchy's border port.
func (h *Sandboxed) Border() *BorderPort { return h.border }

// L2 returns the shared L2 cache (for tests and statistics).
func (h *Sandboxed) L2() *cache.Cache { return h.l2 }

// L1 returns CU cu's L1 cache.
func (h *Sandboxed) L1(cu int) *cache.Cache { return h.l1s[cu] }

// CUs returns the number of compute units (and so of L1 caches and TLBs).
func (h *Sandboxed) CUs() int { return len(h.l1s) }

// L1TLB returns CU cu's TLB.
func (h *Sandboxed) L1TLB(cu int) *tlb.TLB { return h.l1tlbs[cu] }

func (h *Sandboxed) clampStall(at sim.Time) sim.Time {
	if at < h.stallUntil {
		return h.stallUntil
	}
	return at
}

// SetProfiler attaches (or, with nil, detaches) a simulated-time profiler
// on the hierarchy and its border port.
func (h *Sandboxed) SetProfiler(p *prof.Profiler) {
	h.pr = p
	if h.border != nil {
		h.border.SetProfiler(p)
	}
}

// Access implements Hierarchy.
func (h *Sandboxed) Access(at sim.Time, cu int, asid arch.ASID, op Op, data []byte) (sim.Time, error) {
	if h.pr != nil {
		h.pr.Enter("gpu/wavefront")
		defer h.pr.Exit()
	}
	at = h.clampStall(at)
	need := op.Kind.Need()
	e, ok := h.l1tlbs[cu].Lookup(asid, op.Addr.PageOf())
	if !ok || !e.Perm.Allows(need) {
		res, err := h.ats.Translate(h.cfg.Name, asid, op.Addr, op.Kind, at)
		if err != nil {
			return at, err
		}
		at = res.Done
		e = res.Entry
		h.l1tlbs[cu].Insert(e)
	}
	pa := e.PPN.Base() + arch.Phys(op.Addr.Offset())
	if op.Kind == arch.Read {
		h.Loads.Inc()
		return h.load(at, cu, asid, pa)
	}
	h.Stores.Inc()
	return h.store(at, cu, asid, pa, data)
}

func (h *Sandboxed) load(at sim.Time, cu int, asid arch.ASID, pa arch.Phys) (sim.Time, error) {
	l1 := h.l1s[cu]
	at += l1.HitLatency()
	if h.pr != nil {
		h.pr.Span("gpu/l1", uint64(l1.HitLatency()))
	}
	if l1.Lookup(pa) {
		return at, nil
	}
	done, err := h.l2Fill(at, asid, pa, arch.Read)
	if err != nil {
		return done, err
	}
	var buf [arch.BlockSize]byte
	h.l2.Read(pa.BlockOf(), buf[:])
	l1.Fill(pa, buf[:]) // write-through L1s never evict dirty victims
	return done, nil
}

// l2Fill ensures pa's block is in the L2 with the given intent, returning
// when the data is available. A blocked fill allocates nothing: the L2 and
// the directory are exactly as they were before the request.
func (h *Sandboxed) l2Fill(at sim.Time, asid arch.ASID, pa arch.Phys, intent arch.AccessKind) (sim.Time, error) {
	at += h.l2.HitLatency()
	if h.pr != nil {
		h.pr.Span("gpu/l2", uint64(h.l2.HitLatency()))
	}
	if h.l2.Lookup(pa) {
		return at, nil
	}
	var buf [arch.BlockSize]byte
	done, ok := h.border.ReadBlock(at, asid, pa, intent, &buf)
	if !ok {
		return done, fmt.Errorf("%w: %s fill of %#x", ErrBlocked, intent, pa)
	}
	victim, dirty := h.l2.Fill(pa, buf[:])
	if dirty {
		// The victim writeback is off the requester's critical path but
		// crosses the border (and is checked there), attributed to the
		// requester whose fill evicted it. Its bandwidth is claimed at the
		// fill request time — write buffers drain opportunistically, and
		// claiming at fill completion would reserve the channel into the
		// future and stall unrelated traffic.
		h.border.WriteBlock(at, asid, victim.Addr, &victim.Data)
	}
	return done, nil
}

// store is posted: the wavefront retires the store at L1-issue time, while
// the write-through to the L2 (allocation, ownership upgrade, and any
// victim writeback) proceeds in the background, claiming its resources.
// This mirrors real GPU write buffering and the paper's placement of write
// checking: writes are verified when they cross the border, not on the
// wavefront's critical path. No cache level may absorb the data before the
// border authorizes it — a blocked store that had already updated the L1
// would serve forbidden data to later loads.
func (h *Sandboxed) store(at sim.Time, cu int, asid arch.ASID, pa arch.Phys, data []byte) (sim.Time, error) {
	l1 := h.l1s[cu]
	at += l1.HitLatency()
	if h.pr != nil {
		h.pr.Span("gpu/l1", uint64(l1.HitLatency()))
	}
	if !h.l2.Lookup(pa) {
		if _, err := h.l2Fill(at, asid, pa, arch.Write); err != nil {
			return at, err
		}
	} else if !h.border.Owned(pa.BlockOf()) {
		// Store to a block filled for reading: upgrade ownership across
		// the border.
		if _, ok := h.border.Upgrade(at, asid, pa); !ok {
			return at, fmt.Errorf("%w: upgrade of %#x", ErrBlocked, pa)
		}
	}
	if l1.Contains(pa) {
		l1.Write(pa, data)
	}
	h.l2.Write(pa, data)
	return at, nil
}

// Drain implements Hierarchy: the kernel-end flush that makes results
// visible to the host.
func (h *Sandboxed) Drain(at sim.Time) sim.Time {
	h.Drains.Inc()
	return h.FlushAll(at)
}

// FlushAll implements core.Sandboxed: write back and invalidate the whole
// accelerator cache hierarchy.
func (h *Sandboxed) FlushAll(at sim.Time) sim.Time {
	// A flush ordered during a shootdown begins only after outstanding
	// requests drain (the stall the shootdown already imposed).
	at = h.clampStall(at)
	for _, l1 := range h.l1s {
		l1.FlushAll(nil) // write-through: nothing dirty
	}
	blocks := h.l2.FlushAll(h.flushBuf[:0])
	h.flushBuf = nil
	return h.writeBack(at, blocks)
}

// FlushPage implements core.Sandboxed: the selective downgrade flush.
func (h *Sandboxed) FlushPage(at sim.Time, ppn arch.PPN) sim.Time {
	at = h.clampStall(at)
	for _, l1 := range h.l1s {
		l1.FlushPage(nil, ppn)
	}
	blocks := h.l2.FlushPage(h.flushBuf[:0], ppn)
	h.flushBuf = nil
	return h.writeBack(at, blocks)
}

// writeBack charges a flush's array scan, writes its dirty L2 blocks back
// and hands the scratch slice back to the hierarchy.
func (h *Sandboxed) writeBack(at sim.Time, blocks []cache.DirtyBlock) sim.Time {
	if h.pr != nil {
		h.pr.Span("gpu/flush_scan", uint64(h.cfg.FlushScanLatency))
	}
	done := at + h.cfg.FlushScanLatency
	for i := range blocks {
		// Writebacks are issued back to back; DRAM bandwidth serializes
		// them, and the flush completes when the last one lands. They are
		// hardware-initiated (ASID 0): the flusher is not a process.
		if t, ok := h.border.WriteBlock(at, 0, blocks[i].Addr, &blocks[i].Data); ok && t > done {
			done = t
		}
	}
	h.flushBuf = blocks[:0]
	h.stall(done)
	return done
}

// InvalidateTLBPage implements core.Sandboxed.
func (h *Sandboxed) InvalidateTLBPage(asid arch.ASID, vpn arch.VPN) {
	for _, t := range h.l1tlbs {
		t.Invalidate(asid, vpn)
	}
}

// InvalidateTLBAll implements core.Sandboxed.
func (h *Sandboxed) InvalidateTLBAll() {
	for _, t := range h.l1tlbs {
		t.Flush()
	}
}

func (h *Sandboxed) stall(until sim.Time) {
	if until > h.stallUntil {
		h.stallUntil = until
	}
}

// OnDowngrade implements hostos.ShootdownListener: the accelerator-side
// cost of a TLB shootdown, paid by trusted and untrusted accelerators
// alike — invalidate the stale translation and drain outstanding requests.
func (h *Sandboxed) OnDowngrade(d hostos.Downgrade) {
	h.Downgrades.Inc()
	h.InvalidateTLBPage(d.ASID, d.VPN)
	h.stall(h.eng.Now() + h.cfg.DrainStall)
}

// Name implements coherence.Agent.
func (h *Sandboxed) Name() string { return h.cfg.Name }

// Trusted implements coherence.Agent: this hierarchy is accelerator-
// resident and untrusted.
func (h *Sandboxed) Trusted() bool { return false }

// Recall implements coherence.Agent: surrender a block to the directory.
func (h *Sandboxed) Recall(addr arch.Phys) ([]byte, bool) {
	for _, l1 := range h.l1s {
		l1.Drop(addr)
	}
	data, dirty, present := h.l2.Extract(addr)
	if !present || !dirty {
		return nil, false
	}
	return data[:], true
}

// RegisterMetrics publishes the hierarchy's counters under s: its own
// traffic directly ("gpu.loads"), the per-CU L1 caches and TLBs aggregated
// ("gpu.l1.hits"), and the shared L2 ("gpu.l2.hits").
func (h *Sandboxed) RegisterMetrics(s stats.Scope) {
	s.Counter("loads", &h.Loads)
	s.Counter("stores", &h.Stores)
	s.Counter("drains", &h.Drains)
	s.Counter("downgrades", &h.Downgrades)

	l1 := s.Scope("l1")
	l1Hits := func() uint64 {
		var n uint64
		for _, c := range h.l1s {
			n += c.HitMiss.Hits.Value()
		}
		return n
	}
	l1Misses := func() uint64 {
		var n uint64
		for _, c := range h.l1s {
			n += c.HitMiss.Misses.Value()
		}
		return n
	}
	l1.CounterFunc("hits", l1Hits)
	l1.CounterFunc("misses", l1Misses)
	l1.Gauge("miss_ratio", func() float64 {
		h, m := l1Hits(), l1Misses()
		if h+m == 0 {
			return 0
		}
		return float64(m) / float64(h+m)
	})

	l1tlb := s.Scope("l1tlb")
	tlbHits := func() uint64 {
		var n uint64
		for _, t := range h.l1tlbs {
			n += t.HitMiss.Hits.Value()
		}
		return n
	}
	tlbMisses := func() uint64 {
		var n uint64
		for _, t := range h.l1tlbs {
			n += t.HitMiss.Misses.Value()
		}
		return n
	}
	l1tlb.CounterFunc("hits", tlbHits)
	l1tlb.CounterFunc("misses", tlbMisses)
	l1tlb.Gauge("miss_ratio", func() float64 {
		h, m := tlbHits(), tlbMisses()
		if h+m == 0 {
			return 0
		}
		return float64(m) / float64(h+m)
	})

	h.l2.RegisterMetrics(s.Scope("l2"))
	if h.border != nil {
		h.border.RegisterMetrics(s.Scope("port"))
	}
}
