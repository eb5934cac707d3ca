package accel

import (
	"bordercontrol/internal/arch"
	"bordercontrol/internal/ats"
	"bordercontrol/internal/cache"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
)

// IOMMUHierarchy is the full-IOMMU safety configuration (paper §5.1): the
// accelerator issues every request by virtual address to the IOMMU, which
// translates and checks it; the accelerator keeps no TLB and no caches.
// The IOMMU's own L2 TLB remains (it caches translations in the trusted
// hardware). Safe, but every access pays translation plus a DRAM trip.
type IOMMUHierarchy struct {
	name       string
	eng        *sim.Engine
	ats        *ats.ATS
	border     *BorderPort
	perReqLat  sim.Time // IOMMU request-processing latency
	drainStall sim.Time
	stallUntil sim.Time

	// port models the IOMMU's finite request throughput: every memory
	// request must be translated and checked by one shared unit. A highly
	// threaded accelerator issuing several requests per cycle queues here —
	// the paper's "DRAM is overwhelmed and performance suffers" effect has
	// this translation/check bottleneck in front of it.
	port *sim.Resource
	pr   *prof.Profiler

	Loads  stats.Counter
	Stores stats.Counter
}

// NewIOMMUHierarchy builds the full-IOMMU path. border must carry a nil
// Border Control: the IOMMU itself is the (trusted) checker, via the page
// walk each translation performs.
func NewIOMMUHierarchy(name string, eng *sim.Engine, atsvc *ats.ATS, border *BorderPort, clock sim.Clock) *IOMMUHierarchy {
	return &IOMMUHierarchy{
		name:       name,
		eng:        eng,
		ats:        atsvc,
		border:     border,
		perReqLat:  clock.Cycles(20),
		drainStall: clock.Cycles(1500),
		port:       sim.NewResource(clock.Cycles(2)), // one request per two cycles
	}
}

// Access implements Hierarchy: translate and check every request at the
// IOMMU, then access memory directly (no accelerator caches to filter
// anything).
func (h *IOMMUHierarchy) Access(at sim.Time, cu int, asid arch.ASID, op Op, data []byte) (sim.Time, error) {
	if h.pr != nil {
		h.pr.Enter("gpu/wavefront")
		defer h.pr.Exit()
	}
	if at < h.stallUntil {
		at = h.stallUntil
	}
	claimed := h.port.Claim(at)
	if h.pr != nil {
		h.pr.Span("iommu/port", uint64(claimed-at)+uint64(h.perReqLat))
	}
	at = claimed + h.perReqLat
	res, err := h.ats.Translate(h.name, asid, op.Addr, op.Kind, at)
	if err != nil {
		return at, err
	}
	at = res.Done
	pa := res.Entry.PPN.Base() + arch.Phys(op.Addr.Offset())
	if op.Kind == arch.Read {
		h.Loads.Inc()
		var buf [arch.BlockSize]byte
		done, ok := h.border.ReadBlock(at, asid, pa, arch.Read, &buf)
		if !ok {
			return done, ErrBlocked
		}
		return done, nil
	}
	h.Stores.Inc()
	// Uncached store: read-modify-write of the block through the IOMMU.
	// Stores are posted once translated — the wavefront does not wait for
	// DRAM, but the write still claims memory bandwidth.
	var buf [arch.BlockSize]byte
	h.border.dram.Store().ReadInto(pa.BlockOf(), buf[:])
	copy(buf[uint64(pa)&arch.BlockMask:], data)
	if _, ok := h.border.WriteBlock(at, asid, pa.BlockOf(), &buf); !ok {
		return at, ErrBlocked
	}
	return at, nil
}

// Drain implements Hierarchy: nothing is cached, nothing to flush.
func (h *IOMMUHierarchy) Drain(at sim.Time) sim.Time { return at }

// OnDowngrade implements hostos.ShootdownListener: the IOMMU drains
// outstanding requests during a shootdown.
func (h *IOMMUHierarchy) OnDowngrade(d hostos.Downgrade) {
	if s := h.eng.Now() + h.drainStall; s > h.stallUntil {
		h.stallUntil = s
	}
}

// Name implements coherence.Agent.
func (h *IOMMUHierarchy) Name() string { return h.name }

// Trusted implements coherence.Agent: the IOMMU path is trusted hardware.
func (h *IOMMUHierarchy) Trusted() bool { return true }

// Recall implements coherence.Agent: nothing is cached.
func (h *IOMMUHierarchy) Recall(addr arch.Phys) ([]byte, bool) { return nil, false }

// CAPIConfig describes the CAPI-like configuration (paper §5.1): caches and
// TLB implemented in the trusted system, farther from the accelerator.
type CAPIConfig struct {
	Name  string
	Clock sim.Clock
	// LinkLatency is the one-way accelerator<->trusted-unit latency added
	// to every request and response.
	LinkLatency sim.Time
	// L2Size and L2Ways size the trusted shared cache.
	L2Size     int
	L2Ways     int
	L2Latency  sim.Time
	DrainStall sim.Time
}

// DefaultCAPIConfig returns the evaluated CAPI-like unit for the given L2
// size.
func DefaultCAPIConfig(name string, clock sim.Clock, l2Size int) CAPIConfig {
	return CAPIConfig{
		Name:  name,
		Clock: clock,
		// The paper models CAPI's looser coupling by removing the L1 and
		// keeping only the shared L2 in trusted hardware; the link adds a
		// couple of cycles each way on top of that.
		LinkLatency: clock.Cycles(2),
		L2Size:      l2Size,
		L2Ways:      8,
		L2Latency:   clock.Cycles(8),
		DrainStall:  clock.Cycles(1500),
	}
}

// CAPIHierarchy models IBM CAPI's philosophy: the accelerator has no
// TLB or caches of its own; a trusted unit on the host side holds the TLB
// (the ATS L2 TLB) and a shared L2 cache. Memory safety is complete, but
// every access crosses the longer link and the accelerator cannot tune the
// cache to its needs.
type CAPIHierarchy struct {
	cfg    CAPIConfig
	eng    *sim.Engine
	ats    *ats.ATS
	border *BorderPort
	l2     *cache.Cache
	pr     *prof.Profiler
	// flushBuf is Drain's scratch slice, taken for the whole writeback
	// loop as in Sandboxed.
	flushBuf []cache.DirtyBlock

	stallUntil sim.Time

	Loads  stats.Counter
	Stores stats.Counter
}

// NewCAPIHierarchy builds the trusted CAPI-like unit.
func NewCAPIHierarchy(cfg CAPIConfig, eng *sim.Engine, atsvc *ats.ATS, border *BorderPort) (*CAPIHierarchy, error) {
	l2, err := cache.New(cache.Config{
		Name:       cfg.Name + "-capi-l2",
		SizeBytes:  cfg.L2Size,
		Ways:       cfg.L2Ways,
		Policy:     cache.WriteBack,
		HitLatency: cfg.L2Latency,
	})
	if err != nil {
		return nil, err
	}
	return &CAPIHierarchy{cfg: cfg, eng: eng, ats: atsvc, border: border, l2: l2}, nil
}

// L2 returns the trusted cache (for tests).
func (h *CAPIHierarchy) L2() *cache.Cache { return h.l2 }

// Access implements Hierarchy.
func (h *CAPIHierarchy) Access(at sim.Time, cu int, asid arch.ASID, op Op, data []byte) (sim.Time, error) {
	if h.pr != nil {
		h.pr.Enter("gpu/wavefront")
		defer h.pr.Exit()
	}
	if at < h.stallUntil {
		at = h.stallUntil
	}
	// Cross to the trusted unit, translate there (trusted TLB), access the
	// trusted cache, and return.
	if h.pr != nil {
		h.pr.Span("capi/link", uint64(h.cfg.LinkLatency))
	}
	at += h.cfg.LinkLatency
	res, err := h.ats.Translate(h.cfg.Name, asid, op.Addr, op.Kind, at)
	if err != nil {
		return at, err
	}
	at = res.Done
	pa := res.Entry.PPN.Base() + arch.Phys(op.Addr.Offset())
	lat := at + h.l2.HitLatency()
	if !h.l2.Lookup(pa) {
		var buf [arch.BlockSize]byte
		done, ok := h.border.ReadBlock(lat, asid, pa, op.Kind, &buf)
		if !ok {
			return done, ErrBlocked
		}
		victim, dirty := h.l2.Fill(pa, buf[:])
		if dirty {
			// Claimed at request time; see Sandboxed.l2Fill.
			h.border.WriteBlock(lat, asid, victim.Addr, &victim.Data)
		}
		lat = done
	}
	if op.Kind == arch.Write {
		// Posted: the wavefront retires once the store is handed to the
		// trusted unit; the fill/writeback above still claimed resources.
		h.Stores.Inc()
		h.l2.Write(pa, data)
		return at, nil
	}
	h.Loads.Inc()
	return lat + h.cfg.LinkLatency, nil
}

// Drain implements Hierarchy: flush the trusted cache at kernel end.
func (h *CAPIHierarchy) Drain(at sim.Time) sim.Time {
	blocks := h.l2.FlushAll(h.flushBuf[:0])
	h.flushBuf = nil
	done := at
	for i := range blocks {
		if t, ok := h.border.WriteBlock(at, 0, blocks[i].Addr, &blocks[i].Data); ok && t > done {
			done = t
		}
	}
	h.flushBuf = blocks[:0]
	return done
}

// OnDowngrade implements hostos.ShootdownListener. The trusted unit's
// caches hold physical addresses and need no flush; it drains outstanding
// requests like any other agent.
func (h *CAPIHierarchy) OnDowngrade(d hostos.Downgrade) {
	if s := h.eng.Now() + h.cfg.DrainStall; s > h.stallUntil {
		h.stallUntil = s
	}
}

// Name implements coherence.Agent.
func (h *CAPIHierarchy) Name() string { return h.cfg.Name }

// Trusted implements coherence.Agent: CAPI's caches live in trusted
// hardware.
func (h *CAPIHierarchy) Trusted() bool { return true }

// Recall implements coherence.Agent.
func (h *CAPIHierarchy) Recall(addr arch.Phys) ([]byte, bool) {
	data, dirty, present := h.l2.Extract(addr)
	if !present || !dirty {
		return nil, false
	}
	return data[:], true
}

// SetProfiler attaches (or, with nil, detaches) a simulated-time profiler
// on the hierarchy and its border port.
func (h *IOMMUHierarchy) SetProfiler(p *prof.Profiler) {
	h.pr = p
	if h.border != nil {
		h.border.SetProfiler(p)
	}
}

// SetProfiler attaches (or, with nil, detaches) a simulated-time profiler
// on the hierarchy and its border port.
func (h *CAPIHierarchy) SetProfiler(p *prof.Profiler) {
	h.pr = p
	if h.border != nil {
		h.border.SetProfiler(p)
	}
}

// RegisterMetrics publishes the IOMMU path's counters under s
// ("gpu.loads", "gpu.stores", "gpu.port.*").
func (h *IOMMUHierarchy) RegisterMetrics(s stats.Scope) {
	s.Counter("loads", &h.Loads)
	s.Counter("stores", &h.Stores)
	if h.border != nil {
		h.border.RegisterMetrics(s.Scope("port"))
	}
}

// RegisterMetrics publishes the CAPI path's counters under s ("gpu.loads",
// "gpu.l2.*", "gpu.port.*").
func (h *CAPIHierarchy) RegisterMetrics(s stats.Scope) {
	s.Counter("loads", &h.Loads)
	s.Counter("stores", &h.Stores)
	h.l2.RegisterMetrics(s.Scope("l2"))
	if h.border != nil {
		h.border.RegisterMetrics(s.Scope("port"))
	}
}
