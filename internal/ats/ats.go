// Package ats models the Address Translation Service provided by the IOMMU
// (paper §2.3): the trusted hardware that walks process page tables on
// behalf of accelerators, caches translations in a trusted L2 TLB, and —
// with Border Control — reports every completed translation so the
// Protection Table can be updated (paper §3.2.2).
//
// The same component serves both roles evaluated in the paper:
//
//   - ATS-only / Border Control modes: the accelerator calls Translate on
//     its own TLB misses and then issues physical requests itself.
//   - Full-IOMMU mode: the accelerator sends virtual addresses with every
//     request and the IOMMU translates each one inline.
package ats

import (
	"errors"
	"fmt"
	"slices"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/pagetable"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tlb"
)

// Errors returned by translation.
var (
	// ErrBadASID means the accelerator presented an address-space ID that
	// is not registered as running on it. The ATS refuses such requests
	// outright (paper §3.2.2).
	ErrBadASID = errors.New("ats: address space not active on this accelerator")
	// ErrFault means the address has no valid mapping and the OS could not
	// (or chose not to) fault one in.
	ErrFault = errors.New("ats: translation fault")
	// ErrPerm means the mapping exists but does not allow the access.
	ErrPerm = errors.New("ats: insufficient permission")
)

// TableSource resolves an address space to its page table. The trusted OS
// implements this.
type TableSource interface {
	TableFor(asid arch.ASID) (*pagetable.Table, bool)
	// FaultIn asks the OS to service a page fault at v. It returns an
	// error when the address is invalid for the process.
	FaultIn(asid arch.ASID, v arch.Virt, kind arch.AccessKind) error
}

// Observer is notified of every completed translation. Border Control's
// protection-table insertion registers here. at is the simulation time of
// the translation; insertions happen off the translation's critical path
// but still consume memory bandwidth.
type Observer interface {
	OnTranslation(at sim.Time, asid arch.ASID, vpn arch.VPN, ppn arch.PPN, perm arch.Perm, huge bool)
}

// Config sets ATS timing.
type Config struct {
	// TLBEntries is the trusted L2 TLB size (512 in Table 3).
	TLBEntries int
	// TLBWays is its associativity.
	TLBWays int
	// TLBLatency is charged on every translation request.
	TLBLatency sim.Time
	// FaultPenalty is charged when the OS must service a page fault.
	FaultPenalty sim.Time
}

// DefaultConfig mirrors Table 3: a 512-entry shared L2 TLB.
func DefaultConfig(gpuClock sim.Clock) Config {
	return Config{
		TLBEntries:   512,
		TLBWays:      8,
		TLBLatency:   gpuClock.Cycles(2),
		FaultPenalty: 5 * sim.Microsecond,
	}
}

// ATS is the translation service instance shared by the accelerators of one
// system.
type ATS struct {
	cfg       Config
	tables    TableSource
	dram      *memory.DRAM
	l2tlb     *tlb.TLB
	observers []Observer
	active    []activeSet // per accelerator, in first-activation order
	pr        *prof.Profiler

	Walks       stats.Counter
	WalkReads   stats.Counter
	Faults      stats.Counter
	Rejected    stats.Counter
	Translation stats.Counter

	// TranslateLatency distributes request-to-response latency of
	// successful translations in simulated picoseconds.
	TranslateLatency stats.Histogram
}

// activeSet lists the ASIDs active on one accelerator. A system has a
// handful of accelerators and processes, so a scan beats hashing the name.
type activeSet struct {
	accel string
	asids []arch.ASID
}

// New returns an ATS over the given page-table source and DRAM (whose
// bandwidth page walks consume).
func New(cfg Config, tables TableSource, dram *memory.DRAM) (*ATS, error) {
	l2, err := tlb.New(cfg.TLBEntries, cfg.TLBWays)
	if err != nil {
		return nil, fmt.Errorf("ats: %w", err)
	}
	return &ATS{cfg: cfg, tables: tables, dram: dram, l2tlb: l2}, nil
}

// AddObserver registers a translation observer.
func (a *ATS) AddObserver(o Observer) { a.observers = append(a.observers, o) }

// L2TLB exposes the trusted TLB (for statistics and shootdowns).
func (a *ATS) L2TLB() *tlb.TLB { return a.l2tlb }

// Activate records that the process runs on the named accelerator, making
// its ASID valid in translation requests from that accelerator.
func (a *ATS) Activate(accel string, asid arch.ASID) {
	set := a.activeSet(accel)
	if set == nil {
		a.active = append(a.active, activeSet{accel: accel})
		set = &a.active[len(a.active)-1]
	}
	if !slices.Contains(set.asids, asid) {
		set.asids = append(set.asids, asid)
	}
}

// Deactivate removes the process from the accelerator and drops its
// translations from the trusted TLB.
func (a *ATS) Deactivate(accel string, asid arch.ASID) {
	if set := a.activeSet(accel); set != nil {
		if i := slices.Index(set.asids, asid); i >= 0 {
			set.asids = slices.Delete(set.asids, i, i+1)
		}
	}
	a.l2tlb.InvalidateASID(asid)
}

// ActiveOn reports whether asid is active on the named accelerator.
func (a *ATS) ActiveOn(accel string, asid arch.ASID) bool {
	set := a.activeSet(accel)
	return set != nil && slices.Contains(set.asids, asid)
}

// activeSet returns the named accelerator's entry, or nil.
func (a *ATS) activeSet(accel string) *activeSet {
	for i := range a.active {
		if a.active[i].accel == accel {
			return &a.active[i]
		}
	}
	return nil
}

// Result is a completed translation.
type Result struct {
	Entry tlb.Entry
	Huge  bool
	// Done is the simulation time at which the translation response is
	// available.
	Done sim.Time
}

// Translate services a translation request issued by accelerator accel at
// time 'at'. On success every observer is notified (this is the Protection
// Table insertion point). The access kind is used only to decide whether a
// page fault should be serviced; the returned entry carries the full page
// permissions so the accelerator TLB can satisfy later writes to a
// read-translated page without a new walk.
func (a *ATS) Translate(accel string, asid arch.ASID, v arch.Virt, kind arch.AccessKind, at sim.Time) (Result, error) {
	a.Translation.Inc()
	if !a.ActiveOn(accel, asid) {
		a.Rejected.Inc()
		return Result{}, fmt.Errorf("%w: accel=%q asid=%d", ErrBadASID, accel, asid)
	}
	if a.pr != nil {
		a.pr.Enter("iommu/translate")
		defer a.pr.Exit()
		a.pr.Span("iommu/l2tlb", uint64(a.cfg.TLBLatency))
	}
	done := at + a.cfg.TLBLatency
	vpn := v.PageOf()
	if e, ok := a.l2tlb.Lookup(asid, vpn); ok {
		res := Result{Entry: e, Done: done}
		a.TranslateLatency.Record(uint64(done - at))
		a.notify(done, asid, vpn, e.PPN, e.Perm, false)
		return res, nil
	}
	table, ok := a.tables.TableFor(asid)
	if !ok {
		a.Rejected.Inc()
		return Result{}, fmt.Errorf("%w: no table for asid=%d", ErrBadASID, asid)
	}
	tr, err := table.Walk(v)
	a.Walks.Inc()
	if err != nil {
		// Page fault: ask the OS to map the page, then retry once.
		a.Faults.Inc()
		if ferr := a.tables.FaultIn(asid, v, kind); ferr != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrFault, ferr)
		}
		done += a.cfg.FaultPenalty
		if a.pr != nil {
			a.pr.Span("host/fault", uint64(a.cfg.FaultPenalty))
		}
		tr, err = table.Walk(v)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrFault, err)
		}
	}
	// Charge the page walk: each level is a dependent 8-byte PTE read.
	// Bandwidth for all levels is claimed at walk start (narrow reads must
	// not reserve a channel into the future, which would stall unrelated
	// traffic in the next-free-time channel model); the extra serial
	// latency of the dependent levels is added on top, at row-hit cost —
	// upper-level PTEs are hot. The walker does not report the table frame
	// addresses, so spread the accesses across channels by level.
	walkStart := done
	for i := 0; i < tr.Reads; i++ {
		a.WalkReads.Inc()
		d := a.dram.AccessDoneBytes(walkStart, arch.Phys(uint64(i)<<arch.BlockShift), arch.Read, 8)
		if d > done {
			done = d
		}
	}
	if tr.Reads > 1 {
		done += sim.Time(tr.Reads-1) * a.dram.Config().RowHitLatency
	}
	if a.pr != nil {
		a.pr.Span("host/ptwalk", uint64(done-walkStart))
	}
	if !tr.Perm.Allows(kind.Need()) {
		return Result{}, fmt.Errorf("%w: %s at %#x has %s", ErrPerm, kind, v, tr.Perm)
	}
	e := tlb.Entry{ASID: asid, VPN: vpn, PPN: tr.PPN, Perm: tr.Perm}
	a.l2tlb.Insert(e)
	a.TranslateLatency.Record(uint64(done - at))
	a.notify(done, asid, vpn, tr.PPN, tr.Perm, tr.Huge)
	return Result{Entry: e, Huge: tr.Huge, Done: done}, nil
}

func (a *ATS) notify(at sim.Time, asid arch.ASID, vpn arch.VPN, ppn arch.PPN, perm arch.Perm, huge bool) {
	for _, o := range a.observers {
		o.OnTranslation(at, asid, vpn, ppn, perm, huge)
	}
}

// InvalidatePage drops a translation from the trusted TLB (shootdown).
func (a *ATS) InvalidatePage(asid arch.ASID, vpn arch.VPN) {
	a.l2tlb.Invalidate(asid, vpn)
}

// RegisterMetrics publishes the IOMMU/ATS counters under s
// ("iommu.translations", "iommu.walks", "iommu.l2tlb.hits", ...).
func (a *ATS) RegisterMetrics(s stats.Scope) {
	s.Counter("translations", &a.Translation)
	s.Counter("walks", &a.Walks)
	s.Counter("walk_reads", &a.WalkReads)
	s.Counter("faults", &a.Faults)
	s.Counter("rejected", &a.Rejected)
	s.Histogram("translate_latency_ps", &a.TranslateLatency)
	a.l2tlb.RegisterMetrics(s.Scope("l2tlb"))
}

// SetProfiler attaches (or, with nil, detaches) a simulated-time profiler.
func (a *ATS) SetProfiler(p *prof.Profiler) { a.pr = p }
