package core

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
)

// Sandboxed is what Border Control needs from the accelerator complex it
// guards: the ability to request cache flushes (whose dirty writebacks come
// back through the border, where they are still checked against the
// pre-downgrade permissions) and TLB invalidations.
type Sandboxed interface {
	// FlushPage writes back and invalidates all accelerator-cached blocks
	// of the physical page, returning when the flush completes. A
	// misbehaving accelerator may do nothing; safety does not depend on it
	// (paper §3.2.4).
	FlushPage(at sim.Time, ppn arch.PPN) sim.Time
	// FlushAll writes back and invalidates the entire accelerator cache
	// hierarchy.
	FlushAll(at sim.Time) sim.Time
	// InvalidateTLBPage drops one accelerator TLB translation.
	InvalidateTLBPage(asid arch.ASID, vpn arch.VPN)
	// InvalidateTLBAll flushes the accelerator TLBs.
	InvalidateTLBAll()
}

// Config sets Border Control's structures and policies.
type Config struct {
	// UseBCC enables the Border Control Cache; without it every check
	// reads the Protection Table in memory (the BC-noBCC configuration).
	UseBCC bool
	// BCC is the cache geometry when UseBCC is set.
	BCC BCCConfig
	// BCCLatency is the BCC probe latency (10 GPU cycles in Table 3).
	BCCLatency sim.Time
	// TableLatency is EXTRA latency added to every Protection Table read
	// beyond the DRAM access itself. The paper's 100-cycle table access
	// (Table 3) emerges from the DRAM model (a row miss costs ~100 GPU
	// cycles), so the default extra is zero; the ablation benches sweep it.
	TableLatency sim.Time
	// SelectiveFlush flushes only the affected page on a permission
	// downgrade instead of the whole accelerator cache (paper §3.2.4's
	// optimization).
	SelectiveFlush bool
	// EagerPopulate pre-fills the Protection Table with every page the
	// process has mapped at ProcessStart, instead of the paper's lazy
	// population. Ablation only; the paper argues lazy is cheaper.
	EagerPopulate bool
	// DisableOnViolation makes the border refuse all further traffic after
	// the first violation (the "disabling the accelerator" OS response).
	DisableOnViolation bool
}

// DefaultConfig returns the paper's evaluated Border Control-BCC
// configuration for a GPU clock.
func DefaultConfig(gpuClock sim.Clock) Config {
	return Config{
		UseBCC:         true,
		BCC:            DefaultBCCConfig(),
		BCCLatency:     gpuClock.Cycles(10),
		SelectiveFlush: true,
	}
}

// TraceEvent is one Border Control event, exported through TraceSink for
// trace-driven BCC geometry studies (paper Figure 6).
type TraceEvent struct {
	// Insert is true for a Protection Table insertion (ATS translation)
	// and false for a request check.
	Insert bool
	PPN    arch.PPN
}

// Decision is the outcome of a border check.
type Decision struct {
	// Allowed reports whether the request may proceed to host memory.
	Allowed bool
	// Done is when the permission check result is available. For reads the
	// check proceeds in parallel with the memory access (paper §3.1.1), so
	// the effective completion is max(check, data); writes must not reach
	// memory until the check passes.
	Done sim.Time
}

// BorderControl guards the border of one accelerator. It implements
// ats.Observer (protection-table insertion) and hostos.ShootdownListener
// (permission downgrades).
type BorderControl struct {
	name string
	cfg  Config
	os   *hostos.OS
	dram *memory.DRAM
	eng  *sim.Engine

	table      *ProtectionTable
	tableBase  arch.PPN
	tableAlloc *hostos.FrameAllocator // where PT frames come from
	bcc        *BCC
	accel      Sandboxed

	useCount int
	active   map[arch.ASID]bool
	disabled bool

	// TraceSink, when set, receives every check and insertion event.
	TraceSink func(TraceEvent)

	// tr receives timeline events when a tracer is attached. trChecks
	// caches tr.Enabled("border.check") so the per-request hot path pays
	// one branch, not a map lookup.
	tr       *trace.Tracer
	trChecks bool

	// pr, when attached, receives simulated-time attribution for every
	// crossing (border/check → border/bcc / host/ptwalk frames).
	pr *prof.Profiler

	// Stats.
	Checks        stats.Counter
	ReadChecks    stats.Counter
	WriteChecks   stats.Counter
	Violations    stats.Counter
	TableReads    stats.Counter
	TableWrites   stats.Counter
	Insertions    stats.Counter
	Downgrades    stats.Counter
	CacheFlushes  stats.Counter
	FlushStallsPs stats.Counter

	// Latency distributions in simulated picoseconds, split by outcome
	// class: the request-to-verdict time for BCC hits, BCC misses (and
	// noBCC lookups) that walked the Protection Table, and denials.
	// Always-on: Record is zero-alloc and feeds nothing back into timing.
	HitLatency    stats.Histogram
	WalkLatency   stats.Histogram
	DeniedLatency stats.Histogram
	// FlushDuration distributes per-downgrade flush stall times, the
	// per-event view of the FlushStallsPs total.
	FlushDuration stats.Histogram
	// asidLatency splits crossing latency by requester in multi-process
	// runs (ASIDs 1..4; a fixed array keeps the record path alloc-free).
	// Only populated while more than one process shares the border.
	asidLatency [4]stats.Histogram
}

// BorderControl is the flat-table design in the ProtectionArchitecture
// registry (DefaultDesign).
var _ ProtectionArchitecture = (*BorderControl)(nil)

// New returns a Border Control instance for the named accelerator. The
// Protection Table is allocated lazily at the first ProcessStart (Figure
// 3a).
func New(name string, cfg Config, os *hostos.OS, dram *memory.DRAM, eng *sim.Engine) (*BorderControl, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bc := &BorderControl{
		name:   name,
		cfg:    cfg,
		os:     os,
		dram:   dram,
		eng:    eng,
		active: make(map[arch.ASID]bool),
	}
	if cfg.UseBCC {
		b, err := NewBCC(cfg.BCC)
		if err != nil {
			return nil, err
		}
		bc.bcc = b
	}
	return bc, nil
}

// Name returns the accelerator name this border guards.
func (bc *BorderControl) Name() string { return bc.name }

// Design identifies this implementation in the design registry.
func (bc *BorderControl) Design() string { return "flat" }

// PermAt returns the effective border permission for ppn — the flat table
// entry. Audit-only; charges no simulated time.
func (bc *BorderControl) PermAt(ppn arch.PPN) arch.Perm {
	if bc.table == nil || !bc.table.InBounds(ppn) {
		return arch.PermNone
	}
	return bc.table.Lookup(ppn)
}

// CrossingChecks returns how many border checks have been performed.
func (bc *BorderControl) CrossingChecks() uint64 { return bc.Checks.Value() }

// SetTraceSink installs (or, with nil, removes) the per-event sink used by
// trace-driven BCC studies (Figure 6).
func (bc *BorderControl) SetTraceSink(fn func(TraceEvent)) { bc.TraceSink = fn }

// Table returns the live Protection Table, or nil when no process is
// active.
func (bc *BorderControl) Table() *ProtectionTable { return bc.table }

// Cache returns the BCC, or nil in the noBCC configuration.
func (bc *BorderControl) Cache() *BCC { return bc.bcc }

// SetAccelerator wires the sandboxed accelerator complex. Must be called
// before any downgrade can be handled.
func (bc *BorderControl) SetAccelerator(a Sandboxed) { bc.accel = a }

// SetTableAllocator overrides where Protection Table frames are allocated.
// Under virtualization (paper §3.4.2) the trusted VMM supplies them from
// host-physical memory no guest partition can reach; the table still
// indexes bare-metal physical addresses, so nothing else changes.
func (bc *BorderControl) SetTableAllocator(f *hostos.FrameAllocator) { bc.tableAlloc = f }

// SetTracer attaches (or, with nil, detaches) a timeline tracer. Border
// events land in the "border" category; per-request check spans go to the
// high-volume "border.check" category, recorded only when that category
// is explicitly enabled.
func (bc *BorderControl) SetTracer(t *trace.Tracer) {
	bc.tr = t
	bc.trChecks = t.Enabled("border.check")
}

// SetProfiler attaches (or, with nil, detaches) a simulated-time profiler.
func (bc *BorderControl) SetProfiler(p *prof.Profiler) { bc.pr = p }

// RegisterMetrics publishes the border's counters under s
// ("border.checks", "border.violations", "border.bcc.miss_ratio", ...).
func (bc *BorderControl) RegisterMetrics(s stats.Scope) {
	s.Counter("checks", &bc.Checks)
	s.Counter("read_checks", &bc.ReadChecks)
	s.Counter("write_checks", &bc.WriteChecks)
	s.Counter("violations", &bc.Violations)
	s.Counter("insertions", &bc.Insertions)
	s.Counter("table_reads", &bc.TableReads)
	s.Counter("table_writes", &bc.TableWrites)
	s.Counter("downgrades", &bc.Downgrades)
	s.Counter("cache_flushes", &bc.CacheFlushes)
	s.Counter("flush_stall_ps", &bc.FlushStallsPs)
	lat := s.Scope("latency_ps")
	lat.Histogram("bcc_hit", &bc.HitLatency)
	lat.Histogram("pt_walk", &bc.WalkLatency)
	lat.Histogram("denied", &bc.DeniedLatency)
	lat.Histogram("downgrade_flush", &bc.FlushDuration)
	for i := range bc.asidLatency {
		lat.Histogram(fmt.Sprintf("asid%d", i+1), &bc.asidLatency[i])
	}
	if bc.bcc != nil {
		bc.bcc.RegisterMetrics(s.Scope("bcc"))
	}
}

// Disabled reports whether the border has shut the accelerator out.
func (bc *BorderControl) Disabled() bool { return bc.disabled }

// ActiveProcesses returns how many processes currently run on the
// accelerator.
func (bc *BorderControl) ActiveProcesses() int { return bc.useCount }

// ProcessStart implements Figure 3a. If the accelerator was idle, the OS
// allocates and zeroes a Protection Table and programs the base and bounds
// registers; otherwise the use count is incremented and the existing table
// is shared (union permissions, paper §3.3).
func (bc *BorderControl) ProcessStart(asid arch.ASID) error {
	if bc.table == nil {
		alloc := bc.tableAlloc
		if alloc == nil {
			alloc = bc.os.Frames()
		}
		pages := bc.os.Store().Pages()
		frames := (TableBytes(pages) + arch.PageSize - 1) / arch.PageSize
		base, err := alloc.AllocContiguous(frames)
		if err != nil {
			return fmt.Errorf("core: allocating protection table: %w", err)
		}
		t, err := NewProtectionTable(bc.os.Store(), base.Base(), pages)
		if err != nil {
			alloc.FreeContiguous(base, frames)
			return err
		}
		t.Zero()
		bc.table = t
		bc.tableBase = base
	}
	bc.useCount++
	bc.active[asid] = true
	if bc.tr != nil {
		bc.tr.Instant("border", "process start", uint64(bc.eng.Now()))
	}
	if bc.cfg.EagerPopulate {
		if p, ok := bc.os.Process(asid); ok {
			p.ForEachMapped(func(_ arch.VPN, ppn arch.PPN, perm arch.Perm) {
				bc.insert(bc.eng.Now(), ppn, perm)
			})
		}
	}
	return nil
}

// ProcessComplete implements Figure 3e: flush the accelerator caches,
// invalidate BCC and accelerator TLB, zero the Protection Table, and — if
// the accelerator is now idle — return the table's memory to the OS. It
// returns the time the completion protocol finishes.
func (bc *BorderControl) ProcessComplete(at sim.Time, asid arch.ASID) sim.Time {
	if !bc.active[asid] {
		return at
	}
	done := at
	if bc.accel != nil {
		done = bc.accel.FlushAll(at)
		bc.accel.InvalidateTLBAll()
	}
	if bc.tr != nil {
		bc.tr.Complete("border", "process complete", uint64(at), uint64(done-at))
	}
	if bc.bcc != nil {
		bc.bcc.InvalidateAll()
	}
	if bc.table != nil {
		bc.table.Zero()
	}
	delete(bc.active, asid)
	bc.useCount--
	if bc.useCount == 0 && bc.table != nil {
		alloc := bc.tableAlloc
		if alloc == nil {
			alloc = bc.os.Frames()
		}
		frames := (bc.table.SizeBytes() + arch.PageSize - 1) / arch.PageSize
		alloc.FreeContiguous(bc.tableBase, frames)
		bc.table = nil
	}
	// The flush above ran with the table still populated (in-flight
	// writebacks pass under the old permissions); only now that the epoch is
	// over does the OS learn the session ended.
	bc.os.NoteCompletion(asid)
	return done
}

// OnTranslation implements ats.Observer: the Protection Table insertion of
// Figure 3b. Permissions only widen here. Huge-page translations fan out
// to every covered 4 KB page (paper §3.4.4).
func (bc *BorderControl) OnTranslation(at sim.Time, asid arch.ASID, vpn arch.VPN, ppn arch.PPN, perm arch.Perm, huge bool) {
	if !bc.active[asid] || bc.table == nil {
		return
	}
	if huge {
		head := ppn - ppn%arch.PagesPerHugePage
		for i := arch.PPN(0); i < arch.PagesPerHugePage; i++ {
			bc.table.Merge(head+i, perm)
			if bc.bcc != nil {
				bc.bcc.Update(head+i, perm, bc.table)
			}
		}
		bc.Insertions.Inc()
		// One table block covers the whole 2 MB fan-out. The write-through
		// is posted: it claims bandwidth from the present moment, not from
		// the translation's completion time.
		bc.dram.AccessDone(bc.eng.Now(), bc.table.BlockAddr(head), arch.Write)
		bc.TableWrites.Inc()
		return
	}
	bc.insert(at, ppn, perm)
}

func (bc *BorderControl) insert(at sim.Time, ppn arch.PPN, perm arch.Perm) {
	bc.Insertions.Inc()
	if !bc.table.InBounds(ppn) {
		return
	}
	if bc.TraceSink != nil {
		bc.TraceSink(TraceEvent{Insert: true, PPN: ppn})
	}
	changed := bc.table.Merge(ppn, perm)
	if bc.bcc != nil {
		_, filled := bc.bcc.Update(ppn, perm, bc.table)
		if filled {
			bc.TableReads.Inc()
			bc.dram.AccessDone(bc.eng.Now(), bc.table.BlockAddr(ppn), arch.Read)
		}
	} else {
		// Without a BCC the insertion is a narrow read-modify-write of the
		// table entry in memory.
		bc.TableReads.Inc()
		bc.dram.AccessDoneBytes(bc.eng.Now(), bc.table.BlockAddr(ppn), arch.Read, 8)
	}
	if changed {
		bc.TableWrites.Inc()
		bc.dram.AccessDoneBytes(bc.eng.Now(), bc.table.BlockAddr(ppn), arch.Write, 8)
	}
}

// Check implements Figure 3c: every accelerator memory request is checked
// before it reaches the host memory system. Blocked requests raise an
// exception to the OS, attributed to the requesting ASID.
func (bc *BorderControl) Check(at sim.Time, asid arch.ASID, addr arch.Phys, kind arch.AccessKind) Decision {
	bc.Checks.Inc()
	if kind == arch.Write {
		bc.WriteChecks.Inc()
	} else {
		bc.ReadChecks.Inc()
	}
	if bc.pr != nil {
		bc.pr.Enter("border/check")
		defer bc.pr.Exit()
	}
	if bc.disabled || bc.table == nil {
		d := bc.deny(at, asid, addr, kind)
		bc.recordLatency(&bc.DeniedLatency, at, d.Done, asid)
		return d
	}
	ppn := addr.PageOf()
	if bc.TraceSink != nil {
		bc.TraceSink(TraceEvent{PPN: ppn})
	}
	// The bounds register is checked before the table is indexed.
	if !bc.table.InBounds(ppn) {
		d := bc.deny(at, asid, addr, kind)
		bc.recordLatency(&bc.DeniedLatency, at, d.Done, asid)
		return d
	}
	var perm arch.Perm
	walked := false
	done := at
	if bc.bcc != nil {
		done += bc.cfg.BCCLatency
		if bc.pr != nil {
			bc.pr.Span("border/bcc", uint64(bc.cfg.BCCLatency))
		}
		p, hit := bc.bcc.Probe(ppn)
		if hit {
			perm = p
		} else {
			perm = bc.bcc.Fill(ppn, bc.table)
			bc.TableReads.Inc()
			walked = true
			walkStart := done
			done = bc.tableAccess(done, ppn)
			if bc.pr != nil {
				bc.pr.Span("host/ptwalk", uint64(done-walkStart))
			}
		}
	} else {
		bc.TableReads.Inc()
		perm = bc.table.Lookup(ppn)
		walked = true
		done = bc.tableAccess(at, ppn)
		if bc.pr != nil {
			bc.pr.Span("host/ptwalk", uint64(done-at))
		}
	}
	if !perm.Allows(kind.Need()) {
		d := bc.deny(done, asid, addr, kind)
		bc.recordLatency(&bc.DeniedLatency, at, d.Done, asid)
		return d
	}
	if walked {
		bc.recordLatency(&bc.WalkLatency, at, done, asid)
	} else {
		bc.recordLatency(&bc.HitLatency, at, done, asid)
	}
	if bc.trChecks {
		name := "check read"
		if kind == arch.Write {
			name = "check write"
		}
		bc.tr.Complete("border.check", name, uint64(at), uint64(done-at))
	}
	return Decision{Allowed: true, Done: done}
}

// recordLatency records one crossing's request-to-verdict latency into the
// outcome-class histogram, and into the per-ASID split while more than one
// process shares the border.
func (bc *BorderControl) recordLatency(h *stats.Histogram, at, done sim.Time, asid arch.ASID) {
	var lat uint64
	if done > at {
		lat = uint64(done - at)
	}
	h.Record(lat)
	if bc.useCount > 1 && asid >= 1 && int(asid) <= len(bc.asidLatency) {
		bc.asidLatency[asid-1].Record(lat)
	}
}

// tableAccess charges one Protection Table read: a narrow DRAM access (a
// permission lookup moves one word, not a whole block) plus any configured
// extra latency. On a row miss this costs ~100 GPU cycles — the Table 3
// figure.
func (bc *BorderControl) tableAccess(at sim.Time, ppn arch.PPN) sim.Time {
	return bc.dram.AccessDoneBytes(at, bc.table.BlockAddr(ppn), arch.Read, 8) + bc.cfg.TableLatency
}

// deny records a violation, notifies the OS, and returns a blocking
// decision. Requested read data is not returned and writes do not proceed.
//
// The culprit is the ASID the request carried — even one no longer active
// on this border (a replay after ProcessComplete still names who replayed).
// Only hardware-initiated crossings (asid 0) fall back to the single-active
// heuristic; with several processes co-scheduled an unattributed violation
// blames nobody rather than the wrong process.
func (bc *BorderControl) deny(at sim.Time, asid arch.ASID, addr arch.Phys, kind arch.AccessKind) Decision {
	bc.Violations.Inc()
	if bc.tr != nil {
		bc.tr.Instant("border", "violation", uint64(at))
	}
	culprit := asid
	if culprit == 0 && len(bc.active) == 1 {
		for a := range bc.active {
			culprit = a
		}
	}
	if bc.cfg.DisableOnViolation {
		bc.disabled = true
	}
	bc.os.ReportViolation(hostos.Violation{
		Accelerator: bc.name,
		ASID:        culprit,
		Addr:        addr,
		Kind:        kind,
	}, culprit)
	return Decision{Allowed: false, Done: at}
}

// OnDowngrade implements hostos.ShootdownListener: the memory-mapping
// update protocol of Figure 3d. If the page may be dirty in the
// accelerator (its table entry has the write bit), the accelerator caches
// are flushed BEFORE the table and BCC are updated, so the in-flight
// writebacks still pass the border under the old permissions.
func (bc *BorderControl) OnDowngrade(d hostos.Downgrade) {
	if !bc.active[d.ASID] || bc.table == nil || !bc.table.InBounds(d.PPN) {
		return
	}
	bc.Downgrades.Inc()
	now := bc.eng.Now()
	old := bc.table.Lookup(d.PPN)
	if old == arch.PermNone && d.New.Border() == arch.PermNone {
		// Never inserted; nothing cached, nothing to do — but the
		// accelerator TLB may still hold the stale translation.
		if bc.accel != nil {
			bc.accel.InvalidateTLBPage(d.ASID, d.VPN)
		}
		return
	}
	if old.CanWrite() {
		bc.CacheFlushes.Inc()
		start := now
		if bc.pr != nil {
			bc.pr.Enter("border/downgrade")
		}
		var done sim.Time
		if bc.cfg.SelectiveFlush {
			done = bc.flushPage(start, d.PPN)
			bc.table.Set(d.PPN, d.New)
			if bc.bcc != nil {
				bc.bcc.Downgrade(d.PPN, d.New)
			}
		} else {
			// Equivalent alternative from §3.2.4: flush everything, zero
			// the table, invalidate BCC and TLB wholesale.
			done = bc.flushAll(start)
			bc.table.Zero()
			if bc.bcc != nil {
				bc.bcc.InvalidateAll()
			}
			if bc.accel != nil {
				bc.accel.InvalidateTLBAll()
			}
		}
		bc.FlushStallsPs.Add(uint64(done - start))
		bc.FlushDuration.Record(uint64(done - start))
		if bc.pr != nil {
			bc.pr.Attribute(uint64(done - start))
			bc.pr.Exit()
		}
		if bc.tr != nil {
			bc.tr.Complete("border", "downgrade flush", uint64(start), uint64(done-start))
		}
	} else {
		// Read-only (e.g. copy-on-write) pages cannot be dirty: update in
		// place with no flush (paper §3.2.4).
		bc.table.Set(d.PPN, d.New)
		if bc.bcc != nil {
			bc.bcc.Downgrade(d.PPN, d.New)
		}
	}
	if bc.accel != nil && bc.cfg.SelectiveFlush {
		bc.accel.InvalidateTLBPage(d.ASID, d.VPN)
	}
}

func (bc *BorderControl) flushPage(at sim.Time, ppn arch.PPN) sim.Time {
	if bc.accel == nil {
		return at
	}
	return bc.accel.FlushPage(at, ppn)
}

func (bc *BorderControl) flushAll(at sim.Time) sim.Time {
	if bc.accel == nil {
		return at
	}
	return bc.accel.FlushAll(at)
}
