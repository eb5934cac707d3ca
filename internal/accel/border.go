package accel

import (
	"reflect"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/coherence"
	"bordercontrol/internal/core"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
)

// BorderPort is the physical-address path from an accelerator's outermost
// cache into the trusted memory system. Depending on configuration it
// applies a Border Control check (nil bc means unchecked — the unsafe
// ATS-only baseline or the inherently-trusted CAPI path), then goes through
// the coherence directory to DRAM.
type BorderPort struct {
	bc         core.ProtectionArchitecture // nil unless a border design guards this port
	check      core.Checker                // nil: no border checking
	dir        *coherence.Directory
	agent      coherence.AgentID
	dram       *memory.DRAM
	dirLatency sim.Time
	pr         *prof.Profiler

	Reads         stats.Counter
	Writes        stats.Counter
	BlockedReads  stats.Counter
	BlockedWrites stats.Counter

	// ReadLatency and WriteLatency distribute the request-to-completion
	// time of every block crossing (all outcomes, including blocked ones)
	// in simulated picoseconds.
	ReadLatency  stats.Histogram
	WriteLatency stats.Histogram
}

// NewBorderPort wires a border port. bc may be nil for unchecked paths;
// a typed-nil design pointer is treated the same as a nil interface.
// agent is the accelerator's directory agent ID.
func NewBorderPort(bc core.ProtectionArchitecture, dir *coherence.Directory, agent coherence.AgentID, dram *memory.DRAM, dirLatency sim.Time) *BorderPort {
	p := &BorderPort{dir: dir, agent: agent, dram: dram, dirLatency: dirLatency}
	if !isNilChecker(bc) {
		p.bc = bc
		p.check = bc
	}
	return p
}

// BC returns the attached border design, or nil.
func (p *BorderPort) BC() core.ProtectionArchitecture { return p.bc }

// SetChecker installs an arbitrary border checker (e.g. core.TrustZone, or
// the adversary harness's auditing oracle) in place of the design. Pass
// nil to remove checking entirely; a typed-nil checker (a nil design
// pointer boxed in the interface) also removes it — the hot path calls
// p.check without a nil-receiver guard, so letting one through would
// panic on the first crossing.
func (p *BorderPort) SetChecker(c core.Checker) {
	if isNilChecker(c) {
		p.check, p.bc = nil, nil
		return
	}
	p.check = c
	p.bc, _ = c.(core.ProtectionArchitecture)
}

// isNilChecker reports whether c is nil for dispatch purposes: the nil
// interface, or an interface boxing a nil pointer (or other nilable
// kind), whose method calls would hit a nil receiver.
func isNilChecker(c core.Checker) bool {
	if c == nil {
		return true
	}
	switch v := reflect.ValueOf(c); v.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Func, reflect.Chan, reflect.Slice, reflect.Interface:
		return v.IsNil()
	}
	return false
}

// ReadBlock requests the 128-byte block at addr from host memory on behalf
// of process asid (0 for hardware-initiated crossings). intent is Read for
// a plain fill and Write for a fill-for-ownership (a store miss): Border
// Control checks the permission the accelerator will ultimately exercise.
// The block data is copied into buf on success.
//
// The permission check proceeds in parallel with the memory access (paper
// §3.1.1): the returned time is the max of the two, but a failed check
// discards the data — it never reaches the accelerator, no line is
// allocated, and the coherence directory records nothing.
func (p *BorderPort) ReadBlock(at sim.Time, asid arch.ASID, addr arch.Phys, intent arch.AccessKind, buf *[arch.BlockSize]byte) (sim.Time, bool) {
	addr = addr.BlockOf()
	p.Reads.Inc()
	if p.pr != nil {
		p.pr.Enter("border/port")
		defer p.pr.Exit()
	}
	checkDone := at
	if p.check != nil {
		dec := p.check.Check(at, asid, addr, intent)
		if !dec.Allowed {
			p.BlockedReads.Inc()
			p.recordLatency(&p.ReadLatency, at, dec.Done)
			return dec.Done, false
		}
		checkDone = dec.Done
	}
	// Coherence: a fill-for-ownership is a GetM, a plain fill a GetS.
	if intent == arch.Write {
		p.dir.RequestModified(p.agent, addr)
	} else {
		p.dir.RequestShared(p.agent, addr)
	}
	memDone := p.dram.AccessDone(at+p.dirLatency, addr, arch.Read)
	p.profileMemory(memDone, at)
	p.dram.Store().ReadInto(addr, buf[:])
	done := memDone
	if checkDone > memDone {
		done = checkDone
	}
	p.recordLatency(&p.ReadLatency, at, done)
	return done, true
}

// WriteBlock writes a dirty block back to host memory on behalf of asid
// (0 for flush-driven writebacks with no process context). The check must
// pass before the data is applied: a blocked writeback leaves memory
// untouched (paper §3.2.4).
func (p *BorderPort) WriteBlock(at sim.Time, asid arch.ASID, addr arch.Phys, data *[arch.BlockSize]byte) (sim.Time, bool) {
	addr = addr.BlockOf()
	p.Writes.Inc()
	if p.pr != nil {
		p.pr.Enter("border/port")
		defer p.pr.Exit()
	}
	checkDone := at
	if p.check != nil {
		dec := p.check.Check(at, asid, addr, arch.Write)
		if !dec.Allowed {
			p.BlockedWrites.Inc()
			p.recordLatency(&p.WriteLatency, at, dec.Done)
			return dec.Done, false
		}
		checkDone = dec.Done
	}
	if p.Owned(addr) {
		// A PutM: the directory applies the data and drops our ownership.
		// It refuses only non-owners.
		_ = p.dir.Writeback(p.agent, addr, data[:], false)
	} else {
		// The directory does not consider us owner (an uncached IOMMU
		// store, or a block a trusted recall already collected); apply
		// the data directly — the check above already authorized it.
		p.dram.Store().Write(addr, data[:])
	}
	// The write buffers at the memory controller on arrival and drains
	// once the check passes: the channel slot is claimed at arrival, and
	// completion cannot precede the check.
	memDone := p.dram.AccessDone(at+p.dirLatency, addr, arch.Write)
	p.profileMemory(memDone, at)
	done := memDone
	if checkDone > done {
		done = checkDone
	}
	p.recordLatency(&p.WriteLatency, at, done)
	return done, true
}

// Upgrade requests write ownership of a block the accelerator already
// holds shared (a store hit on a read-filled block), on behalf of asid. No
// data moves, but the request crosses the border and is checked.
func (p *BorderPort) Upgrade(at sim.Time, asid arch.ASID, addr arch.Phys) (sim.Time, bool) {
	addr = addr.BlockOf()
	if p.pr != nil {
		p.pr.Enter("border/port")
		defer p.pr.Exit()
	}
	done := at
	if p.check != nil {
		dec := p.check.Check(at, asid, addr, arch.Write)
		if !dec.Allowed {
			p.BlockedWrites.Inc()
			p.recordLatency(&p.WriteLatency, at, dec.Done)
			return dec.Done, false
		}
		done = dec.Done
	}
	p.dir.RequestModified(p.agent, addr)
	if p.pr != nil {
		p.pr.Span("coherence/dir", uint64(p.dirLatency))
	}
	done += p.dirLatency
	p.recordLatency(&p.WriteLatency, at, done)
	return done, true
}

// Owned reports whether the accelerator currently owns the block (may hold
// it dirty).
func (p *BorderPort) Owned(addr arch.Phys) bool {
	return p.dir.OwnerOf(addr) == p.agent
}

// Evict tells the directory the accelerator silently dropped a clean block.
func (p *BorderPort) Evict(addr arch.Phys) { p.dir.Evict(p.agent, addr) }

// RegisterMetrics publishes the port's traffic counters under s
// ("gpu.port.reads", "gpu.port.blocked_writes", ...).
func (p *BorderPort) RegisterMetrics(s stats.Scope) {
	s.Counter("reads", &p.Reads)
	s.Counter("writes", &p.Writes)
	s.Counter("blocked_reads", &p.BlockedReads)
	s.Counter("blocked_writes", &p.BlockedWrites)
	s.Histogram("read_latency_ps", &p.ReadLatency)
	s.Histogram("write_latency_ps", &p.WriteLatency)
}

// SetProfiler attaches (or, with nil, detaches) a simulated-time profiler.
func (p *BorderPort) SetProfiler(pr *prof.Profiler) { p.pr = pr }

// recordLatency records one crossing's request-to-completion latency.
func (p *BorderPort) recordLatency(h *stats.Histogram, at, done sim.Time) {
	var lat uint64
	if done > at {
		lat = uint64(done - at)
	}
	h.Record(lat)
}

// profileMemory attributes a crossing's directory hop and DRAM service
// time (the access completed at memDone for a request arriving at `at`).
func (p *BorderPort) profileMemory(memDone, at sim.Time) {
	if p.pr == nil {
		return
	}
	p.pr.Span("coherence/dir", uint64(p.dirLatency))
	if memDone > at+p.dirLatency {
		p.pr.Span("host/dram", uint64(memDone-at-p.dirLatency))
	}
}
