package core

import (
	"fmt"
	"sort"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
)

// RangeBorder is a range-compressed protection architecture: instead of
// walking a flat 2-bits-per-page Protection Table spread over megabytes of
// DRAM, the checker walks a compact balanced tree of coalesced permission
// ranges (the huge-page-aware encoding of ROADMAP item 4, grown from the
// Mondriaan-style Segment of altperm.go). Accelerator working sets are
// granted as a handful of contiguous buffers, so the whole structure stays
// a few DRAM rows wide: every walk level after the first hits the open
// row, and the walk is one or two narrow reads instead of a scattered
// block fetch.
//
// In front of the grant path sits a small declarative per-ASID Policy
// (default action + ordered rules, modeled on sbx's egress-policy schema),
// compiled once into disjoint breakpoints consulted in O(log rules) at
// grant-admission time. The policy clamps what a translation may insert
// into the union window; it never runs on the per-request fast path, so
// Check stays exactly the paper's Figure 3c decision.
//
// Functionally the flat Protection Table remains the authoritative
// decision store (decisions are byte-for-byte the flat design's under the
// default allow-all policy — the property the differential fuzz oracle
// checks); the range set mirrors it for the timing model and the
// compression metrics. See DESIGN.md §14 for the contract.
type RangeBorder struct {
	*BorderControl

	// ranges is the sorted, disjoint, coalesced mirror of the granted
	// union window; its cardinality drives the modeled walk depth.
	ranges []permRange
	// spare is the second buffer addRange and setRange build the next
	// range set into before swapping it with ranges.
	spare []permRange
	// policies holds the compiled grant-admission policy per ASID; a nil
	// entry (or no entry) admits everything.
	policies map[arch.ASID]*CompiledPolicy

	// PolicyDrops counts grants fully refused by the policy; RangeUpdates
	// counts range-set mutations; NodesHighWater tracks the largest range
	// count seen (the compression result).
	PolicyDrops    stats.Counter
	RangeUpdates   stats.Counter
	NodesHighWater stats.Counter
	nodesHW        uint64
}

// permRange covers [lo, hi) with perm.
type permRange struct {
	lo, hi arch.PPN
	perm   arch.Perm
}

const (
	// rangeFanout is the modeled search-tree fan-out; walk depth grows by
	// one level per factor-of-rangeFanout ranges.
	rangeFanout = 16
	// maxWalkLevels caps the modeled walk depth.
	maxWalkLevels = 3
)

var _ ProtectionArchitecture = (*RangeBorder)(nil)

// NewRangeBorder returns the range/policy design for the named accelerator.
func NewRangeBorder(name string, cfg Config, os *hostos.OS, dram *memory.DRAM, eng *sim.Engine) (*RangeBorder, error) {
	bc, err := New(name, cfg, os, dram, eng)
	if err != nil {
		return nil, err
	}
	return &RangeBorder{BorderControl: bc, policies: make(map[arch.ASID]*CompiledPolicy)}, nil
}

// Design identifies this implementation in the design registry.
func (rb *RangeBorder) Design() string { return "range" }

// SetPolicy compiles and installs the grant-admission policy for one
// address space. It applies to future grants only: permissions already in
// the union window stay until downgraded (revocation is the OS's job,
// Figure 3d, not the policy's).
func (rb *RangeBorder) SetPolicy(asid arch.ASID, p Policy) error {
	cp, err := p.Compile()
	if err != nil {
		return err
	}
	rb.policies[asid] = cp
	return nil
}

// OnTranslation clamps the grant through the ASID's compiled policy, then
// widens the union window. A huge grant coalesces into one range node —
// one narrow posted write — instead of the flat design's block
// write-through.
func (rb *RangeBorder) OnTranslation(at sim.Time, asid arch.ASID, vpn arch.VPN, ppn arch.PPN, perm arch.Perm, huge bool) {
	if !rb.active[asid] || rb.table == nil {
		return
	}
	pol := rb.policies[asid]
	if huge {
		head := ppn - ppn%arch.PagesPerHugePage
		rb.Insertions.Inc()
		granted := false
		for i := arch.PPN(0); i < arch.PagesPerHugePage; i++ {
			p := pol.Clamp(head+i, perm)
			if p.Border() == arch.PermNone {
				continue
			}
			granted = true
			rb.table.Merge(head+i, p)
			if rb.bcc != nil {
				rb.bcc.Update(head+i, p, rb.table)
			}
			rb.addRange(head+i, head+i+1, p)
		}
		if !granted {
			rb.PolicyDrops.Inc()
			return
		}
		rb.TableWrites.Inc()
		rb.dram.AccessDoneBytes(rb.eng.Now(), rb.tableBase.Base(), arch.Write, 8)
		return
	}
	p := pol.Clamp(ppn, perm)
	if p.Border() == arch.PermNone && perm.Border() != arch.PermNone {
		rb.PolicyDrops.Inc()
		return
	}
	rb.insertRange(at, ppn, p)
}

// insertRange is the base-page grant path: same widen-only table/BCC state
// transitions as the flat design's insert, but the bookkeeping traffic
// goes to the compact range structure at the table base (row-resident)
// instead of a scattered table entry.
func (rb *RangeBorder) insertRange(at sim.Time, ppn arch.PPN, perm arch.Perm) {
	rb.Insertions.Inc()
	if !rb.table.InBounds(ppn) {
		return
	}
	if rb.TraceSink != nil {
		rb.TraceSink(TraceEvent{Insert: true, PPN: ppn})
	}
	changed := rb.table.Merge(ppn, perm)
	if rb.bcc != nil {
		if _, filled := rb.bcc.Update(ppn, perm, rb.table); filled {
			rb.TableReads.Inc()
			rb.dram.AccessDoneBytes(rb.eng.Now(), rb.tableBase.Base(), arch.Read, 8)
		}
	} else {
		rb.TableReads.Inc()
		rb.dram.AccessDoneBytes(rb.eng.Now(), rb.tableBase.Base(), arch.Read, 8)
	}
	if changed {
		rb.addRange(ppn, ppn+1, perm)
		rb.TableWrites.Inc()
		rb.dram.AccessDoneBytes(rb.eng.Now(), rb.tableBase.Base(), arch.Write, 8)
	}
}

// Check is the paper's Figure 3c decision over the authoritative table,
// with the walk cost of the compact range tree: one narrow row-resident
// read per level, depth logarithmic in the coalesced range count.
func (rb *RangeBorder) Check(at sim.Time, asid arch.ASID, addr arch.Phys, kind arch.AccessKind) Decision {
	rb.Checks.Inc()
	if kind == arch.Write {
		rb.WriteChecks.Inc()
	} else {
		rb.ReadChecks.Inc()
	}
	if rb.pr != nil {
		rb.pr.Enter("border/check")
		defer rb.pr.Exit()
	}
	if rb.disabled || rb.table == nil {
		d := rb.deny(at, asid, addr, kind)
		rb.recordLatency(&rb.DeniedLatency, at, d.Done, asid)
		return d
	}
	ppn := addr.PageOf()
	if rb.TraceSink != nil {
		rb.TraceSink(TraceEvent{PPN: ppn})
	}
	if !rb.table.InBounds(ppn) {
		d := rb.deny(at, asid, addr, kind)
		rb.recordLatency(&rb.DeniedLatency, at, d.Done, asid)
		return d
	}
	var perm arch.Perm
	walked := false
	done := at
	if rb.bcc != nil {
		done += rb.cfg.BCCLatency
		if rb.pr != nil {
			rb.pr.Span("border/bcc", uint64(rb.cfg.BCCLatency))
		}
		p, hit := rb.bcc.Probe(ppn)
		if hit {
			perm = p
		} else {
			perm = rb.bcc.Fill(ppn, rb.table)
			rb.TableReads.Inc()
			walked = true
			walkStart := done
			done = rb.rangeWalk(done)
			if rb.pr != nil {
				rb.pr.Span("host/rangewalk", uint64(done-walkStart))
			}
		}
	} else {
		rb.TableReads.Inc()
		perm = rb.table.Lookup(ppn)
		walked = true
		done = rb.rangeWalk(at)
		if rb.pr != nil {
			rb.pr.Span("host/rangewalk", uint64(done-at))
		}
	}
	if !perm.Allows(kind.Need()) {
		d := rb.deny(done, asid, addr, kind)
		rb.recordLatency(&rb.DeniedLatency, at, d.Done, asid)
		return d
	}
	if walked {
		rb.recordLatency(&rb.WalkLatency, at, done, asid)
	} else {
		rb.recordLatency(&rb.HitLatency, at, done, asid)
	}
	if rb.trChecks {
		name := "check read"
		if kind == arch.Write {
			name = "check write"
		}
		rb.tr.Complete("border.check", name, uint64(at), uint64(done-at))
	}
	return Decision{Allowed: true, Done: done}
}

// rangeWalk charges one narrow DRAM read per modeled tree level. The node
// array lives compactly at the table base, so successive levels land in
// the same DRAM row.
func (rb *RangeBorder) rangeWalk(at sim.Time) sim.Time {
	levels := 1
	for n := len(rb.ranges); n > rangeFanout && levels < maxWalkLevels; n /= rangeFanout {
		levels++
	}
	done := at
	for i := 0; i < levels; i++ {
		done = rb.dram.AccessDoneBytes(done, rb.tableBase.Base()+arch.Phys(i*arch.BlockSize), arch.Read, 8)
	}
	return done + rb.cfg.TableLatency
}

// OnDowngrade delegates the Figure 3d flush-before-narrow protocol to the
// embedded design (the table is authoritative), then narrows the range
// mirror to match.
func (rb *RangeBorder) OnDowngrade(d hostos.Downgrade) {
	if !rb.active[d.ASID] || rb.table == nil || !rb.table.InBounds(d.PPN) {
		rb.BorderControl.OnDowngrade(d)
		return
	}
	full := !rb.cfg.SelectiveFlush && rb.table.Lookup(d.PPN).CanWrite()
	rb.BorderControl.OnDowngrade(d)
	if full {
		// The full-flush variant zeroed the whole table.
		rb.ranges = rb.ranges[:0]
		rb.RangeUpdates.Inc()
		return
	}
	rb.setRange(d.PPN, d.PPN+1, d.New)
}

// ProcessComplete delegates Figure 3e (the range mirror, like the table,
// stays live through the completion flush) and then drops every range.
func (rb *RangeBorder) ProcessComplete(at sim.Time, asid arch.ASID) sim.Time {
	if !rb.active[asid] {
		return at
	}
	done := rb.BorderControl.ProcessComplete(at, asid)
	rb.ranges = rb.ranges[:0]
	return done
}

// RangeCount returns how many coalesced ranges currently encode the union
// window — the compression the design is racing on.
func (rb *RangeBorder) RangeCount() int { return len(rb.ranges) }

// RegisterMetrics publishes the flat counters plus the range/policy stats.
func (rb *RangeBorder) RegisterMetrics(st stats.Scope) {
	rb.BorderControl.RegisterMetrics(st)
	rs := st.Scope("range")
	rs.Counter("policy_drops", &rb.PolicyDrops)
	rs.Counter("updates", &rb.RangeUpdates)
	rs.Counter("nodes_high_water", &rb.NodesHighWater)
}

// addRange unions [lo, hi)×perm into the sorted disjoint range set,
// coalescing equal-permission neighbors.
func (rb *RangeBorder) addRange(lo, hi arch.PPN, perm arch.Perm) {
	perm = perm.Border()
	if perm == arch.PermNone || lo >= hi {
		return
	}
	out := rb.spare[:0]
	add := func(l, h arch.PPN, p arch.Perm) {
		if l >= h || p == arch.PermNone {
			return
		}
		if n := len(out); n > 0 && out[n-1].hi == l && out[n-1].perm == p {
			out[n-1].hi = h
			return
		}
		out = append(out, permRange{l, h, p})
	}
	cur := permRange{lo: lo, hi: hi, perm: perm}
	placed := false
	for _, r := range rb.ranges {
		if placed || r.hi <= cur.lo {
			add(r.lo, r.hi, r.perm)
			continue
		}
		if r.lo >= cur.hi {
			add(cur.lo, cur.hi, cur.perm)
			placed = true
			add(r.lo, r.hi, r.perm)
			continue
		}
		// Overlap: emit the leading non-overlap, the unioned overlap, and
		// carry or emit the trailing piece.
		if r.lo < cur.lo {
			add(r.lo, cur.lo, r.perm)
		} else if cur.lo < r.lo {
			add(cur.lo, r.lo, cur.perm)
		}
		olo, ohi := max(r.lo, cur.lo), min(r.hi, cur.hi)
		add(olo, ohi, r.perm|cur.perm)
		switch {
		case r.hi > ohi:
			add(ohi, r.hi, r.perm)
			placed = true
		case cur.hi > ohi:
			cur = permRange{lo: ohi, hi: cur.hi, perm: cur.perm}
		default:
			placed = true
		}
	}
	if !placed {
		add(cur.lo, cur.hi, cur.perm)
	}
	rb.ranges, rb.spare = out, rb.ranges
	rb.RangeUpdates.Inc()
	if n := uint64(len(out)); n > rb.nodesHW {
		rb.NodesHighWater.Add(n - rb.nodesHW)
		rb.nodesHW = n
	}
}

// setRange overwrites [lo, hi) with perm (PermNone removes coverage).
func (rb *RangeBorder) setRange(lo, hi arch.PPN, perm arch.Perm) {
	out := rb.spare[:0]
	for _, r := range rb.ranges {
		if r.hi <= lo || r.lo >= hi {
			out = append(out, r)
			continue
		}
		if r.lo < lo {
			out = append(out, permRange{lo: r.lo, hi: lo, perm: r.perm})
		}
		if r.hi > hi {
			out = append(out, permRange{lo: hi, hi: r.hi, perm: r.perm})
		}
	}
	rb.ranges, rb.spare = out, rb.ranges
	rb.RangeUpdates.Inc()
	if perm.Border() != arch.PermNone {
		rb.addRange(lo, hi, perm)
	}
}

// PolicyAction says what a policy rule (or the policy default) does with a
// grant: admit it, strip it to read-only, or refuse it.
type PolicyAction uint8

const (
	// PolicyAllow admits the grant unchanged.
	PolicyAllow PolicyAction = iota
	// PolicyReadOnly strips the write bit from the grant.
	PolicyReadOnly
	// PolicyDeny refuses the grant entirely.
	PolicyDeny
)

// Mask returns the most permissive border grant the action admits.
func (a PolicyAction) Mask() arch.Perm {
	switch a {
	case PolicyAllow:
		return arch.PermRW
	case PolicyReadOnly:
		return arch.PermRead
	default:
		return arch.PermNone
	}
}

// String names the action in policy error messages.
func (a PolicyAction) String() string {
	switch a {
	case PolicyAllow:
		return "allow"
	case PolicyReadOnly:
		return "read-only"
	case PolicyDeny:
		return "deny"
	default:
		return fmt.Sprintf("PolicyAction(%d)", uint8(a))
	}
}

// PolicyRule scopes an action to a physical page range. Rules are ordered:
// the first rule covering a page wins, as in sbx's egress rule list.
type PolicyRule struct {
	Base   arch.PPN
	Pages  uint64
	Action PolicyAction
}

// Policy is the declarative per-ASID grant-admission policy: a default
// action plus ordered first-match-wins rules, the sbx egress-policy shape
// applied to border grants. Compile it once; the result answers in
// O(log breakpoints) at grant time and never touches the check fast path.
type Policy struct {
	Default PolicyAction
	Rules   []PolicyRule
}

// CompiledPolicy is a Policy flattened into sorted disjoint breakpoints.
// The zero/nil CompiledPolicy admits everything.
type CompiledPolicy struct {
	segs []policySeg
	def  arch.Perm
}

type policySeg struct {
	lo, hi arch.PPN
	mask   arch.Perm
}

// Compile validates the policy and resolves rule order into disjoint
// intervals: each rule claims whatever part of its range no earlier rule
// already claimed.
func (p Policy) Compile() (*CompiledPolicy, error) {
	if p.Default > PolicyDeny {
		return nil, fmt.Errorf("core: policy default %v is not a valid action", p.Default)
	}
	cp := &CompiledPolicy{def: p.Default.Mask()}
	for i, r := range p.Rules {
		if r.Pages == 0 {
			return nil, fmt.Errorf("core: policy rule %d (%v at %#x) covers zero pages", i, r.Action, r.Base)
		}
		if r.Action > PolicyDeny {
			return nil, fmt.Errorf("core: policy rule %d has invalid action %v", i, r.Action)
		}
		lo, hi := r.Base, r.Base+arch.PPN(r.Pages)
		if hi < lo {
			return nil, fmt.Errorf("core: policy rule %d (%v at %#x + %d pages) wraps the address space", i, r.Action, r.Base, r.Pages)
		}
		for _, free := range cp.unclaimed(lo, hi) {
			cp.segs = append(cp.segs, policySeg{lo: free.lo, hi: free.hi, mask: r.Action.Mask()})
		}
	}
	sort.Slice(cp.segs, func(i, j int) bool { return cp.segs[i].lo < cp.segs[j].lo })
	// Coalesce equal-mask neighbors so Clamp's binary search stays tight.
	out := cp.segs[:0]
	for _, s := range cp.segs {
		if n := len(out); n > 0 && out[n-1].hi == s.lo && out[n-1].mask == s.mask {
			out[n-1].hi = s.hi
			continue
		}
		out = append(out, s)
	}
	cp.segs = out
	return cp, nil
}

// unclaimed returns the sub-intervals of [lo, hi) not covered by any
// already-compiled segment (earlier rules win).
func (cp *CompiledPolicy) unclaimed(lo, hi arch.PPN) []policySeg {
	free := []policySeg{{lo: lo, hi: hi}}
	for _, s := range cp.segs {
		var next []policySeg
		for _, f := range free {
			if s.hi <= f.lo || s.lo >= f.hi {
				next = append(next, f)
				continue
			}
			if f.lo < s.lo {
				next = append(next, policySeg{lo: f.lo, hi: s.lo})
			}
			if f.hi > s.hi {
				next = append(next, policySeg{lo: s.hi, hi: f.hi})
			}
		}
		free = next
	}
	return free
}

// Clamp restricts a grant to what the policy admits for the page. A nil
// policy admits everything.
func (cp *CompiledPolicy) Clamp(ppn arch.PPN, perm arch.Perm) arch.Perm {
	if cp == nil {
		return perm
	}
	i := sort.Search(len(cp.segs), func(k int) bool { return cp.segs[k].hi > ppn })
	if i < len(cp.segs) && cp.segs[i].lo <= ppn {
		return perm & cp.segs[i].mask
	}
	return perm & cp.def
}
