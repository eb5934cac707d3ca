// Package tlb models translation lookaside buffers: set-associative,
// LRU-replaced, ASID-tagged, with single-entry invalidation and full flush
// (the two TLB-shootdown forms discussed in paper §3.2.4).
package tlb

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/stats"
)

// Entry is one cached translation.
type Entry struct {
	ASID arch.ASID
	VPN  arch.VPN
	PPN  arch.PPN
	Perm arch.Perm
}

type way struct {
	valid bool
	lru   uint64 // larger = more recently used
	e     Entry
}

// TLB is a set-associative translation cache. Ways == Entries gives a
// fully-associative TLB (the 64-entry accelerator L1 TLB in Table 3).
type TLB struct {
	sets    int
	ways    int
	tick    uint64
	entries [][]way

	HitMiss     stats.HitMiss
	Invalidates stats.Counter
	Flushes     stats.Counter
}

// New returns a TLB with the given total entry count and associativity.
// entries must be a multiple of ways.
func New(entries, ways int) (*TLB, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("tlb: bad geometry entries=%d ways=%d", entries, ways)
	}
	sets := entries / ways
	t := &TLB{sets: sets, ways: ways, entries: make([][]way, sets)}
	for i := range t.entries {
		t.entries[i] = make([]way, ways)
	}
	return t, nil
}

// NewFullyAssociative returns a one-set TLB with the given entry count.
func NewFullyAssociative(entries int) (*TLB, error) { return New(entries, entries) }

// Entries returns the capacity.
func (t *TLB) Entries() int { return t.sets * t.ways }

func (t *TLB) set(vpn arch.VPN) []way { return t.entries[uint64(vpn)%uint64(t.sets)] }

// Lookup returns the cached translation for (asid, vpn), if present.
func (t *TLB) Lookup(asid arch.ASID, vpn arch.VPN) (Entry, bool) {
	set := t.set(vpn)
	for i := range set {
		w := &set[i]
		if w.valid && w.e.ASID == asid && w.e.VPN == vpn {
			t.tick++
			w.lru = t.tick
			t.HitMiss.Record(true)
			return w.e, true
		}
	}
	t.HitMiss.Record(false)
	return Entry{}, false
}

// Insert caches a translation, evicting the set's LRU entry if needed.
// Inserting an existing (asid, vpn) pair replaces it, wherever in the set it
// sits, so a set never holds two entries for one pair.
func (t *TLB) Insert(e Entry) {
	set := t.set(e.VPN)
	t.tick++
	victim, free := 0, -1
	for i := range set {
		w := &set[i]
		switch {
		case !w.valid:
			if free < 0 {
				free = i
			}
		case w.e.ASID == e.ASID && w.e.VPN == e.VPN:
			w.e = e
			w.lru = t.tick
			return
		case w.lru < set[victim].lru:
			victim = i
		}
	}
	if free >= 0 {
		victim = free
	}
	set[victim] = way{valid: true, lru: t.tick, e: e}
}

// Invalidate drops the translation for (asid, vpn), reporting whether one
// was present.
func (t *TLB) Invalidate(asid arch.ASID, vpn arch.VPN) bool {
	set := t.set(vpn)
	for i := range set {
		w := &set[i]
		if w.valid && w.e.ASID == asid && w.e.VPN == vpn {
			w.valid = false
			t.Invalidates.Inc()
			return true
		}
	}
	return false
}

// InvalidateASID drops every translation belonging to the address space and
// returns how many were dropped.
func (t *TLB) InvalidateASID(asid arch.ASID) int {
	n := 0
	for _, set := range t.entries {
		for i := range set {
			if set[i].valid && set[i].e.ASID == asid {
				set[i].valid = false
				n++
			}
		}
	}
	if n > 0 {
		t.Invalidates.Add(uint64(n))
	}
	return n
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	for _, set := range t.entries {
		for i := range set {
			set[i].valid = false
		}
	}
	t.Flushes.Inc()
}

// Valid returns the number of valid entries (for tests).
func (t *TLB) Valid() int {
	n := 0
	for _, set := range t.entries {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// RegisterMetrics publishes the TLB's counters under s ("hits", "misses",
// "miss_ratio", "invalidates", "flushes" within the given scope).
func (t *TLB) RegisterMetrics(s stats.Scope) {
	s.HitMiss("", &t.HitMiss)
	s.Counter("invalidates", &t.Invalidates)
	s.Counter("flushes", &t.Flushes)
}
