// Package tlb models translation lookaside buffers: set-associative,
// LRU-replaced, ASID-tagged, with single-entry invalidation and full flush
// (the two TLB-shootdown forms discussed in paper §3.2.4).
package tlb

import (
	"fmt"
	"math/bits"

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

// way is one TLB slot: an Entry's fields and the LRU stamp, laid out in
// 32 bytes.
type way struct {
	vpn   arch.VPN
	ppn   arch.PPN
	lru   uint64 // larger = more recently used
	asid  arch.ASID
	perm  arch.Perm
	valid bool
}

func (w *way) entry() Entry { return Entry{ASID: w.asid, VPN: w.vpn, PPN: w.ppn, Perm: w.perm} }

// TLB is a set-associative translation cache. Ways == Entries gives a
// fully-associative TLB (the 64-entry accelerator L1 TLB in Table 3).
//
// The ways live in one flat array, set after set. An open-addressed index
// maps each valid (ASID, VPN) pair to its way, so a lookup, a refresh and
// an invalidation probe a slot or two instead of scanning a set; only an
// insert that misses scans its set, for the exact LRU victim.
type TLB struct {
	sets  uint64
	nways int
	mask  uint64 // sets-1 when sets is a power of two
	pow2  bool
	tick  uint64
	ways  []way
	// index holds way+1 for every valid way (0 marks an empty slot): a
	// power-of-two table of at least twice the entries, probed linearly
	// from a pair's home slot and kept tombstone-free by backward-shift
	// deletion.
	index []int32
	shift uint // 64 - log2(len(index)): home slots take a hash's top bits

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
	sets := uint64(entries / ways)
	slots := bits.Len(uint(2*entries - 1)) // log2 of the smallest power of two >= 2*entries
	return &TLB{
		sets:  sets,
		nways: ways,
		mask:  sets - 1,
		pow2:  sets&(sets-1) == 0,
		ways:  make([]way, entries),
		index: make([]int32, 1<<slots),
		shift: uint(64 - slots),
	}, nil
}

// NewFullyAssociative returns a one-set TLB with the given entry count.
func NewFullyAssociative(entries int) (*TLB, error) { return New(entries, entries) }

// Entries returns the capacity.
func (t *TLB) Entries() int { return len(t.ways) }

// set returns the first way of vpn's set: a mask for power-of-two set
// counts, a modulo otherwise.
func (t *TLB) set(vpn arch.VPN) int {
	if t.pow2 {
		return int(uint64(vpn)&t.mask) * t.nways
	}
	return int(uint64(vpn)%t.sets) * t.nways
}

// home returns the index slot where (asid, vpn)'s probe starts.
func (t *TLB) home(asid arch.ASID, vpn arch.VPN) uint64 {
	return ((uint64(vpn) ^ uint64(asid)<<48) * 0x9E3779B97F4A7C15) >> t.shift
}

// probe returns the index slot holding (asid, vpn) and true, or the empty
// slot that ends its probe and false. The stored ASID and VPN are compared
// in full.
func (t *TLB) probe(asid arch.ASID, vpn arch.VPN) (uint64, bool) {
	m := uint64(len(t.index) - 1)
	for i := t.home(asid, vpn); ; i = (i + 1) & m {
		s := t.index[i]
		if s == 0 {
			return i, false
		}
		if w := &t.ways[s-1]; w.vpn == vpn && w.asid == asid {
			return i, true
		}
	}
}

// unindex empties index slot i, shifting back each later entry of the
// probe run whose home does not lie between i and its slot.
func (t *TLB) unindex(i uint64) {
	m := uint64(len(t.index) - 1)
	for j := (i + 1) & m; t.index[j] != 0; j = (j + 1) & m {
		w := &t.ways[t.index[j]-1]
		if (j-t.home(w.asid, w.vpn))&m >= (j-i)&m {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// Lookup returns the cached translation for (asid, vpn), if present.
func (t *TLB) Lookup(asid arch.ASID, vpn arch.VPN) (Entry, bool) {
	i, ok := t.probe(asid, vpn)
	if !ok {
		t.HitMiss.Record(false)
		return Entry{}, false
	}
	w := &t.ways[t.index[i]-1]
	t.tick++
	w.lru = t.tick
	t.HitMiss.Record(true)
	return w.entry(), true
}

// Insert caches a translation, evicting the set's LRU entry if needed: the
// set's first invalid way, else its first way with the least recent use.
// Inserting an existing (asid, vpn) pair replaces it in place, so a set
// never holds two entries for one pair.
func (t *TLB) Insert(e Entry) {
	t.tick++
	i, ok := t.probe(e.ASID, e.VPN)
	if ok {
		w := &t.ways[t.index[i]-1]
		w.ppn, w.perm = e.PPN, e.Perm
		w.lru = t.tick
		return
	}
	base := t.set(e.VPN)
	set := t.ways[base : base+t.nways]
	victim := 0
	for j := range set {
		if !set[j].valid {
			victim = j
			break
		}
		if set[j].lru < set[victim].lru {
			victim = j
		}
	}
	v := &set[victim]
	if v.valid {
		old, _ := t.probe(v.asid, v.vpn)
		t.unindex(old)
		i, _ = t.probe(e.ASID, e.VPN)
	}
	*v = way{vpn: e.VPN, ppn: e.PPN, lru: t.tick, asid: e.ASID, perm: e.Perm, valid: true}
	t.index[i] = int32(base + victim + 1)
}

// Invalidate drops the translation for (asid, vpn), reporting whether one
// was present.
func (t *TLB) Invalidate(asid arch.ASID, vpn arch.VPN) bool {
	i, ok := t.probe(asid, vpn)
	if !ok {
		return false
	}
	t.ways[t.index[i]-1].valid = false
	t.unindex(i)
	t.Invalidates.Inc()
	return true
}

// InvalidateASID drops every translation belonging to the address space and
// returns how many were dropped.
func (t *TLB) InvalidateASID(asid arch.ASID) int {
	n := 0
	for j := range t.ways {
		w := &t.ways[j]
		if w.valid && w.asid == asid {
			i, _ := t.probe(asid, w.vpn)
			t.unindex(i)
			w.valid = false
			n++
		}
	}
	if n > 0 {
		t.Invalidates.Add(uint64(n))
	}
	return n
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	for j := range t.ways {
		t.ways[j].valid = false
	}
	clear(t.index)
	t.Flushes.Inc()
}

// Valid returns the number of valid entries (for tests).
func (t *TLB) Valid() int {
	n := 0
	for j := range t.ways {
		if t.ways[j].valid {
			n++
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
