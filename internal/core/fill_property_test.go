package core

// Property tests for two host-side shortcuts that must not change a
// simulated result: the BCC fills an entry from one table read instead of
// a Lookup per page, and the range design builds each new range set into a
// spare buffer instead of a fresh slice.

import (
	"math/rand"
	"slices"
	"testing"

	"bordercontrol/internal/arch"
)

// randomTable returns a table over pages pages with random permissions.
func randomTable(t *testing.T, rng *rand.Rand, pages uint64) *ProtectionTable {
	t.Helper()
	pt, _ := newPT(t, pages)
	for p := uint64(0); p < pages; p++ {
		if rng.Intn(3) > 0 {
			pt.Set(arch.PPN(p), arch.Perm(rng.Intn(4)))
		}
	}
	return pt
}

// TestLookupRangeMatchesLookup: reading a page range at once decodes the
// same permissions as looking each page up, for aligned and unaligned
// ranges, ranges past one block's worth of pages, and ranges at, across
// and beyond the bounds register.
func TestLookupRangeMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const bound = 2*PagesPerBlock + 301 // not a multiple of any entry size
	pt := randomTable(t, rng, bound)
	starts := []uint64{0, 1, 3, 511, 512, 1023, bound - 513, bound - 512, bound - 5, bound - 1, bound, bound + 7}
	for i := 0; i < 200; i++ {
		starts = append(starts, uint64(rng.Intn(bound+600)))
	}
	for _, base := range starts {
		for _, n := range []int{1, 2, 3, 4, 5, 32, 33, 509, 512, 513, 600} {
			got := make([]arch.Perm, n)
			pt.LookupRange(arch.PPN(base), got)
			for i, p := range got {
				if want := pt.Lookup(arch.PPN(base) + arch.PPN(i)); p != want {
					t.Fatalf("LookupRange(%d, %d)[%d] = %v, Lookup = %v", base, n, i, p, want)
				}
			}
		}
	}
}

// TestBCCFillMatchesLookup: a filled entry holds exactly what per-page
// Lookup returns for each of its pages, at every sub-blocking factor,
// including the entry that straddles the bounds register and entries
// wholly beyond it.
func TestBCCFillMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const bound = 2*PagesPerBlock + 301
	pt := randomTable(t, rng, bound)
	for _, ppe := range []int{1, 2, 32, 512} {
		b, err := NewBCC(BCCConfig{Entries: 4, PagesPerEntry: ppe, TagBits: 36})
		if err != nil {
			t.Fatal(err)
		}
		ppns := []arch.PPN{0, bound - 1, bound, bound + arch.PPN(ppe), 2 * PagesPerBlock, 2*PagesPerBlock + 300}
		for i := 0; i < 300; i++ {
			ppns = append(ppns, arch.PPN(rng.Intn(bound+2*PagesPerBlock)))
		}
		for _, ppn := range ppns {
			if got, want := b.Fill(ppn, pt), pt.Lookup(ppn); got != want {
				t.Fatalf("ppe %d: Fill(%d) = %v, Lookup = %v", ppe, ppn, got, want)
			}
			e := b.find(ppn)
			base := arch.PPN(e.tag * uint64(ppe))
			for i, p := range e.perms {
				if want := pt.Lookup(base + arch.PPN(i)); p != want {
					t.Fatalf("ppe %d: entry for %d holds %v for page %d, Lookup = %v", ppe, ppn, p, base+arch.PPN(i), want)
				}
			}
		}
	}
}

// refRanges is the range mirror as it was before double buffering: every
// update rebuilt the set into a fresh slice.
type refRanges struct {
	ranges           []permRange
	updates, highWat uint64
}

func (r *refRanges) add(lo, hi arch.PPN, perm arch.Perm) {
	perm = perm.Border()
	if perm == arch.PermNone || lo >= hi {
		return
	}
	var out []permRange
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
	for _, rg := range r.ranges {
		if placed || rg.hi <= cur.lo {
			add(rg.lo, rg.hi, rg.perm)
			continue
		}
		if rg.lo >= cur.hi {
			add(cur.lo, cur.hi, cur.perm)
			placed = true
			add(rg.lo, rg.hi, rg.perm)
			continue
		}
		if rg.lo < cur.lo {
			add(rg.lo, cur.lo, rg.perm)
		} else if cur.lo < rg.lo {
			add(cur.lo, rg.lo, cur.perm)
		}
		olo, ohi := max(rg.lo, cur.lo), min(rg.hi, cur.hi)
		add(olo, ohi, rg.perm|cur.perm)
		switch {
		case rg.hi > ohi:
			add(ohi, rg.hi, rg.perm)
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
	r.ranges = out
	r.updates++
	r.highWat = max(r.highWat, uint64(len(out)))
}

func (r *refRanges) set(lo, hi arch.PPN, perm arch.Perm) {
	var out []permRange
	for _, rg := range r.ranges {
		if rg.hi <= lo || rg.lo >= hi {
			out = append(out, rg)
			continue
		}
		if rg.lo < lo {
			out = append(out, permRange{lo: rg.lo, hi: lo, perm: rg.perm})
		}
		if rg.hi > hi {
			out = append(out, permRange{lo: hi, hi: rg.hi, perm: rg.perm})
		}
	}
	r.ranges = out
	r.updates++
	if perm.Border() != arch.PermNone {
		r.add(lo, hi, perm)
	}
}

// TestRangeBuffersMatchRebuild: over random grant, overwrite and clear
// sequences, the double-buffered range set, its update count and its
// high-water mark equal the fresh-slice rebuild's after every step.
func TestRangeBuffersMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		rb := &RangeBorder{}
		var ref refRanges
		for i := 0; i < 500; i++ {
			lo := arch.PPN(rng.Intn(200))
			hi := lo + arch.PPN(1+rng.Intn(12))
			perm := arch.Perm(rng.Intn(4))
			switch op := rng.Intn(20); {
			case op < 12:
				rb.addRange(lo, hi, perm)
				ref.add(lo, hi, perm)
			case op < 19:
				rb.setRange(lo, hi, perm)
				ref.set(lo, hi, perm)
			default: // a full-flush downgrade or process completion
				rb.ranges = rb.ranges[:0]
				ref.ranges = ref.ranges[:0]
			}
			if !slices.Equal(rb.ranges, ref.ranges) {
				t.Fatalf("round %d op %d: ranges %v, rebuild %v", round, i, rb.ranges, ref.ranges)
			}
			if rb.RangeUpdates.Value() != ref.updates || rb.NodesHighWater.Value() != ref.highWat {
				t.Fatalf("round %d op %d: updates/high water %d/%d, rebuild %d/%d", round, i,
					rb.RangeUpdates.Value(), rb.NodesHighWater.Value(), ref.updates, ref.highWat)
			}
		}
	}
}
