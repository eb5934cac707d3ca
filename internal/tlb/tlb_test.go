package tlb

import (
	"math/rand"
	"testing"

	"bordercontrol/internal/arch"
)

func mustTLB(t *testing.T, entries, ways int) *TLB {
	t.Helper()
	tb, err := New(entries, ways)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestGeometryValidation(t *testing.T) {
	for _, c := range []struct{ e, w int }{{0, 1}, {4, 0}, {5, 2}, {-4, -4}} {
		if _, err := New(c.e, c.w); err == nil {
			t.Errorf("New(%d,%d) should fail", c.e, c.w)
		}
	}
	tb := mustTLB(t, 64, 64)
	if tb.Entries() != 64 {
		t.Errorf("entries = %d", tb.Entries())
	}
}

func TestLookupInsert(t *testing.T) {
	tb := mustTLB(t, 8, 8)
	if _, ok := tb.Lookup(1, 0x10); ok {
		t.Error("hit on empty TLB")
	}
	tb.Insert(Entry{ASID: 1, VPN: 0x10, PPN: 0x99, Perm: arch.PermRW})
	e, ok := tb.Lookup(1, 0x10)
	if !ok || e.PPN != 0x99 || e.Perm != arch.PermRW {
		t.Errorf("lookup = %+v, %v", e, ok)
	}
	if tb.HitMiss.Hits.Value() != 1 || tb.HitMiss.Misses.Value() != 1 {
		t.Error("hit/miss stats wrong")
	}
}

func TestReplaceOnReinsert(t *testing.T) {
	tb := mustTLB(t, 4, 4)
	tb.Insert(Entry{ASID: 1, VPN: 5, PPN: 10})
	tb.Insert(Entry{ASID: 1, VPN: 5, PPN: 20})
	if tb.Valid() != 1 {
		t.Errorf("valid = %d, want 1 (replacement, not duplication)", tb.Valid())
	}
	e, _ := tb.Lookup(1, 5)
	if e.PPN != 20 {
		t.Errorf("reinsert did not update: %+v", e)
	}
}

func TestASIDIsolation(t *testing.T) {
	tb := mustTLB(t, 8, 8)
	tb.Insert(Entry{ASID: 1, VPN: 5, PPN: 10})
	if _, ok := tb.Lookup(2, 5); ok {
		t.Error("ASID 2 saw ASID 1's translation")
	}
	tb.Insert(Entry{ASID: 2, VPN: 5, PPN: 30})
	e1, _ := tb.Lookup(1, 5)
	e2, _ := tb.Lookup(2, 5)
	if e1.PPN != 10 || e2.PPN != 30 {
		t.Error("per-ASID entries interfere")
	}
}

func TestLRUEviction(t *testing.T) {
	tb := mustTLB(t, 4, 4) // fully associative, 4 entries
	for i := 0; i < 4; i++ {
		tb.Insert(Entry{ASID: 1, VPN: arch.VPN(i), PPN: arch.PPN(i)})
	}
	// Touch 0 so 1 becomes LRU.
	tb.Lookup(1, 0)
	tb.Insert(Entry{ASID: 1, VPN: 100, PPN: 100})
	if _, ok := tb.Lookup(1, 1); ok {
		t.Error("LRU entry 1 should have been evicted")
	}
	if _, ok := tb.Lookup(1, 0); !ok {
		t.Error("recently used entry 0 should survive")
	}
}

func TestSetIndexing(t *testing.T) {
	// 2 sets x 2 ways: VPNs 0,2,4 share set 0; filling three evicts one,
	// but VPN 1 (set 1) is untouched.
	tb := mustTLB(t, 4, 2)
	tb.Insert(Entry{ASID: 1, VPN: 0})
	tb.Insert(Entry{ASID: 1, VPN: 2})
	tb.Insert(Entry{ASID: 1, VPN: 1})
	tb.Insert(Entry{ASID: 1, VPN: 4}) // evicts from set 0
	if _, ok := tb.Lookup(1, 1); !ok {
		t.Error("set 1 entry evicted by set 0 pressure")
	}
	in := 0
	for _, v := range []arch.VPN{0, 2, 4} {
		if _, ok := tb.Lookup(1, v); ok {
			in++
		}
	}
	if in != 2 {
		t.Errorf("set 0 holds %d of {0,2,4}, want 2", in)
	}
}

func TestInvalidate(t *testing.T) {
	tb := mustTLB(t, 8, 8)
	tb.Insert(Entry{ASID: 1, VPN: 5})
	if !tb.Invalidate(1, 5) {
		t.Error("invalidate missed present entry")
	}
	if tb.Invalidate(1, 5) {
		t.Error("invalidate hit absent entry")
	}
	if _, ok := tb.Lookup(1, 5); ok {
		t.Error("entry survived invalidation")
	}
}

func TestInvalidateASID(t *testing.T) {
	tb := mustTLB(t, 8, 8)
	for i := 0; i < 3; i++ {
		tb.Insert(Entry{ASID: 1, VPN: arch.VPN(i)})
	}
	tb.Insert(Entry{ASID: 2, VPN: 7})
	if n := tb.InvalidateASID(1); n != 3 {
		t.Errorf("invalidated %d, want 3", n)
	}
	if tb.Valid() != 1 {
		t.Errorf("valid = %d, want 1", tb.Valid())
	}
	if _, ok := tb.Lookup(2, 7); !ok {
		t.Error("other ASID lost its entry")
	}
}

func TestFlush(t *testing.T) {
	tb := mustTLB(t, 8, 4)
	for i := 0; i < 8; i++ {
		tb.Insert(Entry{ASID: 1, VPN: arch.VPN(i)})
	}
	tb.Flush()
	if tb.Valid() != 0 {
		t.Errorf("valid after flush = %d", tb.Valid())
	}
	if tb.Flushes.Value() != 1 {
		t.Error("flush not counted")
	}
}

// TestAgainstReferenceModel drives random TLB traffic against a map-based
// reference (with unlimited capacity): every TLB hit must agree with the
// reference, and misses may only happen for entries the reference also
// lacks or that capacity could have evicted.
func TestAgainstReferenceModel(t *testing.T) {
	tb := mustTLB(t, 16, 4)
	type key struct {
		asid arch.ASID
		vpn  arch.VPN
	}
	ref := make(map[key]Entry)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		k := key{asid: arch.ASID(rng.Intn(3)), vpn: arch.VPN(rng.Intn(64))}
		switch rng.Intn(4) {
		case 0, 1: // insert
			e := Entry{ASID: k.asid, VPN: k.vpn, PPN: arch.PPN(rng.Intn(1 << 20)), Perm: arch.Perm(rng.Intn(4))}
			tb.Insert(e)
			ref[k] = e
		case 2: // lookup
			got, hit := tb.Lookup(k.asid, k.vpn)
			want, known := ref[k]
			if hit && !known {
				t.Fatalf("TLB invented a translation for %+v", k)
			}
			if hit && got != want {
				t.Fatalf("TLB returned stale data for %+v: %+v vs %+v", k, got, want)
			}
		case 3: // invalidate
			tb.Invalidate(k.asid, k.vpn)
			delete(ref, k)
		}
	}
}

// TestReinsertAfterHoleLeavesNoDuplicate: an invalidation leaves a free way
// ahead of a valid entry. Re-inserting that entry must refresh it, not file
// a second copy in the hole — otherwise the next invalidation removes one
// copy and the shootdown leaves a stale translation behind.
func TestReinsertAfterHoleLeavesNoDuplicate(t *testing.T) {
	tb := mustTLB(t, 4, 4)
	tb.Insert(Entry{ASID: 1, VPN: 10, PPN: 100})
	tb.Insert(Entry{ASID: 1, VPN: 11, PPN: 110})
	tb.Invalidate(1, 10)
	tb.Insert(Entry{ASID: 1, VPN: 11, PPN: 111})
	if n := tb.Valid(); n != 1 {
		t.Errorf("%d valid entries after re-inserting VPN 11, want 1", n)
	}
	if e, ok := tb.Lookup(1, 11); !ok || e.PPN != 111 {
		t.Errorf("lookup of VPN 11 = %+v, %v; want the refreshed PPN 111", e, ok)
	}
	tb.Invalidate(1, 11)
	if _, ok := tb.Lookup(1, 11); ok {
		t.Error("VPN 11 still hits after its invalidation: a duplicate survived")
	}
}
