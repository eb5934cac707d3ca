package tlb

// This file keeps the TLB's original layout as an unexported reference
// model: a slice of ways per set, every operation a scan of its set (or of
// every set). The production TLB (one flat array of ways and an exact
// open-addressed index from (ASID, VPN) to way) must return exactly what
// this one does for every operation and keep the same counters.
// TestMatchesReference and FuzzTLBMatchesReference enforce that.

import (
	"math/rand"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/stats"
)

type refWay struct {
	valid bool
	lru   uint64
	e     Entry
}

type refTLB struct {
	sets    int
	tick    uint64
	entries [][]refWay

	HitMiss     stats.HitMiss
	Invalidates stats.Counter
	Flushes     stats.Counter
}

func newRefTLB(entries, ways int) *refTLB {
	sets := entries / ways
	t := &refTLB{sets: sets, entries: make([][]refWay, sets)}
	for i := range t.entries {
		t.entries[i] = make([]refWay, ways)
	}
	return t
}

func (t *refTLB) set(vpn arch.VPN) []refWay { return t.entries[uint64(vpn)%uint64(t.sets)] }

func (t *refTLB) Lookup(asid arch.ASID, vpn arch.VPN) (Entry, bool) {
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

func (t *refTLB) Insert(e Entry) {
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
	set[victim] = refWay{valid: true, lru: t.tick, e: e}
}

func (t *refTLB) Invalidate(asid arch.ASID, vpn arch.VPN) bool {
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

func (t *refTLB) InvalidateASID(asid arch.ASID) int {
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

func (t *refTLB) Flush() {
	for _, set := range t.entries {
		for i := range set {
			set[i].valid = false
		}
	}
	t.Flushes.Inc()
}

// ways returns the reference's ways in set order, the production layout.
func (t *refTLB) ways() []refWay {
	var out []refWay
	for _, set := range t.entries {
		out = append(out, set...)
	}
	return out
}

// checkIndex verifies the index holds exactly the valid ways, each
// reachable from its home slot without crossing an empty slot.
func checkIndex(t *testing.T, tb *TLB) {
	t.Helper()
	slots := 0
	for _, s := range tb.index {
		if s != 0 {
			slots++
			if !tb.ways[s-1].valid {
				t.Fatalf("index names invalid way %d", s-1)
			}
		}
	}
	if valid := tb.Valid(); slots != valid {
		t.Fatalf("index holds %d ways, %d are valid", slots, valid)
	}
	for j := range tb.ways {
		w := &tb.ways[j]
		if !w.valid {
			continue
		}
		if i, ok := tb.probe(w.asid, w.vpn); !ok || int(tb.index[i]) != j+1 {
			t.Fatalf("way %d (asid %d, vpn %#x) is not reachable through the index", j, w.asid, w.vpn)
		}
	}
}

// refShape is one differential TLB geometry.
type refShape struct{ entries, ways int }

// refShapes are the 64-entry fully associative accelerator L1 TLB, the
// 512-entry 8-way IOMMU L2 TLB, a small 4-way one, and a set count that is
// not a power of two, so the modulo index runs.
var refShapes = []refShape{{64, 64}, {512, 8}, {16, 4}, {24, 4}}

// diffTLB drives a TLB of shape s and its reference model through the
// operations script encodes, four bytes each (operation, ASID, two VPN
// bytes), and fails on the first return value, counter or way that
// differs. Most keys come from three ASIDs over a pool of the TLB's size;
// an ASID byte with its top bit set instead puts up to 64 ASIDs on one
// VPN, and the VPN byte's top bits move a VPN above 2^48 or to the top of
// the 64-bit space.
func diffTLB(t *testing.T, s refShape, script []byte) {
	t.Helper()
	tb, err := New(s.entries, s.ways)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefTLB(s.entries, s.ways)
	for i := 0; len(script) >= 4; i++ {
		op, b, x := script[0]%16, script[1], uint64(script[2])|uint64(script[3])<<8
		script = script[4:]
		asid := arch.ASID(b % 3)
		vpn := arch.VPN(x&0x3fff) % arch.VPN(s.entries)
		if b&0x80 != 0 {
			asid, vpn = arch.ASID(b&0x3f), 7
		}
		if x&0x4000 != 0 {
			vpn += 1 << 50
		}
		if x&0x8000 != 0 {
			vpn |= 1 << 63
		}
		switch {
		case op < 6:
			e := Entry{ASID: asid, VPN: vpn, PPN: arch.PPN(i), Perm: arch.Perm(op % 4)}
			tb.Insert(e)
			ref.Insert(e)
		case op < 11:
			ge, gok := tb.Lookup(asid, vpn)
			we, wok := ref.Lookup(asid, vpn)
			if ge != we || gok != wok {
				t.Fatalf("op %d: Lookup(%d, %#x) = %+v, %v; reference %+v, %v", i, asid, vpn, ge, gok, we, wok)
			}
		case op < 14:
			if got, want := tb.Invalidate(asid, vpn), ref.Invalidate(asid, vpn); got != want {
				t.Fatalf("op %d: Invalidate(%d, %#x) = %v, reference %v", i, asid, vpn, got, want)
			}
		case op == 14:
			if got, want := tb.InvalidateASID(asid), ref.InvalidateASID(asid); got != want {
				t.Fatalf("op %d: InvalidateASID(%d) = %d, reference %d", i, asid, got, want)
			}
		default:
			tb.Flush()
			ref.Flush()
		}
		if tb.HitMiss != ref.HitMiss || tb.Invalidates != ref.Invalidates || tb.Flushes != ref.Flushes {
			t.Fatalf("op %d: counters differ from the reference", i)
		}
		if i%32 == 0 || len(script) < 4 {
			for j, w := range ref.ways() {
				g := tb.ways[j]
				if g.valid != w.valid || (w.valid && (g.entry() != w.e || g.lru != w.lru)) {
					t.Fatalf("op %d: way %d = %+v, reference %+v", i, j, g, w)
				}
			}
			checkIndex(t, tb)
		}
	}
}

// TestMatchesReference runs long random scripts through every reference
// shape.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, s := range refShapes {
		script := make([]byte, 4*(5000+40*s.entries))
		rng.Read(script)
		diffTLB(t, s, script)
	}
}

// FuzzTLBMatchesReference lets the fuzzer pick the shape and the script.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 5, 0, 6, 1, 5, 0, 11, 1, 5, 0, 6, 1, 5, 0})
	f.Add(byte(1), []byte{0, 0x81, 0, 0, 1, 0x82, 0, 0, 2, 0x83, 0, 0, 14, 0x82, 0, 0, 7, 0x81, 0, 0})
	f.Add(byte(2), []byte{0, 1, 1, 0x40, 0, 1, 1, 0xc0, 6, 1, 1, 0x40, 12, 1, 1, 0xc0, 15, 0, 0, 0})
	f.Add(byte(3), []byte{0, 0, 3, 0, 1, 1, 9, 0, 2, 2, 15, 0, 3, 0, 21, 0, 4, 1, 3, 0, 12, 0, 3, 0})
	f.Fuzz(func(t *testing.T, shape byte, script []byte) {
		if len(script) > 1<<16 {
			return
		}
		diffTLB(t, refShapes[int(shape)%len(refShapes)], script)
	})
}
