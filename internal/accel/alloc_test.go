//go:build !race

package accel

import (
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/sim"
)

// These tests pin the simulated memory path at zero heap allocations per
// access. The race detector changes allocation behaviour, so they build
// only without it.

// l2Span is twice the rigs' 64 KB L2: walking it block by block, every
// access misses the L2, and once the L2 is full every miss evicts a victim.
const l2Span = 128 << 10

// sweepStores returns a function that stores to the next block of the
// region at v on each call, wrapping after n bytes, with simulated time
// advancing between stores.
func sweepStores(t *testing.T, h Hierarchy, asid arch.ASID, v arch.Virt, n uint64) func() {
	var at sim.Time
	var off uint64
	data := []byte{1, 2, 3, 4}
	return func() {
		if _, err := h.Access(at, 0, asid, Op{Kind: arch.Write, Size: 4, Addr: v + arch.Virt(off)}, data); err != nil {
			t.Fatal(err)
		}
		off = (off + arch.BlockSize) % n
		at += 1000
	}
}

// warmAndCount runs step once per block of an l2Span region to warm the
// translations, tables and caches, then returns the average allocations of
// further steps.
func warmAndCount(step func()) float64 {
	for i := 0; i < l2Span/arch.BlockSize; i++ {
		step()
	}
	return testing.AllocsPerRun(200, step)
}

func (r *altRig) region(t *testing.T, n uint64) arch.Virt {
	t.Helper()
	v, err := r.proc.Mmap(n, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.proc.Write(v, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBorderControlDirtyVictimAllocatesNothing(t *testing.T) {
	r := newRig(t, true)
	v := r.buffer(t, l2Span)
	step := sweepStores(t, r.hier, r.proc.ASID(), v, l2Span)
	port := r.hier.border
	if allocs := warmAndCount(step); allocs != 0 {
		t.Errorf("Border Control L2 miss with a dirty victim: %v allocations per access, want 0", allocs)
	}
	if port.Writes.Value() == 0 || r.bc.Checks.Value() == 0 {
		t.Fatalf("no checked victim writeback crossed the border (writes=%d checks=%d)",
			port.Writes.Value(), r.bc.Checks.Value())
	}
}

func TestIOMMUStoreAllocatesNothing(t *testing.T) {
	r := newAltRig(t)
	h := NewIOMMUHierarchy("gpu0", r.eng, r.ats, nil, r.clock)
	h.border = r.dirPort(t, h)
	v := r.region(t, l2Span)
	if allocs := warmAndCount(sweepStores(t, h, r.proc.ASID(), v, l2Span)); allocs != 0 {
		t.Errorf("full-IOMMU store: %v allocations per access, want 0", allocs)
	}
}

func TestCAPIL2MissAllocatesNothing(t *testing.T) {
	r := newAltRig(t)
	h, err := NewCAPIHierarchy(DefaultCAPIConfig("gpu0", r.clock, 64<<10), r.eng, r.ats, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.border = r.dirPort(t, h)
	v := r.region(t, l2Span)
	if allocs := warmAndCount(sweepStores(t, h, r.proc.ASID(), v, l2Span)); allocs != 0 {
		t.Errorf("CAPI-like L2 miss: %v allocations per access, want 0", allocs)
	}
	if r.port.Writes.Value() == 0 {
		t.Fatal("no dirty victim was written back")
	}
}

// TestFlushesAllocateNothing: once the hierarchy's flush slice has grown to
// a page's dirty blocks, a selective flush and a full flush with
// writebacks across the border allocate nothing.
func TestFlushesAllocateNothing(t *testing.T) {
	r := newRig(t, true)
	v := r.buffer(t, arch.PageSize)
	ppn, _ := r.proc.PPNOf(v.PageOf())
	var at sim.Time
	dirty := func() {
		for off := arch.Virt(0); off < arch.PageSize; off += 4 * arch.BlockSize {
			if _, err := r.hier.Access(at, 0, r.proc.ASID(), Op{Kind: arch.Write, Size: 4, Addr: v + off}, []byte{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
			at += 1000
		}
	}
	for name, flush := range map[string]func(){
		"FlushPage": func() { at = r.hier.FlushPage(at, ppn) },
		"FlushAll":  func() { at = r.hier.FlushAll(at) },
	} {
		step := func() { dirty(); flush() }
		step()
		writes := r.hier.border.Writes.Value()
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("%s of a dirty page: %v allocations per flush, want 0", name, allocs)
		}
		if r.hier.border.Writes.Value()-writes < 50*8 {
			t.Fatalf("%s wrote back %d blocks, want 8 per flush", name, r.hier.border.Writes.Value()-writes)
		}
	}
}
