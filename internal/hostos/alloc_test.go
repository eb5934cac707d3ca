//go:build !race

package hostos

import (
	"runtime"
	"testing"

	"bordercontrol/internal/arch"
)

// The race detector changes allocation behaviour, so this file builds only
// without it.

func TestWordAccessAllocatesNothing(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(arch.PageSize, arch.PermRW)
	if err := p.WriteU32(base, 1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.WriteU32(base+8, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteU32 on a mapped page: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if x, err := p.ReadU32(base + 8); err != nil || x != 0xdeadbeef {
			t.Fatalf("ReadU32 = %#x, %v", x, err)
		}
	}); allocs != 0 {
		t.Errorf("ReadU32 on a mapped page: %v allocations, want 0", allocs)
	}
}

// TestQueriesOnUntouchedStateAllocateNothing: reading the state of pages
// and frames nothing has touched, anywhere in memory, costs no memory.
func TestQueriesOnUntouchedStateAllocateNothing(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	if allocs := testing.AllocsPerRun(100, func() {
		for _, n := range []uint64{0, 1 << 12, 1<<14 - 1, 1 << 30, 1 << 40} {
			o.PageEpoch(arch.PPN(n))
			o.Frames().Owns(arch.PPN(n))
			p.Mapped(arch.VPN(n))
		}
	}); allocs != 0 {
		t.Errorf("queries allocated %v times per run, want 0", allocs)
	}
}

// TestHugeFaultIsLinear: faulting in a 2 MB huge page records its 512 pages
// in a few table leaves. Growing a table by one entry at a time, copying
// it on every step, would cost megabytes here.
func TestHugeFaultIsLinear(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, err := p.MmapHuge(arch.HugePageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.Translate(base, arch.Read); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("huge fault: %d bytes in %d allocations", bytes, objects)
	if !p.Mapped(base.PageOf() + arch.PagesPerHugePage - 1) {
		t.Fatal("the fault did not map the whole huge page")
	}
	const pages = arch.PagesPerHugePage
	if objects > pages/8 {
		t.Errorf("huge fault made %d allocations, want at most %d", objects, pages/8)
	}
	if bytes > pages*128 {
		t.Errorf("huge fault allocated %d bytes, want at most %d (128 per page)", bytes, pages*128)
	}
}
