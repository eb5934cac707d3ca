package core

import (
	"testing"
	"testing/quick"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
)

func TestTableBytes(t *testing.T) {
	// The paper's headline: 16 GB of physical memory needs a 1 MB table —
	// 0.006% overhead.
	pages := uint64(16<<30) / arch.PageSize
	if got := TableBytes(pages); got != 1<<20 {
		t.Errorf("TableBytes(16GB) = %d, want 1 MiB", got)
	}
	overhead := float64(TableBytes(pages)) / float64(16<<30) * 100
	if overhead > 0.0062 || overhead < 0.0058 {
		t.Errorf("overhead = %f%%, want ~0.006%%", overhead)
	}
	if TableBytes(1) != 1 || TableBytes(4) != 1 || TableBytes(5) != 2 {
		t.Error("rounding wrong")
	}
}

func newPT(t testing.TB, pages uint64) (*ProtectionTable, *memory.Store) {
	t.Helper()
	store, err := memory.NewStore(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewProtectionTable(store, 0x1000, pages)
	if err != nil {
		t.Fatal(err)
	}
	return pt, store
}

func TestProtectionTableValidation(t *testing.T) {
	store, _ := memory.NewStore(1 << 20)
	if _, err := NewProtectionTable(store, 123, 100); err == nil {
		t.Error("unaligned base should fail")
	}
	if _, err := NewProtectionTable(store, 0, 1<<40); err == nil {
		t.Error("table beyond memory should fail")
	}
}

func TestProtectionTableDefaultsClosed(t *testing.T) {
	pt, _ := newPT(t, 1024)
	for _, p := range []arch.PPN{0, 1, 513, 1023} {
		if pt.Lookup(p) != arch.PermNone {
			t.Errorf("fresh table grants %v to %d", pt.Lookup(p), p)
		}
	}
	// Out of bounds is always no-permission.
	if pt.Lookup(1024) != arch.PermNone || pt.Lookup(1<<40) != arch.PermNone {
		t.Error("out-of-bounds lookup must fail closed")
	}
	if pt.InBounds(1024) || !pt.InBounds(1023) {
		t.Error("bounds register wrong")
	}
}

func TestProtectionTableSetMerge(t *testing.T) {
	pt, _ := newPT(t, 1024)
	pt.Set(5, arch.PermRead)
	if pt.Lookup(5) != arch.PermRead {
		t.Error("set/lookup mismatch")
	}
	if !pt.Merge(5, arch.PermWrite) {
		t.Error("merge should report a change")
	}
	if pt.Lookup(5) != arch.PermRW {
		t.Error("merge should widen")
	}
	if pt.Merge(5, arch.PermRead) {
		t.Error("redundant merge should report no change")
	}
	// Set can narrow.
	pt.Set(5, arch.PermNone)
	if pt.Lookup(5) != arch.PermNone {
		t.Error("set should overwrite")
	}
	// Exec bits never enter the table.
	pt.Set(6, arch.PermRead|arch.PermExec)
	if pt.Lookup(6) != arch.PermRead {
		t.Errorf("exec leaked into the table: %v", pt.Lookup(6))
	}
}

func TestProtectionTableNeighborIsolation(t *testing.T) {
	// Four pages share a byte: updating one must not disturb the others.
	pt, _ := newPT(t, 1024)
	pt.Set(8, arch.PermRead)
	pt.Set(9, arch.PermWrite)
	pt.Set(10, arch.PermRW)
	pt.Set(9, arch.PermNone)
	if pt.Lookup(8) != arch.PermRead || pt.Lookup(10) != arch.PermRW || pt.Lookup(11) != arch.PermNone {
		t.Error("neighbor bits disturbed")
	}
}

func TestProtectionTableQuick(t *testing.T) {
	pt, _ := newPT(t, 4096)
	ref := make(map[arch.PPN]arch.Perm)
	f := func(page uint16, perm uint8, set bool) bool {
		p := arch.PPN(page) % 4096
		pm := arch.Perm(perm & 3)
		if set {
			pt.Set(p, pm)
			ref[p] = pm
		} else {
			pt.Merge(p, pm)
			ref[p] |= pm
		}
		return pt.Lookup(p) == ref[p]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	// Sweep everything against the reference at the end.
	for p, want := range ref {
		if pt.Lookup(p) != want {
			t.Fatalf("final sweep: page %d = %v, want %v", p, pt.Lookup(p), want)
		}
	}
}

func TestProtectionTableZero(t *testing.T) {
	pt, _ := newPT(t, 2048)
	for p := arch.PPN(0); p < 2048; p += 7 {
		pt.Set(p, arch.PermRW)
	}
	pt.Zero()
	for p := arch.PPN(0); p < 2048; p++ {
		if pt.Lookup(p) != arch.PermNone {
			t.Fatalf("page %d survived zero", p)
		}
	}
}

func TestBlockAddr(t *testing.T) {
	pt, _ := newPT(t, 4096)
	// 512 pages per block: pages 0..511 share block 0 of the table.
	if pt.BlockAddr(0) != pt.BlockAddr(511) {
		t.Error("pages 0 and 511 should share a table block")
	}
	if pt.BlockAddr(511) == pt.BlockAddr(512) {
		t.Error("pages 511 and 512 must be in different table blocks")
	}
	if pt.EntryAddr(0) != pt.Base() {
		t.Error("entry 0 should be at the base")
	}
	var perms [PagesPerBlock]arch.Perm
	pt.Set(0, arch.PermRead)
	pt.LookupRange(0, perms[:])
	if perms[0] != arch.PermRead {
		t.Error("LookupRange contents wrong")
	}
}

func TestProtectionTableOutOfBoundsPanics(t *testing.T) {
	pt, _ := newPT(t, 100)
	for name, fn := range map[string]func(){
		"set":   func() { pt.Set(100, arch.PermRead) },
		"merge": func() { pt.Merge(200, arch.PermRead) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of bounds should panic", name)
				}
			}()
			fn()
		}()
	}
}
