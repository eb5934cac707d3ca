package hostos

import (
	"bytes"
	"errors"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
)

func newOS(t testing.TB) *OS {
	t.Helper()
	store, err := memory.NewStore(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return New(store)
}

func TestFrameAllocator(t *testing.T) {
	o := newOS(t)
	f := o.Frames()
	a, err := f.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Error("frame 0 must never be handed out")
	}
	b, _ := f.AllocFrame()
	if a == b {
		t.Error("duplicate frames")
	}
	f.FreeFrame(a)
	c, _ := f.AllocFrame()
	if c != a {
		t.Errorf("free list not reused: got %d, want %d", c, a)
	}
}

func TestFrameAllocatorContiguous(t *testing.T) {
	store, _ := memory.NewStore(1 << 20)
	f := NewFrameAllocator(store)
	start, err := f.AllocContiguous(10)
	if err != nil {
		t.Fatal(err)
	}
	if start == 0 {
		t.Error("contiguous region includes frame 0")
	}
	// All ten frames are now allocated: freeing each must not panic.
	f.FreeContiguous(start, 10)
	if f.InUse() != 0 {
		t.Errorf("in use = %d after free", f.InUse())
	}
	if _, err := f.AllocContiguous(1 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized contiguous alloc = %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	o := newOS(t)
	a, _ := o.Frames().AllocFrame()
	o.Frames().FreeFrame(a)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	o.Frames().FreeFrame(a)
}

func TestOutOfMemory(t *testing.T) {
	store, _ := memory.NewStore(4 * arch.PageSize)
	f := NewFrameAllocator(store)
	// Frames 1..3 allocatable.
	for i := 0; i < 3; i++ {
		if _, err := f.AllocFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("exhausted allocator = %v", err)
	}
}

func TestProcessReadWrite(t *testing.T) {
	o := newOS(t)
	p, err := o.NewProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Mmap(3*arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("abcdefgh"), 1024) // 8 KB, crosses pages
	if err := p.Write(base+100, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(base+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip failed")
	}
	if p.MajorFaults == 0 {
		t.Error("demand paging should have faulted")
	}
}

func TestSegfault(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	var buf [4]byte
	err := p.Read(0x10, buf[:]) // below mmapBase: unmapped
	var sf *Segfault
	if !errors.As(err, &sf) {
		t.Fatalf("err = %v, want Segfault", err)
	}
	if sf.ASID != p.ASID() || sf.Kind != arch.Read {
		t.Errorf("segfault fields: %+v", sf)
	}
	// Write to read-only VMA.
	ro, _ := p.Mmap(arch.PageSize, arch.PermRead)
	if err := p.Read(ro, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(ro, buf[:]); !errors.As(err, &sf) {
		t.Errorf("write to read-only = %v, want Segfault", err)
	}
}

func TestTranslateMatchesPageTable(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(arch.PageSize, arch.PermRW)
	pa, err := p.Translate(base+123, arch.Read)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Table().Walk(base + 123)
	if err != nil {
		t.Fatal(err)
	}
	if pa != tr.PPN.Base()+123 {
		t.Errorf("Translate %#x != table walk %#x", pa, tr.PPN.Base()+123)
	}
}

func TestGuardGapBetweenMmaps(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	a, _ := p.Mmap(arch.PageSize, arch.PermRW)
	b, _ := p.Mmap(arch.PageSize, arch.PermRW)
	if b <= a+arch.PageSize {
		t.Error("no guard gap between mappings")
	}
	var buf [1]byte
	if err := p.Read(a+arch.PageSize, buf[:]); err == nil {
		t.Error("guard page should fault")
	}
}

type recordingListener struct{ downs []Downgrade }

func (r *recordingListener) OnDowngrade(d Downgrade) { r.downs = append(r.downs, d) }

func TestProtectBroadcastsDowngrades(t *testing.T) {
	o := newOS(t)
	l := &recordingListener{}
	o.AddShootdownListener(l)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(2*arch.PageSize, arch.PermRW)
	if err := p.Write(base, make([]byte, 2*arch.PageSize)); err != nil {
		t.Fatal(err)
	}
	downs, err := o.Protect(p, base, 2*arch.PageSize, arch.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(downs) != 2 || len(l.downs) != 2 {
		t.Fatalf("downgrades = %d broadcast = %d, want 2", len(downs), len(l.downs))
	}
	if l.downs[0].Old != arch.PermRW || l.downs[0].New != arch.PermRead {
		t.Errorf("downgrade perms: %+v", l.downs[0])
	}
	// Upgrading back is not a downgrade: no broadcast.
	l.downs = nil
	if _, err := o.Protect(p, base, 2*arch.PageSize, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if len(l.downs) != 0 {
		t.Error("upgrade should not broadcast")
	}
	// Page table reflects the final permissions.
	tr, _ := p.Table().Walk(base)
	if tr.Perm != arch.PermRW {
		t.Errorf("table perm = %v", tr.Perm)
	}
}

func TestProtectUnfaultedPagesIsSilent(t *testing.T) {
	o := newOS(t)
	l := &recordingListener{}
	o.AddShootdownListener(l)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(arch.PageSize, arch.PermRW)
	if _, err := o.Protect(p, base, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if len(l.downs) != 0 {
		t.Error("never-faulted page cannot need a shootdown")
	}
	// Future faults use the new permission.
	var buf [1]byte
	if err := p.Write(base, buf[:]); err == nil {
		t.Error("write should fault after VMA downgrade")
	}
}

func TestUnmapFreesFrames(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(arch.PageSize, arch.PermRW)
	if err := p.Write(base, []byte{1}); err != nil {
		t.Fatal(err)
	}
	inUse := o.Frames().InUse()
	if err := o.Unmap(p, base, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	if o.Frames().InUse() != inUse-1 {
		t.Error("unmap did not free the data frame")
	}
	var buf [1]byte
	if err := p.Read(base, buf[:]); err == nil {
		t.Error("unmapped page should fault")
	}
}

func TestRemapPreservesContents(t *testing.T) {
	o := newOS(t)
	l := &recordingListener{}
	o.AddShootdownListener(l)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(arch.PageSize, arch.PermRW)
	if err := p.Write(base, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	oldPPN, _ := p.PPNOf(base.PageOf())
	fresh, err := o.Remap(p, base.PageOf())
	if err != nil {
		t.Fatal(err)
	}
	if fresh == oldPPN {
		t.Error("remap must move to a different frame")
	}
	var buf [7]byte
	if err := p.Read(base, buf[:]); err != nil {
		t.Fatal(err)
	}
	if string(buf[:]) != "payload" {
		t.Errorf("contents after remap: %q", buf[:])
	}
	if len(l.downs) != 1 {
		t.Error("remap must broadcast a downgrade for the old frame")
	}
}

// TestRemapRefusesSharedCOWPage: a copy-on-write page another process
// still maps cannot move. Freeing the shared frame while dst maps it would
// let the next process's page-table node land in that frame, and dst
// would read (and could write) page-table bytes.
func TestRemapRefusesSharedCOWPage(t *testing.T) {
	o := newOS(t)
	src, _ := o.NewProcess("src")
	dst, _ := o.NewProcess("dst")
	base, _ := src.Mmap(arch.PageSize, arch.PermRW)
	if err := src.Write(base, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := o.ShareCOW(src, dst, base, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	shared, _ := dst.PPNOf(base.PageOf())
	if _, err := o.Remap(src, base.PageOf()); err == nil {
		t.Error("remap of a shared copy-on-write page succeeded")
	}
	if !o.Frames().Owns(shared) {
		t.Error("the shared frame was freed while dst still maps it")
	}
	if _, err := o.NewProcess("next"); err != nil {
		t.Fatal(err)
	}
	var buf [6]byte
	if err := dst.Read(base, buf[:]); err != nil {
		t.Fatal(err)
	}
	if string(buf[:]) != "shared" {
		t.Errorf("dst reads %q, want the shared page", buf[:])
	}
	// Once dst writes, it has a private copy and src's page may move.
	if err := dst.Write(base, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Remap(src, base.PageOf()); err != nil {
		t.Errorf("remap of an unshared page: %v", err)
	}
}

func TestCopyOnWrite(t *testing.T) {
	o := newOS(t)
	src, _ := o.NewProcess("src")
	dst, _ := o.NewProcess("dst")
	base, _ := src.Mmap(arch.PageSize, arch.PermRW)
	if err := src.Write(base, []byte("shared secret")); err != nil {
		t.Fatal(err)
	}
	if err := o.ShareCOW(src, dst, base, arch.PageSize); err != nil {
		t.Fatal(err)
	}
	// Both see the data; both share the frame.
	var buf [13]byte
	if err := dst.Read(base, buf[:]); err != nil {
		t.Fatal(err)
	}
	if string(buf[:]) != "shared secret" {
		t.Errorf("dst sees %q", buf[:])
	}
	sp, _ := src.PPNOf(base.PageOf())
	dp, _ := dst.PPNOf(base.PageOf())
	if sp != dp {
		t.Error("CoW pages should share a frame before any write")
	}
	// dst writes: gets a private copy; src is unaffected.
	if err := dst.Write(base, []byte("MODIFIED")); err != nil {
		t.Fatal(err)
	}
	dp2, _ := dst.PPNOf(base.PageOf())
	if dp2 == sp {
		t.Error("write did not break CoW sharing")
	}
	if err := src.Read(base, buf[:]); err != nil {
		t.Fatal(err)
	}
	if string(buf[:]) != "shared secret" {
		t.Errorf("src corrupted by dst's write: %q", buf[:])
	}
}

func TestExitReleasesEverything(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(4*arch.PageSize, arch.PermRW)
	if err := p.Write(base, make([]byte, 4*arch.PageSize)); err != nil {
		t.Fatal(err)
	}
	l := &recordingListener{}
	o.AddShootdownListener(l)
	o.Exit(p)
	if !p.Dead() {
		t.Error("process should be dead")
	}
	if o.Frames().InUse() != 0 {
		t.Errorf("frames leaked: %d in use", o.Frames().InUse())
	}
	if len(l.downs) != 4 {
		t.Errorf("exit broadcast %d revocations, want 4", len(l.downs))
	}
	if _, ok := o.Process(p.ASID()); ok {
		t.Error("dead process still registered")
	}
	// Idempotent.
	o.Exit(p)
}

func TestViolationPolicy(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	var seen []Violation
	o.OnViolation = func(v Violation) { seen = append(seen, v) }
	v := Violation{Accelerator: "gpu0", Addr: 0x1000, Kind: arch.Write}
	o.ReportViolation(v, p.ASID())
	if len(o.Violations) != 1 || len(seen) != 1 {
		t.Error("violation not logged")
	}
	if !p.Dead() {
		t.Error("default policy should kill the culprit")
	}
	// With KeepProcessOnViolation the process survives.
	o2 := newOS(t)
	o2.KeepProcessOnViolation = true
	p2, _ := o2.NewProcess("p2")
	o2.ReportViolation(v, p2.ASID())
	if p2.Dead() {
		t.Error("keep policy should not kill")
	}
}

func TestFaultIn(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, _ := p.Mmap(arch.PageSize, arch.PermRW)
	if err := o.FaultIn(p.ASID(), base, arch.Read); err != nil {
		t.Fatal(err)
	}
	if !p.Mapped(base.PageOf()) {
		t.Error("FaultIn did not map the page")
	}
	if err := o.FaultIn(999, base, arch.Read); err == nil {
		t.Error("FaultIn for unknown ASID should fail")
	}
	if err := o.FaultIn(p.ASID(), 0x10, arch.Read); err == nil {
		t.Error("FaultIn outside any VMA should fail")
	}
}

func TestHugeMmap(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	base, err := p.MmapHuge(arch.HugePageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(base)%arch.HugePageSize != 0 {
		t.Error("huge mapping not aligned")
	}
	if err := p.Write(base+12345, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Table().Walk(base)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Huge {
		t.Error("backing leaf should be a huge page")
	}
	// Contiguous physical backing.
	p0, _ := p.PPNOf(base.PageOf())
	p1, _ := p.PPNOf(base.PageOf() + 1)
	if p1 != p0+1 {
		t.Error("huge page frames not contiguous")
	}
}

func TestTableFor(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	tbl, ok := o.TableFor(p.ASID())
	if !ok || tbl != p.Table() {
		t.Error("TableFor wrong")
	}
	if _, ok := o.TableFor(12345); ok {
		t.Error("TableFor unknown ASID should miss")
	}
}

func TestDeadProcessRefusesWork(t *testing.T) {
	o := newOS(t)
	p, _ := o.NewProcess("p")
	o.Exit(p)
	if _, err := p.Mmap(arch.PageSize, arch.PermRW); err == nil {
		t.Error("mmap in dead process should fail")
	}
	if err := p.Write(mmapBase, []byte{1}); err == nil {
		t.Error("write in dead process should fail")
	}
	if _, err := o.Protect(p, mmapBase, arch.PageSize, arch.PermRead); err == nil {
		t.Error("protect in dead process should fail")
	}
}
