package hostos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
)

// The model below is a map-based reference for the OS's page, frame and
// epoch bookkeeping. TestRandomOpsMatchModel drives random sequences of
// Mmap, MmapHuge, Translate, Protect, Unmap, Remap, ShareCOW and Exit
// through the OS and the model and compares them after every step: the set
// of mapped pages (and ForEachMapped's order), PPNOf, PermOf,
// Frames().InUse and PageEpoch.
//
// The model cannot predict which frame the allocator hands out, so it
// learns a frame when one is allocated and checks that it was free.

type modelPage struct {
	ppn  arch.PPN
	perm arch.Perm
	cow  bool
	huge bool
}

type modelProc struct {
	p     *Process
	vmas  []vma
	pages map[arch.VPN]*modelPage
}

func (mp *modelProc) vmaFor(v arch.Virt) *vma {
	for i := range mp.vmas {
		if mp.vmas[i].contains(v) {
			return &mp.vmas[i]
		}
	}
	return nil
}

type model struct {
	t      *testing.T
	o      *OS
	rng    *rand.Rand
	procs  []*modelProc
	refs   map[arch.PPN]int // live mappings of each data frame
	epochs map[arch.PPN]uint64
	huge   int // huge pages reserved so far
}

func (m *model) newProc() *modelProc {
	p, err := m.o.NewProcess(fmt.Sprintf("p%d", len(m.procs)))
	if err != nil {
		m.t.Fatal(err)
	}
	mp := &modelProc{p: p, pages: map[arch.VPN]*modelPage{}}
	m.procs = append(m.procs, mp)
	return mp
}

// fresh records that vpn of mp now maps a newly allocated frame.
func (m *model) fresh(mp *modelProc, vpn arch.VPN, perm arch.Perm, huge bool) *modelPage {
	ppn, ok := mp.p.PPNOf(vpn)
	if !ok {
		m.t.Fatalf("%s: page %#x not mapped after a fault", mp.p.Name(), vpn)
	}
	if m.refs[ppn] != 0 {
		m.t.Fatalf("%s: page %#x got frame %#x, which %d mapping(s) still use", mp.p.Name(), vpn, ppn, m.refs[ppn])
	}
	m.refs[ppn] = 1
	pg := &modelPage{ppn: ppn, perm: perm, huge: huge}
	mp.pages[vpn] = pg
	return pg
}

// fault mirrors faultIn of vpn inside a.
func (m *model) fault(mp *modelProc, vpn arch.VPN, a *vma) {
	if !a.huge {
		m.fresh(mp, vpn, a.perm, false)
		return
	}
	head := vpn - vpn%arch.PagesPerHugePage
	first := m.fresh(mp, head, a.perm, true).ppn
	for i := arch.VPN(1); i < arch.PagesPerHugePage; i++ {
		if pg := m.fresh(mp, head+i, a.perm, true); pg.ppn != first+arch.PPN(i) {
			m.t.Fatalf("huge page frames not contiguous at %#x", head+i)
		}
	}
}

// drop mirrors the release of one mapping: a revoking broadcast, then the
// frame loses a reference.
func (m *model) drop(mp *modelProc, vpn arch.VPN) {
	pg := mp.pages[vpn]
	m.epochs[pg.ppn]++
	m.refs[pg.ppn]--
	delete(mp.pages, vpn)
}

// pick returns a random page inside one of mp's areas, or a random address
// outside all of them.
func (m *model) pick(mp *modelProc) arch.Virt {
	if len(mp.vmas) == 0 || m.rng.Intn(8) == 0 {
		return arch.Virt(m.rng.Intn(1 << 34))
	}
	a := mp.vmas[m.rng.Intn(len(mp.vmas))]
	return a.start + arch.Virt(uint64(m.rng.Intn(int(a.size/arch.PageSize)))*arch.PageSize)
}

// smallArea picks one of mp's 4 KB-page areas, or nil.
func (m *model) smallArea(mp *modelProc) *vma {
	var small []*vma
	for i := range mp.vmas {
		if !mp.vmas[i].huge {
			small = append(small, &mp.vmas[i])
		}
	}
	if len(small) == 0 {
		return nil
	}
	return small[m.rng.Intn(len(small))]
}

// subRange picks a random page range inside a.
func (m *model) subRange(a *vma) (arch.Virt, uint64) {
	pages := int(a.size / arch.PageSize)
	i := m.rng.Intn(pages)
	n := 1 + m.rng.Intn(pages-i)
	return a.start + arch.Virt(i*arch.PageSize), uint64(n) * arch.PageSize
}

var modelPerms = []arch.Perm{arch.PermNone, arch.PermRead, arch.PermRW}

func (m *model) step() {
	if len(m.procs) == 0 {
		m.newProc()
	}
	mp := m.procs[m.rng.Intn(len(m.procs))]
	switch op := m.rng.Intn(20); {
	case op < 3:
		perm := modelPerms[1+m.rng.Intn(2)]
		size := uint64(1+m.rng.Intn(6))*arch.PageSize - uint64(m.rng.Intn(100))
		base, err := mp.p.Mmap(size, perm)
		if err != nil {
			m.t.Fatal(err)
		}
		mp.vmas = append(mp.vmas, vma{start: base, size: arch.AlignUp(size, arch.PageSize), perm: perm})
	case op < 4:
		if m.huge == 4 {
			return
		}
		m.huge++
		base, err := mp.p.MmapHuge(arch.HugePageSize, arch.PermRW)
		if err != nil {
			m.t.Fatal(err)
		}
		mp.vmas = append(mp.vmas, vma{start: base, size: arch.HugePageSize, perm: arch.PermRW, huge: true})
	case op < 11:
		m.translate(mp, m.pick(mp)+arch.Virt(m.rng.Intn(arch.PageSize)), arch.AccessKind(m.rng.Intn(2)))
	case op < 14:
		m.protect(mp)
	case op < 16:
		m.unmap(mp)
	case op < 18:
		m.remap(mp, m.pick(mp).PageOf())
	case op < 19:
		m.share(mp)
	default:
		m.exit(mp)
	}
}

func (m *model) translate(mp *modelProc, v arch.Virt, kind arch.AccessKind) {
	vpn := v.PageOf()
	_, mapped := mp.pages[vpn]
	a := mp.vmaFor(v)
	pa, err := mp.p.Translate(v, kind)
	if !mapped {
		if a == nil {
			var sf *Segfault
			if !errors.As(err, &sf) {
				m.t.Fatalf("translate %#x outside every area: err = %v, want a segfault", v, err)
			}
			return
		}
		m.fault(mp, vpn, a)
	}
	pg := mp.pages[vpn]
	want := true
	if kind == arch.Write && !pg.perm.CanWrite() {
		if !pg.cow {
			want = false
		} else {
			if m.refs[pg.ppn] > 1 {
				m.refs[pg.ppn]--
				pg = m.fresh(mp, vpn, pg.perm, false)
			}
			pg.cow = false
			pg.perm |= arch.PermRW
		}
	}
	if kind == arch.Read && !pg.perm.CanRead() {
		want = false
	}
	if !want {
		if err == nil {
			m.t.Fatalf("%s %#x with %s succeeded", kind, v, pg.perm)
		}
		return
	}
	if err != nil || pa != pg.ppn.Base()+arch.Phys(v.Offset()) {
		m.t.Fatalf("%s %#x = %#x, %v; want %#x", kind, v, pa, err, pg.ppn.Base()+arch.Phys(v.Offset()))
	}
}

func (m *model) protect(mp *modelProc) {
	if len(mp.vmas) == 0 {
		return
	}
	a := &mp.vmas[m.rng.Intn(len(mp.vmas))]
	addr, size := a.start, a.size
	if m.rng.Intn(2) == 0 {
		addr, size = m.subRange(a)
	}
	perm := modelPerms[m.rng.Intn(len(modelPerms))]
	if _, err := m.o.Protect(mp.p, addr, size, perm); err != nil {
		m.t.Fatal(err)
	}
	for i := range mp.vmas {
		if b := &mp.vmas[i]; b.start == addr && b.size == size {
			b.perm = perm
		}
	}
	for vpn := addr.PageOf(); vpn <= (addr + arch.Virt(size) - 1).PageOf(); vpn++ {
		pg, ok := mp.pages[vpn]
		if !ok || pg.perm == perm {
			continue
		}
		if losesPerm(pg.perm, perm) {
			m.epochs[pg.ppn]++
		}
		pg.perm = perm
	}
}

func (m *model) unmap(mp *modelProc) {
	a := m.smallArea(mp)
	if a == nil {
		return
	}
	addr, size := m.subRange(a)
	if err := m.o.Unmap(mp.p, addr, size); err != nil {
		m.t.Fatal(err)
	}
	// Carve the range out of the model's areas.
	end := addr + arch.Virt(size)
	var out []vma
	for _, b := range mp.vmas {
		bEnd := b.start + arch.Virt(b.size)
		if bEnd <= addr || b.start >= end {
			out = append(out, b)
			continue
		}
		if b.start < addr {
			out = append(out, vma{start: b.start, size: uint64(addr - b.start), perm: b.perm, huge: b.huge})
		}
		if bEnd > end {
			out = append(out, vma{start: end, size: uint64(bEnd - end), perm: b.perm, huge: b.huge})
		}
	}
	mp.vmas = out
	for vpn := addr.PageOf(); vpn < end.PageOf(); vpn++ {
		if _, ok := mp.pages[vpn]; ok {
			m.drop(mp, vpn)
		}
	}
}

func (m *model) remap(mp *modelProc, vpn arch.VPN) {
	pg, mapped := mp.pages[vpn]
	fresh, err := m.o.Remap(mp.p, vpn)
	if !mapped || pg.huge || m.refs[pg.ppn] > 1 {
		if err == nil {
			m.t.Fatalf("remap of %#x (mapped %v, %+v) succeeded", vpn, mapped, pg)
		}
		return
	}
	if err != nil {
		m.t.Fatalf("remap of %#x: %v", vpn, err)
	}
	m.epochs[pg.ppn]++
	m.refs[pg.ppn]--
	if m.refs[fresh] != 0 {
		m.t.Fatalf("remap moved %#x to frame %#x, which is still mapped", vpn, fresh)
	}
	m.refs[fresh] = 1
	pg.ppn = fresh
}

// share mirrors ShareCOW of part of a 4 KB-page area into a new process.
func (m *model) share(src *modelProc) {
	a := m.smallArea(src)
	if a == nil || len(m.procs) > 12 {
		return
	}
	addr, size := m.subRange(a)
	for vpn := addr.PageOf(); vpn <= (addr + arch.Virt(size) - 1).PageOf(); vpn++ {
		if b := src.vmaFor(vpn.Base()); b == nil || b.huge {
			return
		}
	}
	dst := m.newProc()
	if err := m.o.ShareCOW(src.p, dst.p, addr, size); err != nil {
		m.t.Fatal(err)
	}
	first, last := addr.PageOf(), (addr + arch.Virt(size) - 1).PageOf()
	dst.vmas = append(dst.vmas, vma{start: first.Base(), size: uint64(last-first+1) * arch.PageSize, perm: arch.PermRW})
	for vpn := first; vpn <= last; vpn++ {
		if _, ok := src.pages[vpn]; !ok {
			m.fault(src, vpn, src.vmaFor(vpn.Base()))
		}
		pg := src.pages[vpn]
		if ro := pg.perm &^ arch.PermWrite; ro != pg.perm {
			m.epochs[pg.ppn]++
			pg.perm = ro
		}
		pg.cow = true
		m.refs[pg.ppn]++
		dst.pages[vpn] = &modelPage{ppn: pg.ppn, perm: pg.perm, cow: true}
	}
}

func (m *model) exit(mp *modelProc) {
	m.o.Exit(mp.p)
	vpns := make([]arch.VPN, 0, len(mp.pages))
	for vpn := range mp.pages {
		vpns = append(vpns, vpn)
	}
	for _, vpn := range vpns {
		m.drop(mp, vpn)
	}
	m.procs = slices.DeleteFunc(m.procs, func(q *modelProc) bool { return q == mp })
	if mp.p.Mapped(arch.VPN(m.rng.Intn(1<<12)) + mmapBase.PageOf()) {
		m.t.Fatal("a dead process still maps pages")
	}
}

// check compares the OS with the model.
func (m *model) check(step int) {
	m.t.Helper()
	inUse := 0
	for ppn, n := range m.refs {
		if n > 0 {
			inUse++
			if !m.o.Frames().Owns(ppn) {
				m.t.Fatalf("step %d: mapped frame %#x is not allocated", step, ppn)
			}
		}
	}
	for _, mp := range m.procs {
		inUse += mp.p.Table().TablePages()
		var got []arch.VPN
		mp.p.ForEachMapped(func(vpn arch.VPN, ppn arch.PPN, perm arch.Perm) {
			got = append(got, vpn)
			pg, ok := mp.pages[vpn]
			if !ok || pg.ppn != ppn || pg.perm != perm {
				m.t.Fatalf("step %d: %s maps %#x -> %#x %s; model has %+v", step, mp.p.Name(), vpn, ppn, perm, pg)
			}
		})
		if !slices.IsSorted(got) || len(got) != len(mp.pages) {
			m.t.Fatalf("step %d: %s: ForEachMapped gave %d pages (sorted %v), model has %d",
				step, mp.p.Name(), len(got), slices.IsSorted(got), len(mp.pages))
		}
		for vpn, pg := range mp.pages {
			ppn, ok1 := mp.p.PPNOf(vpn)
			perm, ok2 := mp.p.PermOf(vpn)
			if !ok1 || !ok2 || !mp.p.Mapped(vpn) || ppn != pg.ppn || perm != pg.perm {
				m.t.Fatalf("step %d: %s page %#x: PPNOf %#x/%v PermOf %s/%v, model %+v", step, mp.p.Name(), vpn, ppn, ok1, perm, ok2, pg)
			}
		}
		if vpn := m.pick(mp).PageOf(); mp.pages[vpn] == nil && mp.p.Mapped(vpn) {
			m.t.Fatalf("step %d: %s maps %#x, the model does not", step, mp.p.Name(), vpn)
		}
	}
	if got := m.o.Frames().InUse(); got != inUse {
		m.t.Fatalf("step %d: Frames().InUse() = %d, model %d", step, got, inUse)
	}
	for ppn, e := range m.epochs {
		if got := m.o.PageEpoch(ppn); got != e {
			m.t.Fatalf("step %d: PageEpoch(%#x) = %d, model %d", step, ppn, got, e)
		}
	}
}

func TestRandomOpsMatchModel(t *testing.T) {
	seeds, steps := 40, 400
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		store, err := memory.NewStore(64 << 20)
		if err != nil {
			t.Fatal(err)
		}
		m := &model{t: t, o: New(store), rng: rand.New(rand.NewSource(int64(seed))),
			refs: map[arch.PPN]int{}, epochs: map[arch.PPN]uint64{}}
		m.newProc()
		m.newProc()
		for i := 0; i < steps; i++ {
			m.step()
			m.check(i)
		}
		for len(m.procs) > 0 {
			m.exit(m.procs[0])
		}
		m.check(steps)
		if n := m.o.Frames().InUse(); n != 0 {
			t.Fatalf("seed %d: %d frames in use after every process exited", seed, n)
		}
	}
}
