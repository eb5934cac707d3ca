package hostos

import (
	"errors"
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/dense"
	"bordercontrol/internal/pagetable"
)

// Segfault describes an invalid virtual access by a process.
type Segfault struct {
	ASID arch.ASID
	Addr arch.Virt
	Kind arch.AccessKind
}

func (s *Segfault) Error() string {
	return fmt.Sprintf("hostos: segfault asid=%d %s %#x", s.ASID, s.Kind, s.Addr)
}

// vma is one virtual memory area.
type vma struct {
	start arch.Virt
	size  uint64
	perm  arch.Perm
	huge  bool // back with 2 MB pages
}

func (a *vma) contains(v arch.Virt) bool {
	return v >= a.start && uint64(v-a.start) < a.size
}

// pageInfo tracks OS-side state of a virtual page. The zero value is an
// unmapped page.
type pageInfo struct {
	ppn    arch.PPN
	perm   arch.Perm
	mapped bool
	cow    bool // write-protected copy-on-write page
	huge   bool // member of a huge mapping (head tracked separately)
	refs   *int // shared frame refcount, for CoW
}

// Process is one address space plus OS bookkeeping.
type Process struct {
	os    *OS
	name  string
	asid  arch.ASID
	table *pagetable.Table
	vmas  []vma
	brk   arch.Virt
	pages dense.Table[pageInfo] // by VPN
	dead  bool

	// MajorFaults counts demand-paging faults served.
	MajorFaults uint64

	// OnMmap, when set, observes every successful address-space
	// reservation (Mmap/MmapHuge) with its final aligned geometry. The
	// trace recorder registers here: replaying the same reservation
	// sequence on a fresh process reproduces identical base addresses.
	OnMmap func(base arch.Virt, size uint64, perm arch.Perm, huge bool)
	// OnFault, when set, observes every demand-paging fault with the
	// touched virtual page, in service order. Fault order determines the
	// frame and page-table-node allocation interleaving — and therefore
	// the physical layout the timing model sees — so the trace recorder
	// captures it to make replay bit-exact.
	OnFault func(vpn arch.VPN)
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// ASID returns the address-space identifier.
func (p *Process) ASID() arch.ASID { return p.asid }

// Table returns the process page table (read-mostly; the OS mutates it).
func (p *Process) Table() *pagetable.Table { return p.table }

// Dead reports whether the process has been terminated.
func (p *Process) Dead() bool { return p.dead }

// mmapBase is where process heaps start; a low guard region catches null
// dereferences.
const mmapBase arch.Virt = 0x1000_0000

// Mmap reserves size bytes of zeroed, demand-paged memory with the given
// permissions and returns its base address.
func (p *Process) Mmap(size uint64, perm arch.Perm) (arch.Virt, error) {
	return p.mmap(size, perm, false)
}

// MmapHuge reserves a 2 MB-aligned region backed by huge pages.
func (p *Process) MmapHuge(size uint64, perm arch.Perm) (arch.Virt, error) {
	return p.mmap(size, perm, true)
}

func (p *Process) mmap(size uint64, perm arch.Perm, huge bool) (arch.Virt, error) {
	if p.dead {
		return 0, fmt.Errorf("hostos: mmap in dead process %q", p.name)
	}
	if size == 0 {
		return 0, errors.New("hostos: zero-length mmap")
	}
	align := uint64(arch.PageSize)
	if huge {
		align = arch.HugePageSize
	}
	size = arch.AlignUp(size, align)
	base := arch.Virt(arch.AlignUp(uint64(p.brk), align))
	p.vmas = append(p.vmas, vma{start: base, size: size, perm: perm, huge: huge})
	// Leave a one-page guard gap between areas.
	p.brk = base + arch.Virt(size) + arch.PageSize
	if p.OnMmap != nil {
		p.OnMmap(base, size, perm, huge)
	}
	return base, nil
}

// removeVMARange carves [start, end) out of the process's VMAs, splitting
// areas that straddle the boundary.
func (p *Process) removeVMARange(start, end arch.Virt) {
	var out []vma
	for _, a := range p.vmas {
		aEnd := a.start + arch.Virt(a.size)
		if aEnd <= start || a.start >= end {
			out = append(out, a)
			continue
		}
		if a.start < start {
			out = append(out, vma{start: a.start, size: uint64(start - a.start), perm: a.perm, huge: a.huge})
		}
		if aEnd > end {
			out = append(out, vma{start: end, size: uint64(aEnd - end), perm: a.perm, huge: a.huge})
		}
	}
	p.vmas = out
}

func (p *Process) vmaFor(v arch.Virt) *vma {
	for i := range p.vmas {
		if p.vmas[i].contains(v) {
			return &p.vmas[i]
		}
	}
	return nil
}

// Translate returns the physical translation of v, faulting pages in on
// demand. kind selects the required permission; a permission mismatch on a
// CoW page triggers the copy.
func (p *Process) Translate(v arch.Virt, kind arch.AccessKind) (arch.Phys, error) {
	info, err := p.page(v, kind)
	if err != nil {
		return 0, err
	}
	return info.ppn.Base() + arch.Phys(v.Offset()), nil
}

// mapping returns the state of vpn, or nil when vpn is not mapped.
func (p *Process) mapping(vpn arch.VPN) *pageInfo {
	if info := p.pages.Ptr(uint64(vpn)); info != nil && info.mapped {
		return info
	}
	return nil
}

// page returns (faulting in if needed) the pageInfo for v, handling CoW.
func (p *Process) page(v arch.Virt, kind arch.AccessKind) (*pageInfo, error) {
	vpn := v.PageOf()
	info := p.mapping(vpn)
	if info == nil {
		a := p.vmaFor(v)
		if a == nil {
			return nil, &Segfault{ASID: p.asid, Addr: v, Kind: kind}
		}
		var err error
		info, err = p.faultIn(vpn, a)
		if err != nil {
			return nil, err
		}
	}
	if kind == arch.Write && !info.perm.CanWrite() {
		if info.cow {
			if err := p.os.resolveCOW(p, vpn, info); err != nil {
				return nil, err
			}
		} else {
			return nil, &Segfault{ASID: p.asid, Addr: v, Kind: kind}
		}
	}
	if kind == arch.Read && !info.perm.CanRead() {
		return nil, &Segfault{ASID: p.asid, Addr: v, Kind: kind}
	}
	return info, nil
}

// faultIn services a demand-paging fault for vpn inside vma a.
func (p *Process) faultIn(vpn arch.VPN, a *vma) (*pageInfo, error) {
	p.MajorFaults++
	if p.OnFault != nil {
		p.OnFault(vpn)
	}
	if a.huge {
		return p.faultInHuge(vpn, a)
	}
	frame, err := p.os.frames.AllocFrame()
	if err != nil {
		return nil, err
	}
	p.os.store.ZeroPage(frame)
	if err := p.table.Map(vpn, frame, a.perm); err != nil {
		return nil, err
	}
	info := p.pages.At(uint64(vpn))
	*info = pageInfo{ppn: frame, perm: a.perm, mapped: true}
	return info, nil
}

func (p *Process) faultInHuge(vpn arch.VPN, a *vma) (*pageInfo, error) {
	headVPN := vpn - vpn%arch.PagesPerHugePage
	frame, err := p.os.frames.AllocContiguousAligned(arch.PagesPerHugePage, arch.PagesPerHugePage)
	if err != nil {
		return nil, err
	}
	for i := arch.PPN(0); i < arch.PagesPerHugePage; i++ {
		p.os.store.ZeroPage(frame + i)
	}
	if err := p.table.MapHuge(headVPN, frame, a.perm); err != nil {
		return nil, err
	}
	for i := arch.VPN(0); i < arch.PagesPerHugePage; i++ {
		*p.pages.At(uint64(headVPN + i)) = pageInfo{ppn: frame + arch.PPN(i), perm: a.perm, mapped: true, huge: true}
	}
	return p.mapping(vpn), nil
}

// Read copies memory out of the process address space, faulting pages in.
func (p *Process) Read(v arch.Virt, buf []byte) error {
	for {
		pa, n, err := p.chunk(v, len(buf), arch.Read)
		if err != nil || n == 0 {
			return err
		}
		p.os.store.ReadInto(pa, buf[:n])
		buf = buf[n:]
		v += arch.Virt(n)
	}
}

// Write copies data into the process address space, faulting pages in and
// resolving copy-on-write.
func (p *Process) Write(v arch.Virt, data []byte) error {
	for {
		pa, n, err := p.chunk(v, len(data), arch.Write)
		if err != nil || n == 0 {
			return err
		}
		p.os.store.Write(pa, data[:n])
		data = data[n:]
		v += arch.Virt(n)
	}
}

// chunk translates the next piece of an n-byte access at v: the physical
// address of v and how many of the n bytes lie on v's page. It returns 0
// bytes once n is 0.
func (p *Process) chunk(v arch.Virt, n int, kind arch.AccessKind) (arch.Phys, int, error) {
	if p.dead {
		return 0, 0, fmt.Errorf("hostos: access in dead process %q", p.name)
	}
	if n == 0 {
		return 0, 0, nil
	}
	pa, err := p.Translate(v, kind)
	if err != nil {
		return 0, 0, err
	}
	return pa, min(n, arch.PageSize-int(v.Offset())), nil
}

// ReadU32 reads a 32-bit word from process memory.
func (p *Process) ReadU32(v arch.Virt) (uint32, error) {
	var b [4]byte
	if err := p.Read(v, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes a 32-bit word to process memory.
func (p *Process) WriteU32(v arch.Virt, x uint32) error {
	b := [4]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)}
	return p.Write(v, b[:])
}

// Mapped reports whether vpn is currently mapped (already faulted in).
func (p *Process) Mapped(vpn arch.VPN) bool { return p.mapping(vpn) != nil }

// PermOf returns the current page permissions of vpn, if mapped.
func (p *Process) PermOf(vpn arch.VPN) (arch.Perm, bool) {
	info := p.mapping(vpn)
	if info == nil {
		return 0, false
	}
	return info.perm, true
}

// ForEachMapped calls fn for every currently-mapped page, in ascending VPN
// order.
func (p *Process) ForEachMapped(fn func(vpn arch.VPN, ppn arch.PPN, perm arch.Perm)) {
	p.pages.Range(func(vpn uint64, info *pageInfo) {
		if info.mapped {
			fn(arch.VPN(vpn), info.ppn, info.perm)
		}
	})
}

// PPNOf returns the physical page backing vpn, if mapped.
func (p *Process) PPNOf(vpn arch.VPN) (arch.PPN, bool) {
	info := p.mapping(vpn)
	if info == nil {
		return 0, false
	}
	return info.ppn, true
}

// FaultPage services the demand-paging fault for vpn exactly as a first
// touch would — same frame allocation, same page-table insertion — without
// requiring any particular access permission. A page already mapped is a
// no-op. Trace replay uses it to reproduce a recorded first-touch order.
func (p *Process) FaultPage(vpn arch.VPN) error {
	if p.dead {
		return fmt.Errorf("hostos: fault in dead process %q", p.name)
	}
	if p.mapping(vpn) != nil {
		return nil
	}
	a := p.vmaFor(vpn.Base())
	if a == nil {
		return &Segfault{ASID: p.asid, Addr: vpn.Base(), Kind: arch.Read}
	}
	_, err := p.faultIn(vpn, a)
	return err
}

// PageBytes returns a copy of the full backing frame of a mapped page,
// bypassing permission checks (the trace recorder snapshots write-protected
// pages too).
func (p *Process) PageBytes(vpn arch.VPN) ([]byte, error) {
	info := p.mapping(vpn)
	if info == nil {
		return nil, fmt.Errorf("hostos: page bytes of unmapped page %#x", vpn.Base())
	}
	return p.os.store.Read(info.ppn.Base(), arch.PageSize), nil
}

// SetPageBytes overwrites the backing frame of a mapped page with data
// (zero-padded to the page size), bypassing permission checks. Trace replay
// uses it to restore a recorded memory image onto freshly faulted frames.
func (p *Process) SetPageBytes(vpn arch.VPN, data []byte) error {
	info := p.mapping(vpn)
	if info == nil {
		return fmt.Errorf("hostos: set bytes of unmapped page %#x", vpn.Base())
	}
	if len(data) > arch.PageSize {
		return fmt.Errorf("hostos: page image of %d bytes exceeds the page size", len(data))
	}
	p.os.store.ZeroPage(info.ppn)
	p.os.store.Write(info.ppn.Base(), data)
	return nil
}
