package hostos

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/dense"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/pagetable"
)

// Downgrade describes one page whose permissions were reduced (or removed).
// Downgrades trigger TLB shootdowns and, at the border, accelerator cache
// flushes (paper §3.2.4).
type Downgrade struct {
	ASID arch.ASID
	VPN  arch.VPN
	PPN  arch.PPN
	Old  arch.Perm
	New  arch.Perm
}

// ShootdownListener is notified of permission downgrades and unmaps. TLBs,
// accelerator complexes and Border Control register here.
type ShootdownListener interface {
	OnDowngrade(d Downgrade)
}

// Violation reports an accelerator request blocked at the border.
type Violation struct {
	Accelerator string
	// ASID is the process the blocked request was attributed to; 0 when the
	// border could not name one (a hardware-initiated crossing with several
	// processes co-scheduled).
	ASID arch.ASID
	Addr arch.Phys
	Kind arch.AccessKind
}

func (v Violation) String() string {
	if v.ASID != 0 {
		return fmt.Sprintf("border violation: accelerator %q asid %d %s %#x", v.Accelerator, v.ASID, v.Kind, v.Addr)
	}
	return fmt.Sprintf("border violation: accelerator %q %s %#x", v.Accelerator, v.Kind, v.Addr)
}

// CompletionListener is notified when an accelerator border reports a
// process's session complete (Figure 3e). The shadow-memory oracle
// registers here: completion zeroes the whole Protection Table, so every
// shadow grant ends with it.
type CompletionListener interface {
	OnProcessComplete(asid arch.ASID)
}

// OS is the trusted operating system model.
type OS struct {
	store  *memory.Store
	frames *FrameAllocator

	nextASID  arch.ASID
	processes map[arch.ASID]*Process

	listeners   []ShootdownListener
	completions []CompletionListener

	// pageEpochs partitions each physical page's lifetime at its downgrades:
	// epoch N is the window between the page's Nth and N+1th permission
	// losses. The safety oracle scopes "the most permissive window ever
	// granted" to the current epoch — a grant from before a revocation must
	// never justify a crossing after it. Indexed by PPN.
	pageEpochs dense.Table[uint64]
	// completionEpochs counts, per ASID, completed accelerator sessions.
	completionEpochs map[arch.ASID]uint64

	// Violations is the log of Border Control exceptions delivered to the
	// OS. The default policy records the violation and kills the offending
	// process; a custom handler can refine this.
	Violations []Violation
	// OnViolation, when set, is invoked for every reported violation after
	// it is logged.
	OnViolation func(Violation)
	// KeepProcessOnViolation disables the default policy of terminating
	// the offending process (used by experiments that probe the border
	// deliberately).
	KeepProcessOnViolation bool

	// Shootdowns counts downgrade events broadcast to listeners.
	Shootdowns uint64
}

// New returns an OS owning the given physical memory.
func New(store *memory.Store) *OS {
	return assembleOS(store, NewFrameAllocator(store), 1)
}

// NewPartition returns an OS confined to the physical frames [lo, hi) — a
// guest OS under a VMM (paper §3.4.2). Its page tables, process data, and
// everything else it allocates stay inside the partition, so the VMM's
// structures (including per-accelerator Protection Tables) are physically
// unreachable from the guest. ASIDs are offset by asidBase so guests
// sharing an ATS do not collide.
func NewPartition(store *memory.Store, lo, hi arch.PPN, asidBase arch.ASID) *OS {
	if asidBase == 0 {
		asidBase = 1
	}
	return assembleOS(store, NewFrameAllocatorRange(store, lo, hi), asidBase)
}

func assembleOS(store *memory.Store, frames *FrameAllocator, asidBase arch.ASID) *OS {
	return &OS{
		store:            store,
		frames:           frames,
		nextASID:         asidBase,
		processes:        make(map[arch.ASID]*Process),
		completionEpochs: make(map[arch.ASID]uint64),
	}
}

// Store returns physical memory.
func (o *OS) Store() *memory.Store { return o.store }

// Frames returns the physical frame allocator.
func (o *OS) Frames() *FrameAllocator { return o.frames }

// AddShootdownListener registers a component for downgrade notifications.
func (o *OS) AddShootdownListener(l ShootdownListener) {
	o.listeners = append(o.listeners, l)
}

// AddCompletionListener registers a component for session-completion
// notifications (delivered by NoteCompletion).
func (o *OS) AddCompletionListener(l CompletionListener) {
	o.completions = append(o.completions, l)
}

// NoteCompletion records that an accelerator border finished the Figure 3e
// completion protocol for asid, bumps its completion epoch, and notifies
// listeners. Border Control calls this after its flush — so anything
// observing the completion sees the post-flush, zeroed-table world.
func (o *OS) NoteCompletion(asid arch.ASID) {
	o.completionEpochs[asid]++
	for _, l := range o.completions {
		l.OnProcessComplete(asid)
	}
}

// PageEpoch returns how many permission downgrades have been broadcast for
// the physical page — the index of its current grant epoch.
func (o *OS) PageEpoch(ppn arch.PPN) uint64 { return o.pageEpochs.Get(uint64(ppn)) }

// CompletionEpoch returns how many accelerator sessions the ASID has
// completed.
func (o *OS) CompletionEpoch(asid arch.ASID) uint64 { return o.completionEpochs[asid] }

// NewProcess creates a process with an empty address space.
func (o *OS) NewProcess(name string) (*Process, error) {
	asid := o.nextASID
	o.nextASID++
	p := &Process{os: o, name: name, asid: asid, brk: mmapBase}
	table, err := pagetable.New(o.store, o.frames)
	if err != nil {
		return nil, err
	}
	p.table = table
	o.processes[asid] = p
	return p, nil
}

// Process returns the live process with the given ASID, if any.
func (o *OS) Process(asid arch.ASID) (*Process, bool) {
	p, ok := o.processes[asid]
	return p, ok
}

// ProcessList returns the live processes (order unspecified).
func (o *OS) ProcessList() []*Process {
	out := make([]*Process, 0, len(o.processes))
	for _, p := range o.processes {
		out = append(out, p)
	}
	return out
}

// TableFor returns the page table of the given address space. It satisfies
// the ATS's TableSource.
func (o *OS) TableFor(asid arch.ASID) (*pagetable.Table, bool) {
	p, ok := o.processes[asid]
	if !ok {
		return nil, false
	}
	return p.table, true
}

// FaultIn services a page fault raised through the ATS: it demand-pages the
// address (or resolves copy-on-write) in the owning process.
func (o *OS) FaultIn(asid arch.ASID, v arch.Virt, kind arch.AccessKind) error {
	p, ok := o.processes[asid]
	if !ok {
		return fmt.Errorf("hostos: fault for unknown asid %d", asid)
	}
	_, err := p.Translate(v, kind)
	return err
}

// Exit terminates a process: broadcasts downgrades revoking every mapped
// page (so borders revoke permissions and flush), then releases its frames
// and page table.
func (o *OS) Exit(p *Process) {
	if p.dead {
		return
	}
	// Pages go in ascending VPN order: exit broadcasts reach shootdown
	// listeners (border flushes) and the freed frames re-enter the
	// allocator's free list, so the order keeps multi-process churn runs
	// bit-exact. A huge page's base frames are freed one by one.
	p.ForEachMapped(func(vpn arch.VPN, ppn arch.PPN, perm arch.Perm) {
		o.broadcast(Downgrade{ASID: p.asid, VPN: vpn, PPN: ppn, Old: perm, New: arch.PermNone})
	})
	p.pages.Range(func(_ uint64, info *pageInfo) {
		if !info.mapped {
			return
		}
		if info.refs != nil {
			*info.refs--
			if *info.refs > 0 {
				return
			}
		}
		o.frames.FreeFrame(info.ppn)
	})
	p.pages = dense.Table[pageInfo]{}
	p.table.Release()
	p.dead = true
	delete(o.processes, p.asid)
}

// Protect changes the permissions of [addr, addr+size) in p to perm,
// mprotect-style. Pages not yet faulted in only have their VMA updated.
// Every strict downgrade is broadcast to shootdown listeners. It returns
// the downgrades performed.
func (o *OS) Protect(p *Process, addr arch.Virt, size uint64, perm arch.Perm) ([]Downgrade, error) {
	if p.dead {
		return nil, fmt.Errorf("hostos: protect in dead process %q", p.name)
	}
	if size == 0 {
		return nil, nil
	}
	first := addr.PageOf()
	last := (addr + arch.Virt(size) - 1).PageOf()
	// Update VMA records so future faults use the new permission.
	for i := range p.vmas {
		a := &p.vmas[i]
		if a.contains(addr) && a.contains(addr+arch.Virt(size)-1) {
			if a.start == addr && a.size == uint64(size) {
				a.perm = perm
			}
			// Partial-VMA protects keep the VMA perm; mapped pages below
			// carry their own permission, and unmapped ones fault with the
			// VMA permission. This models split VMAs without the
			// bookkeeping.
		}
	}
	var downs []Downgrade
	for vpn := first; vpn <= last; vpn++ {
		info := p.mapping(vpn)
		if info == nil {
			continue
		}
		old := info.perm
		if old == perm {
			continue
		}
		if _, err := p.table.Protect(vpn.Base(), perm); err != nil {
			return downs, err
		}
		info.perm = perm
		if losesPerm(old, perm) {
			d := Downgrade{ASID: p.asid, VPN: vpn, PPN: info.ppn, Old: old, New: perm}
			downs = append(downs, d)
			o.broadcast(d)
		}
	}
	return downs, nil
}

// Unmap removes [addr, addr+size) from the address space — both the mapped
// pages (broadcasting downgrades and freeing frames) and the covering VMA
// range, so later touches fault for real instead of being demand-paged
// back in.
func (o *OS) Unmap(p *Process, addr arch.Virt, size uint64) error {
	if size == 0 {
		return nil
	}
	first := addr.PageOf()
	last := (addr + arch.Virt(size) - 1).PageOf()
	p.removeVMARange(first.Base(), last.Base()+arch.PageSize)
	for vpn := first; vpn <= last; vpn++ {
		info := p.mapping(vpn)
		if info == nil {
			continue
		}
		if info.huge {
			return fmt.Errorf("hostos: partial unmap of huge page at %#x", vpn.Base())
		}
		o.broadcast(Downgrade{ASID: p.asid, VPN: vpn, PPN: info.ppn, Old: info.perm, New: arch.PermNone})
		if _, err := p.table.Unmap(vpn.Base()); err != nil {
			return err
		}
		if info.refs != nil {
			*info.refs--
			if *info.refs == 0 {
				o.frames.FreeFrame(info.ppn)
			}
		} else {
			o.frames.FreeFrame(info.ppn)
		}
		*info = pageInfo{}
	}
	return nil
}

// Remap moves the backing frame of vpn to a fresh frame (as swapping or
// memory compaction would), copying contents, and broadcasts the downgrade
// of the old mapping. Returns the new frame. A copy-on-write page still
// shared with another process cannot move: the model has no reverse map to
// repoint the other mappings, and freeing the frame under them would hand
// it out again while they still map it.
func (o *OS) Remap(p *Process, vpn arch.VPN) (arch.PPN, error) {
	info := p.mapping(vpn)
	if info == nil {
		return 0, fmt.Errorf("hostos: remap of unmapped page %#x", vpn.Base())
	}
	if info.huge {
		return 0, fmt.Errorf("hostos: remap of huge page %#x", vpn.Base())
	}
	if info.refs != nil && *info.refs > 1 {
		return 0, fmt.Errorf("hostos: remap of shared copy-on-write page %#x", vpn.Base())
	}
	fresh, err := o.frames.AllocFrame()
	if err != nil {
		return 0, err
	}
	o.store.Write(fresh.Base(), o.store.Read(info.ppn.Base(), arch.PageSize))
	o.broadcast(Downgrade{ASID: p.asid, VPN: vpn, PPN: info.ppn, Old: info.perm, New: arch.PermNone})
	if _, err := p.table.Unmap(vpn.Base()); err != nil {
		return 0, err
	}
	if err := p.table.Map(vpn, fresh, info.perm); err != nil {
		return 0, err
	}
	o.frames.FreeFrame(info.ppn)
	info.ppn = fresh
	return fresh, nil
}

// ShareCOW maps the pages backing [addr, addr+size) of src into dst at the
// same virtual addresses as copy-on-write: both mappings become read-only
// and share frames until either side writes.
func (o *OS) ShareCOW(src, dst *Process, addr arch.Virt, size uint64) error {
	first := addr.PageOf()
	last := (addr + arch.Virt(size) - 1).PageOf()
	// Ensure a VMA exists in dst covering the range.
	dst.vmas = append(dst.vmas, vma{start: first.Base(), size: uint64(last-first+1) * arch.PageSize, perm: arch.PermRW})
	if dst.brk <= last.Base()+arch.PageSize {
		dst.brk = last.Base() + 2*arch.PageSize
	}
	for vpn := first; vpn <= last; vpn++ {
		sinfo := src.mapping(vpn)
		if sinfo == nil {
			// Fault it in so there is something to share.
			var err error
			a := src.vmaFor(vpn.Base())
			if a == nil {
				return &Segfault{ASID: src.asid, Addr: vpn.Base(), Kind: arch.Read}
			}
			sinfo, err = src.faultIn(vpn, a)
			if err != nil {
				return err
			}
		}
		if sinfo.refs == nil {
			refs := 1
			sinfo.refs = &refs
		}
		// Downgrade source to read-only (a CoW downgrade; the paper notes
		// these never require accelerator cache flushes because the page
		// becomes read-only on the CPU side first... in fact the flush rule
		// is driven by the old permission, handled by listeners).
		ro := sinfo.perm &^ arch.PermWrite
		if sinfo.perm != ro {
			if _, err := src.table.Protect(vpn.Base(), ro); err != nil {
				return err
			}
			o.broadcast(Downgrade{ASID: src.asid, VPN: vpn, PPN: sinfo.ppn, Old: sinfo.perm, New: ro})
			sinfo.perm = ro
		}
		sinfo.cow = true
		*sinfo.refs++
		if err := dst.table.Map(vpn, sinfo.ppn, ro); err != nil {
			return err
		}
		*dst.pages.At(uint64(vpn)) = pageInfo{ppn: sinfo.ppn, perm: ro, mapped: true, cow: true, refs: sinfo.refs}
	}
	return nil
}

// resolveCOW gives p a private writable copy of vpn.
func (o *OS) resolveCOW(p *Process, vpn arch.VPN, info *pageInfo) error {
	if info.refs != nil && *info.refs > 1 {
		fresh, err := o.frames.AllocFrame()
		if err != nil {
			return err
		}
		o.store.Write(fresh.Base(), o.store.Read(info.ppn.Base(), arch.PageSize))
		*info.refs--
		if _, err := p.table.Unmap(vpn.Base()); err != nil {
			return err
		}
		info.ppn = fresh
		info.refs = nil
	}
	info.cow = false
	info.perm |= arch.PermWrite | arch.PermRead
	// Rewrite or re-map the leaf with the writable permission.
	if _, err := p.table.Protect(vpn.Base(), info.perm); err != nil {
		if err2 := p.table.Map(vpn, info.ppn, info.perm); err2 != nil {
			return err
		}
	}
	return nil
}

// ReportViolation is called by Border Control when it blocks a request. The
// OS logs it, invokes the policy hook, and (default policy) kills the
// process the accelerator was running, if identifiable.
func (o *OS) ReportViolation(v Violation, culprit arch.ASID) {
	o.Violations = append(o.Violations, v)
	if o.OnViolation != nil {
		o.OnViolation(v)
	}
	if o.KeepProcessOnViolation {
		return
	}
	if p, ok := o.processes[culprit]; ok {
		o.Exit(p)
	}
}

func (o *OS) broadcast(d Downgrade) {
	o.Shootdowns++
	*o.pageEpochs.At(uint64(d.PPN))++
	for _, l := range o.listeners {
		l.OnDowngrade(d)
	}
}

// losesPerm reports whether going old->new removes any permission bit.
func losesPerm(old, new arch.Perm) bool { return old&^new != 0 }
