// Package hostos models the trusted operating system: physical frame
// allocation, processes and their address spaces, demand paging,
// copy-on-write, mprotect-style permission changes with TLB shootdowns, and
// the policy response to Border Control violations.
//
// The OS is trusted (paper §2.1): it owns the page tables, configures the
// ATS and Border Control, and is the only agent allowed to change
// permissions.
package hostos

import (
	"errors"
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/dense"
	"bordercontrol/internal/memory"
)

// ErrOutOfMemory is returned when no physical frames remain.
var ErrOutOfMemory = errors.New("hostos: out of physical memory")

// FrameAllocator manages physical frames. Single frames come from a free
// list; contiguous regions (Protection Tables, page-table pools) come from a
// bump pointer. Frame 0 is never handed out so that a zero PPN can mean
// "none".
type FrameAllocator struct {
	store     *memory.Store
	bump      arch.PPN // next never-allocated frame
	limit     arch.PPN // one past the last frame
	freeList  []arch.PPN
	allocated dense.Table[bool] // by PPN
	inUse     int
}

// NewFrameAllocator returns an allocator over the whole store.
func NewFrameAllocator(store *memory.Store) *FrameAllocator {
	return NewFrameAllocatorRange(store, 1, arch.PPN(store.Pages()))
}

// NewFrameAllocatorRange returns an allocator restricted to frames
// [lo, hi). Virtualized guests get partitioned ranges; frame 0 is never
// usable regardless.
func NewFrameAllocatorRange(store *memory.Store, lo, hi arch.PPN) *FrameAllocator {
	if lo == 0 {
		lo = 1
	}
	if hi > arch.PPN(store.Pages()) {
		hi = arch.PPN(store.Pages())
	}
	return &FrameAllocator{store: store, bump: lo, limit: hi}
}

// Limit returns one past the last frame the allocator may hand out. Use
// Owns for membership checks.
func (f *FrameAllocator) Limit() arch.PPN { return f.limit }

// Owns reports whether the allocator handed out frame p (it is currently
// allocated from this partition).
func (f *FrameAllocator) Owns(p arch.PPN) bool { return f.allocated.Get(uint64(p)) }

// take marks frame p allocated.
func (f *FrameAllocator) take(p arch.PPN) {
	*f.allocated.At(uint64(p)) = true
	f.inUse++
}

// AllocFrame returns a free physical frame.
func (f *FrameAllocator) AllocFrame() (arch.PPN, error) {
	if n := len(f.freeList); n > 0 {
		p := f.freeList[n-1]
		f.freeList = f.freeList[:n-1]
		f.take(p)
		return p, nil
	}
	if f.bump >= f.limit {
		return 0, ErrOutOfMemory
	}
	p := f.bump
	f.bump++
	f.take(p)
	return p, nil
}

// AllocContiguous returns the first frame of n physically contiguous frames.
func (f *FrameAllocator) AllocContiguous(n uint64) (arch.PPN, error) {
	return f.AllocContiguousAligned(n, 1)
}

// AllocContiguousAligned returns n contiguous frames whose first frame
// number is a multiple of align (a power of two). Huge-page backing
// requires 512-frame alignment.
func (f *FrameAllocator) AllocContiguousAligned(n, align uint64) (arch.PPN, error) {
	if n == 0 {
		return 0, errors.New("hostos: contiguous allocation of zero frames")
	}
	if align == 0 {
		align = 1
	}
	start := arch.PPN(arch.AlignUp(uint64(f.bump), align))
	if start >= f.limit || uint64(f.limit-start) < n {
		return 0, ErrOutOfMemory
	}
	// Frames skipped by alignment go to the free list rather than leaking.
	for p := f.bump; p < start; p++ {
		f.take(p)
		f.FreeFrame(p)
	}
	f.bump = start + arch.PPN(n)
	for p := start; p < start+arch.PPN(n); p++ {
		f.take(p)
	}
	return start, nil
}

// FreeFrame returns a frame to the free list. Double frees panic: they are
// OS bugs, and the OS is trusted.
func (f *FrameAllocator) FreeFrame(p arch.PPN) {
	a := f.allocated.Ptr(uint64(p))
	if a == nil || !*a {
		panic(fmt.Sprintf("hostos: double free of frame %#x", p))
	}
	*a = false
	f.inUse--
	f.freeList = append(f.freeList, p)
}

// FreeContiguous returns a contiguous region to the allocator.
func (f *FrameAllocator) FreeContiguous(start arch.PPN, n uint64) {
	for p := start; p < start+arch.PPN(n); p++ {
		f.FreeFrame(p)
	}
}

// InUse returns how many frames are currently allocated.
func (f *FrameAllocator) InUse() int { return f.inUse }

// FreeFrames returns how many frames remain allocatable.
func (f *FrameAllocator) FreeFrames() uint64 {
	return uint64(f.limit-f.bump) + uint64(len(f.freeList))
}
