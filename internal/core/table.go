// Package core implements Border Control, the paper's contribution: a
// per-accelerator Protection Table in host physical memory, a small Border
// Control Cache (BCC) over it, and the event protocol of paper Figure 3
// that keeps them consistent with the OS page tables.
//
// The security property: no read (write) request from the accelerator for a
// physical page whose Protection Table entry lacks read (write) permission
// ever reaches host memory. The table is populated lazily from ATS
// translations and fails closed — a physical address the ATS never produced
// has no permissions.
package core

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
)

// bitsPerPage is the Protection Table cost per physical page: one read bit
// and one write bit (paper §3.1.1).
const bitsPerPage = 2

// pagesPerByte is how many pages one table byte covers.
const pagesPerByte = 8 / bitsPerPage // 4

// PagesPerBlock is how many pages one 128-byte memory block of the table
// covers: 512, which is why a 512-pages/entry BCC line maps exactly to one
// table block (paper §3.1.2).
const PagesPerBlock = arch.BlockSize * pagesPerByte

// TableBytes returns the Protection Table size for a physical memory of the
// given page count. For 16 GB of physical memory this is 1 MB — the 0.006%
// overhead headline.
func TableBytes(physPages uint64) uint64 {
	return (physPages + pagesPerByte - 1) / pagesPerByte
}

// ProtectionTable is the flat, physically-indexed permission table of one
// accelerator. It lives inside simulated physical memory at [base,
// base+TableBytes): the base and bounds registers of paper Figure 2.
type ProtectionTable struct {
	store *memory.Store
	base  arch.Phys
	// boundPages is the bounds register: the number of physical pages the
	// table covers. Requests at or beyond it are violations by definition.
	boundPages uint64
}

// NewProtectionTable returns a table at the given physical base covering
// physPages pages. The region must lie within physical memory; the OS
// allocates and zeroes it at process initialization (Figure 3a).
func NewProtectionTable(store *memory.Store, base arch.Phys, physPages uint64) (*ProtectionTable, error) {
	size := TableBytes(physPages)
	if uint64(base)%arch.PageSize != 0 {
		return nil, fmt.Errorf("core: protection table base %#x not page aligned", base)
	}
	if !store.Contains(base, size) {
		return nil, fmt.Errorf("core: protection table [%#x,+%d) outside physical memory", base, size)
	}
	return &ProtectionTable{store: store, base: base, boundPages: physPages}, nil
}

// Base returns the table's base register value.
func (t *ProtectionTable) Base() arch.Phys { return t.base }

// BoundPages returns the bounds register value in pages.
func (t *ProtectionTable) BoundPages() uint64 { return t.boundPages }

// SizeBytes returns the table's size in bytes.
func (t *ProtectionTable) SizeBytes() uint64 { return TableBytes(t.boundPages) }

// InBounds reports whether ppn is covered by the bounds register.
func (t *ProtectionTable) InBounds(ppn arch.PPN) bool { return uint64(ppn) < t.boundPages }

// EntryAddr returns the physical address of the byte holding ppn's bits.
func (t *ProtectionTable) EntryAddr(ppn arch.PPN) arch.Phys {
	return t.base + arch.Phys(uint64(ppn)/pagesPerByte)
}

// BlockAddr returns the address of the 128-byte table block holding ppn's
// bits — the unit the BCC fetches.
func (t *ProtectionTable) BlockAddr(ppn arch.PPN) arch.Phys {
	return t.EntryAddr(ppn).BlockOf()
}

func shiftFor(ppn arch.PPN) uint {
	return uint(uint64(ppn)%pagesPerByte) * bitsPerPage
}

// Lookup returns the stored permissions for ppn. Out-of-bounds pages have
// no permissions.
func (t *ProtectionTable) Lookup(ppn arch.PPN) arch.Perm {
	if !t.InBounds(ppn) {
		return arch.PermNone
	}
	b := t.store.ReadByteAt(t.EntryAddr(ppn))
	return arch.Perm(b>>shiftFor(ppn)) & arch.PermRW
}

// LookupRange fills perms with the stored permissions of the len(perms)
// pages from base, as Lookup would page by page; the BCC fill path. A
// range inside the bounds register whose bits fit one table block is read
// from memory at once; a range that crosses the bounds register is looked
// up page by page.
func (t *ProtectionTable) LookupRange(base arch.PPN, perms []arch.Perm) {
	n := uint64(len(perms))
	first := uint64(base) / pagesPerByte
	last := (uint64(base) + n - 1) / pagesPerByte
	if uint64(base)+n > t.boundPages || last-first >= arch.BlockSize {
		for i := range perms {
			perms[i] = t.Lookup(base + arch.PPN(i))
		}
		return
	}
	var buf [arch.BlockSize]byte
	raw := buf[:last-first+1]
	t.store.ReadInto(t.base+arch.Phys(first), raw)
	for i := range perms {
		p := base + arch.PPN(i)
		perms[i] = arch.Perm(raw[uint64(p)/pagesPerByte-first]>>shiftFor(p)) & arch.PermRW
	}
}

// Set overwrites the permissions for ppn.
func (t *ProtectionTable) Set(ppn arch.PPN, p arch.Perm) {
	if !t.InBounds(ppn) {
		panic(fmt.Sprintf("core: protection table set out of bounds ppn=%#x", ppn))
	}
	a := t.EntryAddr(ppn)
	b := t.store.ReadByteAt(a)
	sh := shiftFor(ppn)
	b = b&^(byte(arch.PermRW)<<sh) | byte(p.Border())<<sh
	t.store.WriteByteAt(a, b)
}

// Merge ors p into the permissions for ppn and reports whether the stored
// bits changed. Translations only ever widen the stored permissions
// (downgrades go through Set after the flush protocol).
func (t *ProtectionTable) Merge(ppn arch.PPN, p arch.Perm) bool {
	if !t.InBounds(ppn) {
		panic(fmt.Sprintf("core: protection table merge out of bounds ppn=%#x", ppn))
	}
	a := t.EntryAddr(ppn)
	b := t.store.ReadByteAt(a)
	sh := shiftFor(ppn)
	nb := b | byte(p.Border())<<sh
	if nb == b {
		return false
	}
	t.store.WriteByteAt(a, nb)
	return true
}

// Zero clears the whole table: every page loses all permissions. Used at
// process initialization, full-flush downgrades, and process completion.
func (t *ProtectionTable) Zero() {
	t.store.ZeroRange(t.base, t.SizeBytes())
}
