// Package memory models host physical memory: a functional backing store
// holding real bytes, and a DRAM timing model with fixed access latency and
// a bandwidth-limited set of channels.
//
// Keeping real data in the store lets the rest of the system be functional
// as well as timed: workloads compute real results through the hierarchy,
// page tables and the Protection Table live at physical addresses inside
// the store, and security tests can observe actual corruption (or its
// absence) rather than inferring it.
package memory

import (
	"encoding/binary"
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/dense"
)

// Store is the functional backing store for physical memory. Pages are
// allocated lazily so a simulated 16 GB system does not cost 16 GB of host
// RAM.
type Store struct {
	size      uint64
	pages     dense.Table[*[arch.PageSize]byte] // by PPN; nil reads as zeros
	populated int
}

// NewStore returns a physical memory of the given byte size. Size must be a
// non-zero multiple of the page size.
func NewStore(size uint64) (*Store, error) {
	if size == 0 || size%arch.PageSize != 0 {
		return nil, fmt.Errorf("memory: size %d is not a positive multiple of %d", size, arch.PageSize)
	}
	return &Store{size: size}, nil
}

// Size returns the physical memory capacity in bytes.
func (s *Store) Size() uint64 { return s.size }

// Pages returns the number of physical pages.
func (s *Store) Pages() uint64 { return s.size / arch.PageSize }

// Contains reports whether [a, a+n) lies within physical memory.
func (s *Store) Contains(a arch.Phys, n uint64) bool {
	return uint64(a) < s.size && n <= s.size-uint64(a)
}

// page returns the materialized page n, or nil when it was never written.
func (s *Store) page(n arch.PPN) *[arch.PageSize]byte { return s.pages.Get(uint64(n)) }

// pageForWrite returns page n, materializing it on the first write.
func (s *Store) pageForWrite(n arch.PPN) *[arch.PageSize]byte {
	p := s.pages.At(uint64(n))
	if *p == nil {
		*p = new([arch.PageSize]byte)
		s.populated++
	}
	return *p
}

// Read copies n bytes at physical address a into a fresh slice. Reads
// outside physical memory are a simulator bug and panic.
func (s *Store) Read(a arch.Phys, n uint64) []byte {
	out := make([]byte, n)
	s.ReadInto(a, out)
	return out
}

// ReadInto fills buf from physical address a.
func (s *Store) ReadInto(a arch.Phys, buf []byte) {
	if !s.Contains(a, uint64(len(buf))) {
		panic(fmt.Sprintf("memory: read [%#x,+%d) outside %d-byte memory", a, len(buf), s.size))
	}
	for len(buf) > 0 {
		pg := s.page(a.PageOf())
		off := a.Offset()
		chunk := uint64(len(buf))
		if room := uint64(arch.PageSize) - off; chunk > room {
			chunk = room
		}
		if pg == nil {
			clear(buf[:chunk])
		} else {
			copy(buf[:chunk], pg[off:off+chunk])
		}
		buf = buf[chunk:]
		a += arch.Phys(chunk)
	}
}

// Write stores data at physical address a.
func (s *Store) Write(a arch.Phys, data []byte) {
	if !s.Contains(a, uint64(len(data))) {
		panic(fmt.Sprintf("memory: write [%#x,+%d) outside %d-byte memory", a, len(data), s.size))
	}
	for len(data) > 0 {
		pg := s.pageForWrite(a.PageOf())
		off := a.Offset()
		chunk := uint64(len(data))
		if room := uint64(arch.PageSize) - off; chunk > room {
			chunk = room
		}
		copy(pg[off:off+chunk], data[:chunk])
		data = data[chunk:]
		a += arch.Phys(chunk)
	}
}

// ReadU64 reads a little-endian 64-bit word at a.
func (s *Store) ReadU64(a arch.Phys) uint64 {
	var buf [8]byte
	s.ReadInto(a, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteU64 writes a little-endian 64-bit word at a.
func (s *Store) WriteU64(a arch.Phys, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.Write(a, buf[:])
}

// ReadU32 reads a little-endian 32-bit word at a. A word inside one page
// is read straight from the page.
func (s *Store) ReadU32(a arch.Phys) uint32 {
	if off := a.Offset(); off <= arch.PageSize-4 && s.Contains(a, 4) {
		if pg := s.page(a.PageOf()); pg != nil {
			return binary.LittleEndian.Uint32(pg[off:])
		}
		return 0
	}
	var buf [4]byte
	s.ReadInto(a, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// WriteU32 writes a little-endian 32-bit word at a. A word inside one page
// is written straight into the page.
func (s *Store) WriteU32(a arch.Phys, v uint32) {
	if off := a.Offset(); off <= arch.PageSize-4 && s.Contains(a, 4) {
		binary.LittleEndian.PutUint32(s.pageForWrite(a.PageOf())[off:], v)
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	s.Write(a, buf[:])
}

// ReadByteAt reads one byte at a.
func (s *Store) ReadByteAt(a arch.Phys) byte {
	var buf [1]byte
	s.ReadInto(a, buf[:])
	return buf[0]
}

// WriteByteAt writes one byte at a.
func (s *Store) WriteByteAt(a arch.Phys, v byte) {
	buf := [1]byte{v}
	s.Write(a, buf[:])
}

// ZeroPage clears an entire physical page. The OS uses this when handing
// out frames and when zeroing Protection Table regions.
func (s *Store) ZeroPage(n arch.PPN) {
	if !s.Contains(n.Base(), arch.PageSize) {
		panic(fmt.Sprintf("memory: zero of page %#x outside memory", n))
	}
	// Dropping the page is equivalent to zeroing it: absent pages read 0.
	if p := s.pages.Ptr(uint64(n)); p != nil && *p != nil {
		*p = nil
		s.populated--
	}
}

// ZeroRange clears [a, a+n).
func (s *Store) ZeroRange(a arch.Phys, n uint64) {
	if !s.Contains(a, n) {
		panic(fmt.Sprintf("memory: zero [%#x,+%d) outside memory", a, n))
	}
	for n > 0 {
		off := a.Offset()
		chunk := uint64(arch.PageSize) - off
		if chunk > n {
			chunk = n
		}
		if off == 0 && chunk == arch.PageSize {
			s.ZeroPage(a.PageOf())
		} else if pg := s.page(a.PageOf()); pg != nil {
			clear(pg[off : off+chunk])
		}
		a += arch.Phys(chunk)
		n -= chunk
	}
}

// PopulatedPages returns how many pages are materialized in the host, which
// tests use to check laziness.
func (s *Store) PopulatedPages() int { return s.populated }
