// Package dense provides Table, the sparse array the simulator keeps its
// page, frame and block state in: host-side bookkeeping indexed by a page,
// frame or block number.
//
// A lookup is a few indexed loads with no hashing, and a read of an
// untouched entry allocates nothing. Memory grows with the entries actually
// written, a leaf of about leafBytes at a time, never with the size of the
// simulated address space: a 16 GB physical memory has 4M frames and 128M
// blocks, and a table sized for all of them up front would cost tens of MB
// per simulated system.
package dense

import "unsafe"

const (
	// leafBytes is the target size of one leaf. A write to an untouched
	// region allocates one leaf plus at most one interior node per level.
	leafBytes = 4096
	// nodeBits is log2 of an interior node's fan-out: 64 children, 512 B.
	nodeBits = 6
	nodeSize = 1 << nodeBits
)

// Table is a sparse array of T indexed by uint64 keys, zero where nothing
// was written. It is a radix tree: leaves hold the values, and interior
// nodes route a key's higher bits, nodeBits per level. The tree is only as
// tall as the largest key written needs, and it grows upward when a larger
// key arrives.
//
// Leaves and interior nodes are allocated on the first write below them and
// are never freed or moved, so a pointer returned by At or Ptr stays valid
// for the table's life. Range visits entries in ascending key order.
//
// The zero Table is empty and ready to use. A Table is not safe for
// concurrent use.
type Table[T any] struct {
	root     *node[T]
	height   int  // interior levels above the leaves; 0 while root is nil
	leafBits uint // log2 of the entries per leaf, set on the first write
}

// node is an interior node (kids) or a leaf (vals).
type node[T any] struct {
	kids []*node[T]
	vals []T
}

// span returns the number of key bits the current tree covers.
func (t *Table[T]) span() uint { return t.leafBits + uint(t.height)*nodeBits }

// Ptr returns the entry at key, or nil when no write has reached key's leaf
// (the entry then reads as the zero T). It never allocates.
func (t *Table[T]) Ptr(key uint64) *T {
	n := t.root
	if n == nil || key>>t.span() != 0 {
		return nil
	}
	for shift := t.span() - nodeBits; ; shift -= nodeBits {
		n = n.kids[(key>>shift)&(nodeSize-1)]
		if n == nil {
			return nil
		}
		if shift == t.leafBits {
			return &n.vals[key&(1<<t.leafBits-1)]
		}
	}
}

// Get returns the value at key, the zero T if it was never written.
func (t *Table[T]) Get(key uint64) T {
	if p := t.Ptr(key); p != nil {
		return *p
	}
	var zero T
	return zero
}

// At returns the entry at key for reading or writing, allocating the leaf
// (and the interior nodes above it) on the first touch.
func (t *Table[T]) At(key uint64) *T {
	if t.root == nil {
		t.leafBits = leafBitsFor[T]()
		t.root = &node[T]{kids: make([]*node[T], nodeSize)}
		t.height = 1
	}
	for key>>t.span() != 0 {
		// Grow upward: the old tree becomes the new root's first child.
		up := &node[T]{kids: make([]*node[T], nodeSize)}
		up.kids[0] = t.root
		t.root = up
		t.height++
	}
	n := t.root
	for shift := t.span() - nodeBits; ; shift -= nodeBits {
		i := (key >> shift) & (nodeSize - 1)
		c := n.kids[i]
		if c == nil {
			if shift == t.leafBits {
				c = &node[T]{vals: make([]T, 1<<t.leafBits)}
			} else {
				c = &node[T]{kids: make([]*node[T], nodeSize)}
			}
			n.kids[i] = c
		}
		n = c
		if shift == t.leafBits {
			return &n.vals[key&(1<<t.leafBits-1)]
		}
	}
}

// Range calls fn for every entry of every allocated leaf, in ascending key
// order, including entries still at the zero value; callers skip those.
// fn may modify the entry. Entries written by fn in leaves not yet
// allocated when Range began may or may not be visited.
func (t *Table[T]) Range(fn func(key uint64, v *T)) {
	if t.root != nil {
		t.walk(t.root, 0, t.span()-nodeBits, fn)
	}
}

func (t *Table[T]) walk(n *node[T], base uint64, shift uint, fn func(uint64, *T)) {
	for i, c := range n.kids {
		if c == nil {
			continue
		}
		key := base | uint64(i)<<shift
		if shift > t.leafBits {
			t.walk(c, key, shift-nodeBits, fn)
			continue
		}
		for j := range c.vals {
			fn(key|uint64(j), &c.vals[j])
		}
	}
}

// leafBitsFor sizes a leaf of T to at most leafBytes: the largest power of
// two of entries that fits, and at least one entry.
func leafBitsFor[T any]() uint {
	var zero T
	size := unsafe.Sizeof(zero)
	if size == 0 {
		size = 1
	}
	bits := uint(0)
	for uintptr(2)<<bits*size <= leafBytes {
		bits++
	}
	return bits
}
