// Package cache models set-associative hardware caches with LRU
// replacement. Lines carry real data, so dirty state is observable: a dirty
// block that is never written back leaves main memory stale, which is
// exactly the effect Border Control exploits when it blocks an illegal
// writeback at the border (paper §3.2.4).
//
// Two write policies are provided: write-back with write-allocate (the
// accelerator L2 and CPU caches) and write-through without allocate (the
// simple GPU L1 protocol described in paper §5.1).
package cache

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
)

// WritePolicy selects how stores interact with the cache.
type WritePolicy uint8

const (
	// WriteBack marks lines dirty and defers memory updates to eviction or
	// flush.
	WriteBack WritePolicy = iota
	// WriteThrough propagates every store below immediately and never holds
	// dirty data.
	WriteThrough
)

func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// Config describes a cache's geometry and timing.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	Policy     WritePolicy
	HitLatency sim.Time
}

// line is one way's metadata. Its block lives in a data slot (see
// Cache.chunks), assigned at the line's first fill and kept across
// evictions; slot 0 means the line was never filled, slot s holds data
// slot s-1.
type line struct {
	tag   uint64
	lru   uint64
	slot  uint32
	valid bool
	dirty bool
}

// chunkBlocks is how many data slots one chunk of line data holds (4 KB).
const chunkBlocks = 32

// blocksPerPage is how many cache blocks one page spans.
const blocksPerPage = arch.PageSize / arch.BlockSize

// DirtyBlock is a block leaving the cache that must be written back.
type DirtyBlock struct {
	Addr arch.Phys
	Data [arch.BlockSize]byte
}

// Cache is a set-associative cache over 128-byte blocks. Line metadata is
// one flat array, set after set, so a set scan walks contiguous tags. Line
// data is allocated in chunks as lines are first filled, so a cache costs
// what its run touches rather than its full geometry; chunks never move.
type Cache struct {
	cfg    Config
	nsets  uint64
	mask   uint64 // nsets-1 when nsets is a power of two
	pow2   bool
	lines  []line
	chunks [][][arch.BlockSize]byte
	slots  uint32 // data slots handed out
	valid  int    // valid lines
	tick   uint64

	HitMiss    stats.HitMiss
	Writebacks stats.Counter
	Fills      stats.Counter
}

// New validates the configuration and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%arch.BlockSize != 0 {
		return nil, fmt.Errorf("cache %q: size %d not a positive multiple of block size", cfg.Name, cfg.SizeBytes)
	}
	blocks := cfg.SizeBytes / arch.BlockSize
	if cfg.Ways <= 0 || blocks%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache %q: %d blocks not divisible into %d ways", cfg.Name, blocks, cfg.Ways)
	}
	nsets := uint64(blocks / cfg.Ways)
	return &Cache{
		cfg:    cfg,
		nsets:  nsets,
		mask:   nsets - 1,
		pow2:   nsets&(nsets-1) == 0,
		lines:  make([]line, blocks),
		chunks: make([][][arch.BlockSize]byte, 0, (blocks+chunkBlocks-1)/chunkBlocks),
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() sim.Time { return c.cfg.HitLatency }

// setOf returns the index of the set holding block tag t: a mask for
// power-of-two set counts, a modulo otherwise.
func (c *Cache) setOf(t uint64) uint64 {
	if c.pow2 {
		return t & c.mask
	}
	return t % c.nsets
}

func (c *Cache) set(a arch.Phys) []line {
	w := c.cfg.Ways
	base := int(c.setOf(tagOf(a))) * w
	return c.lines[base : base+w : base+w]
}

func tagOf(a arch.Phys) uint64 { return uint64(a) >> arch.BlockShift }

func (c *Cache) find(a arch.Phys) *line {
	set := c.set(a)
	t := tagOf(a)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			return &set[i]
		}
	}
	return nil
}

// data returns l's block; l must have been filled once.
func (c *Cache) data(l *line) *[arch.BlockSize]byte {
	s := l.slot - 1
	return &c.chunks[s/chunkBlocks][s%chunkBlocks]
}

// newSlot hands out the next data slot, allocating a chunk when the last
// one is full. A cache never hands out more slots than it has lines.
func (c *Cache) newSlot() uint32 {
	if c.slots%chunkBlocks == 0 {
		n := min(chunkBlocks, len(c.lines)-int(c.slots))
		c.chunks = append(c.chunks, make([][arch.BlockSize]byte, n))
	}
	c.slots++
	return c.slots
}

// Contains reports whether the block holding a is cached, without touching
// LRU state or statistics (for tests and invariant checks).
func (c *Cache) Contains(a arch.Phys) bool { return c.find(a.BlockOf()) != nil }

// IsDirty reports whether the block holding a is cached dirty.
func (c *Cache) IsDirty(a arch.Phys) bool {
	l := c.find(a.BlockOf())
	return l != nil && l.dirty
}

// Lookup probes for the block containing a, recording hit/miss statistics
// and updating LRU on hit.
func (c *Cache) Lookup(a arch.Phys) bool {
	l := c.find(a.BlockOf())
	if l == nil {
		c.HitMiss.Record(false)
		return false
	}
	c.tick++
	l.lru = c.tick
	c.HitMiss.Record(true)
	return true
}

// Fill installs the block containing a with the given data and returns the
// evicted dirty victim, if the replaced line must be written back. A block
// already present, wherever in the set, is refilled in place, so a set
// never holds two lines for one block. The victim is the set's first
// invalid way, else its first way with the least recent use.
func (c *Cache) Fill(a arch.Phys, data []byte) (DirtyBlock, bool) {
	a = a.BlockOf()
	if len(data) != arch.BlockSize {
		panic(fmt.Sprintf("cache %q: fill with %d bytes", c.cfg.Name, len(data)))
	}
	c.Fills.Inc()
	set := c.set(a)
	t := tagOf(a)
	c.tick++
	victim, free := 0, -1
	for i := range set {
		switch {
		case !set[i].valid:
			if free < 0 {
				free = i
			}
		case set[i].tag == t:
			// Refill of a present block (e.g. upgrade); keep dirty state.
			copy(c.data(&set[i])[:], data)
			set[i].lru = c.tick
			return DirtyBlock{}, false
		case set[i].lru < set[victim].lru:
			victim = i
		}
	}
	if free >= 0 {
		victim = free
	}
	v := &set[victim]
	var wb DirtyBlock
	evictedDirty := v.valid && v.dirty
	if evictedDirty {
		wb = DirtyBlock{Addr: arch.Phys(v.tag) << arch.BlockShift, Data: *c.data(v)}
		c.Writebacks.Inc()
	}
	if !v.valid {
		c.valid++
	}
	if v.slot == 0 {
		v.slot = c.newSlot()
	}
	v.valid = true
	v.dirty = false
	v.tag = t
	v.lru = c.tick
	copy(c.data(v)[:], data)
	return wb, evictedDirty
}

// Read copies data out of a cached block. The block must be present; check
// with Lookup first. The range must not cross a block boundary.
func (c *Cache) Read(a arch.Phys, buf []byte) {
	l := c.mustFind(a, uint64(len(buf)))
	off := uint64(a) & arch.BlockMask
	copy(buf, c.data(l)[off:off+uint64(len(buf))])
}

// Write stores data into a cached block. Under write-back the line becomes
// dirty; under write-through the caller must also propagate the store below
// (the cache stays clean). The block must be present.
func (c *Cache) Write(a arch.Phys, data []byte) {
	l := c.mustFind(a, uint64(len(data)))
	off := uint64(a) & arch.BlockMask
	copy(c.data(l)[off:off+uint64(len(data))], data)
	if c.cfg.Policy == WriteBack {
		l.dirty = true
	}
}

func (c *Cache) mustFind(a arch.Phys, n uint64) *line {
	if (uint64(a)&arch.BlockMask)+n > arch.BlockSize {
		panic(fmt.Sprintf("cache %q: access [%#x,+%d) crosses block boundary", c.cfg.Name, a, n))
	}
	l := c.find(a.BlockOf())
	if l == nil {
		panic(fmt.Sprintf("cache %q: access to absent block %#x", c.cfg.Name, a))
	}
	return l
}

// invalidate drops l, which must be valid, and appends it to dst when it is
// dirty.
func (c *Cache) invalidate(dst []DirtyBlock, l *line) []DirtyBlock {
	if l.dirty {
		dst = append(dst, DirtyBlock{Addr: arch.Phys(l.tag) << arch.BlockShift, Data: *c.data(l)})
		c.Writebacks.Inc()
	}
	l.valid = false
	l.dirty = false
	c.valid--
	return dst
}

// FlushAll invalidates every line and appends the dirty blocks that need
// writing back to dst, in set order, and returns the extended slice.
func (c *Cache) FlushAll(dst []DirtyBlock) []DirtyBlock {
	for i := 0; c.valid > 0; i++ {
		if l := &c.lines[i]; l.valid {
			dst = c.invalidate(dst, l)
		}
	}
	return dst
}

// FlushPage invalidates every line belonging to the given physical page and
// appends its dirty blocks to dst, in set order, returning the extended
// slice. This is the paper's selective-flush optimization for permission
// downgrades. With a power-of-two set count of at least a page's blocks,
// the page's blocks map to consecutive sets, and only those are scanned.
func (c *Cache) FlushPage(dst []DirtyBlock, p arch.PPN) []DirtyBlock {
	if c.valid == 0 {
		return dst
	}
	lines := c.lines
	if c.pow2 && c.nsets >= blocksPerPage {
		base := int(c.setOf(tagOf(p.Base()))) * c.cfg.Ways
		lines = c.lines[base : base+blocksPerPage*c.cfg.Ways]
	}
	for i := range lines {
		l := &lines[i]
		if l.valid && (arch.Phys(l.tag)<<arch.BlockShift).PageOf() == p {
			dst = c.invalidate(dst, l)
		}
	}
	return dst
}

// Drop invalidates the block containing a WITHOUT writing it back, losing
// dirty data. Used to model a misbehaving accelerator that ignores a flush
// request, and by the OS when discarding blocked state.
func (c *Cache) Drop(a arch.Phys) bool {
	l := c.find(a.BlockOf())
	if l == nil {
		return false
	}
	l.valid = false
	l.dirty = false
	c.valid--
	return true
}

// Extract invalidates the block containing a and returns its data and
// dirty state: the coherence-recall primitive.
func (c *Cache) Extract(a arch.Phys) (data [arch.BlockSize]byte, dirty, present bool) {
	l := c.find(a.BlockOf())
	if l == nil {
		return data, false, false
	}
	data = *c.data(l)
	dirty = l.dirty
	l.valid = false
	l.dirty = false
	c.valid--
	return data, dirty, true
}

// DirtyBlocks returns how many lines are currently dirty (for tests).
func (c *Cache) DirtyBlocks() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// ValidBlocks returns how many lines are currently valid (for tests).
func (c *Cache) ValidBlocks() int { return c.valid }

// RegisterMetrics publishes the cache's counters under s ("hits",
// "misses", "miss_ratio", "writebacks", "fills" within the given scope).
func (c *Cache) RegisterMetrics(s stats.Scope) {
	s.HitMiss("", &c.HitMiss)
	s.Counter("writebacks", &c.Writebacks)
	s.Counter("fills", &c.Fills)
}
