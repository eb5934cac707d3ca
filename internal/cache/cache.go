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

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
	data  [arch.BlockSize]byte
}

// DirtyBlock is a block leaving the cache that must be written back.
type DirtyBlock struct {
	Addr arch.Phys
	Data [arch.BlockSize]byte
}

// Cache is a set-associative cache over 128-byte blocks.
type Cache struct {
	cfg  Config
	sets [][]line
	tick uint64

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
	nsets := blocks / cfg.Ways
	c := &Cache{cfg: cfg, sets: make([][]line, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() sim.Time { return c.cfg.HitLatency }

func (c *Cache) set(a arch.Phys) []line { return c.sets[c.setIndex(a)] }

func (c *Cache) setIndex(a arch.Phys) uint64 {
	return (uint64(a) >> arch.BlockShift) % uint64(len(c.sets))
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
// never holds two lines for one block.
func (c *Cache) Fill(a arch.Phys, data []byte) (DirtyBlock, bool) {
	a = a.BlockOf()
	if len(data) != arch.BlockSize {
		panic(fmt.Sprintf("cache %q: fill with %d bytes", c.cfg.Name, len(data)))
	}
	c.Fills.Inc()
	set := c.set(a)
	c.tick++
	victim, free := 0, -1
	for i := range set {
		switch {
		case !set[i].valid:
			if free < 0 {
				free = i
			}
		case set[i].tag == tagOf(a):
			// Refill of a present block (e.g. upgrade); keep dirty state.
			copy(set[i].data[:], data)
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
		wb = DirtyBlock{Addr: arch.Phys(v.tag) << arch.BlockShift, Data: v.data}
		c.Writebacks.Inc()
	}
	v.valid = true
	v.dirty = false
	v.tag = tagOf(a)
	v.lru = c.tick
	copy(v.data[:], data)
	return wb, evictedDirty
}

// Read copies data out of a cached block. The block must be present; check
// with Lookup first. The range must not cross a block boundary.
func (c *Cache) Read(a arch.Phys, buf []byte) {
	l := c.mustFind(a, uint64(len(buf)))
	off := uint64(a) & arch.BlockMask
	copy(buf, l.data[off:off+uint64(len(buf))])
}

// Write stores data into a cached block. Under write-back the line becomes
// dirty; under write-through the caller must also propagate the store below
// (the cache stays clean). The block must be present.
func (c *Cache) Write(a arch.Phys, data []byte) {
	l := c.mustFind(a, uint64(len(data)))
	off := uint64(a) & arch.BlockMask
	copy(l.data[off:off+uint64(len(data))], data)
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

// FlushAll invalidates every line and returns the dirty blocks that need
// writing back, in set order.
func (c *Cache) FlushAll() []DirtyBlock {
	var out []DirtyBlock
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			if l.valid && l.dirty {
				out = append(out, DirtyBlock{Addr: arch.Phys(l.tag) << arch.BlockShift, Data: l.data})
				c.Writebacks.Inc()
			}
			l.valid = false
			l.dirty = false
		}
	}
	return out
}

// FlushPage invalidates every line belonging to the given physical page and
// returns its dirty blocks. This is the paper's selective-flush
// optimization for permission downgrades.
func (c *Cache) FlushPage(p arch.PPN) []DirtyBlock {
	var out []DirtyBlock
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			if !l.valid {
				continue
			}
			addr := arch.Phys(l.tag) << arch.BlockShift
			if addr.PageOf() != p {
				continue
			}
			if l.dirty {
				out = append(out, DirtyBlock{Addr: addr, Data: l.data})
				c.Writebacks.Inc()
			}
			l.valid = false
			l.dirty = false
		}
	}
	return out
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
	return true
}

// Extract invalidates the block containing a and returns its data and
// dirty state: the coherence-recall primitive.
func (c *Cache) Extract(a arch.Phys) (data [arch.BlockSize]byte, dirty, present bool) {
	l := c.find(a.BlockOf())
	if l == nil {
		return data, false, false
	}
	data = l.data
	dirty = l.dirty
	l.valid = false
	l.dirty = false
	return data, dirty, true
}

// DirtyBlocks returns how many lines are currently dirty (for tests).
func (c *Cache) DirtyBlocks() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				n++
			}
		}
	}
	return n
}

// ValidBlocks returns how many lines are currently valid (for tests).
func (c *Cache) ValidBlocks() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// RegisterMetrics publishes the cache's counters under s ("hits",
// "misses", "miss_ratio", "writebacks", "fills" within the given scope).
func (c *Cache) RegisterMetrics(s stats.Scope) {
	s.HitMiss("", &c.HitMiss)
	s.Counter("writebacks", &c.Writebacks)
	s.Counter("fills", &c.Fills)
}
