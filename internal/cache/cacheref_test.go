package cache

// This file keeps the cache's original layout as an unexported reference
// model: a slice per set, every line embedding its block, a modulo set
// index, and flushes that return fresh slices. The production cache (flat
// line metadata, data slots assigned at first fill, masked set indices, a
// valid-line count, flushes into the caller's slice) must return exactly
// what this one does for every operation — hit or miss, the victim and its
// data, flush output and its order — and keep the same counters.
// TestMatchesReference and FuzzCacheMatchesReference enforce that.

import (
	"bytes"
	"math/rand"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/stats"
)

type refLine struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
	data  [arch.BlockSize]byte
}

type refCache struct {
	cfg  Config
	sets [][]refLine
	tick uint64

	HitMiss    stats.HitMiss
	Writebacks stats.Counter
	Fills      stats.Counter
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / arch.BlockSize / cfg.Ways
	c := &refCache{cfg: cfg, sets: make([][]refLine, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	return c
}

func (c *refCache) set(a arch.Phys) []refLine {
	return c.sets[(uint64(a)>>arch.BlockShift)%uint64(len(c.sets))]
}

func (c *refCache) find(a arch.Phys) *refLine {
	set := c.set(a)
	t := tagOf(a)
	for i := range set {
		if set[i].valid && set[i].tag == t {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Contains(a arch.Phys) bool { return c.find(a.BlockOf()) != nil }

func (c *refCache) IsDirty(a arch.Phys) bool {
	l := c.find(a.BlockOf())
	return l != nil && l.dirty
}

func (c *refCache) Lookup(a arch.Phys) bool {
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

func (c *refCache) Fill(a arch.Phys, data []byte) (DirtyBlock, bool) {
	a = a.BlockOf()
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

func (c *refCache) Read(a arch.Phys, buf []byte) {
	l := c.find(a.BlockOf())
	off := uint64(a) & arch.BlockMask
	copy(buf, l.data[off:off+uint64(len(buf))])
}

func (c *refCache) Write(a arch.Phys, data []byte) {
	l := c.find(a.BlockOf())
	off := uint64(a) & arch.BlockMask
	copy(l.data[off:off+uint64(len(data))], data)
	if c.cfg.Policy == WriteBack {
		l.dirty = true
	}
}

func (c *refCache) FlushAll() []DirtyBlock {
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

func (c *refCache) FlushPage(p arch.PPN) []DirtyBlock {
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

func (c *refCache) Drop(a arch.Phys) bool {
	l := c.find(a.BlockOf())
	if l == nil {
		return false
	}
	l.valid = false
	l.dirty = false
	return true
}

func (c *refCache) Extract(a arch.Phys) (data [arch.BlockSize]byte, dirty, present bool) {
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

func (c *refCache) counts() (valid, dirty int) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				valid++
				if set[i].dirty {
					dirty++
				}
			}
		}
	}
	return valid, dirty
}

// refGeometry is one differential cache shape, sets × ways.
type refGeometry struct{ sets, ways int }

// refGeometries are one set, the GPU L1 (32×4), the moderately and highly
// threaded L2s (64×8, 256×8), and a set count that is not a power of two,
// so the modulo index and the whole-cache page flush run.
var refGeometries = []refGeometry{{1, 4}, {32, 4}, {64, 8}, {256, 8}, {40, 4}}

// pattern returns a block whose bytes count up from seed.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// sameBlocks reports whether two flush outputs agree, order included.
func sameBlocks(a, b []DirtyBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffCache drives a cache of geometry g and its reference model through
// the operations script encodes, four bytes each (operation, two address
// bytes, argument), and fails on the first return value or counter that
// differs. Addresses fall in twice the cache's lines, so sets overflow and
// evict; an address byte with its top bit set moves the block above 2^45.
// Flushes append to one reused slice, sometimes behind a kept prefix.
func diffCache(t *testing.T, g refGeometry, pol WritePolicy, script []byte) {
	t.Helper()
	cfg := Config{Name: "diff", SizeBytes: g.sets * g.ways * arch.BlockSize, Ways: g.ways, Policy: pol}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg)
	pool := uint64(2 * g.sets * g.ways)
	var scratch []DirtyBlock
	flushInto := func(arg byte) []DirtyBlock {
		// An odd argument keeps one sentinel block ahead of the output.
		scratch = scratch[:0]
		if arg&1 != 0 {
			scratch = append(scratch, DirtyBlock{Addr: 0xdead00})
		}
		return scratch
	}
	checkFlush := func(op string, got, want []DirtyBlock, arg byte) {
		t.Helper()
		if arg&1 != 0 {
			if len(got) == 0 || got[0].Addr != 0xdead00 {
				t.Fatalf("%s overwrote the caller's prefix", op)
			}
			got = got[1:]
		}
		if !sameBlocks(got, want) {
			t.Fatalf("%s returned %d blocks, reference %d (or they differ)", op, len(got), len(want))
		}
		scratch = got[:0]
	}
	for i := 0; len(script) >= 4; i++ {
		op, x, arg := script[0]%12, uint64(script[1])|uint64(script[2])<<8, script[3]
		script = script[4:]
		blk := x % pool
		if x&0x8000 != 0 {
			blk += 1 << 38
		}
		a := arch.Phys(blk<<arch.BlockShift) + arch.Phys(arg)%arch.BlockSize
		switch op {
		case 0, 1, 2:
			data := pattern(byte(i)^arg, arch.BlockSize)
			gv, gd := c.Fill(a, data)
			wv, wd := ref.Fill(a, data)
			if gd != wd || gv != wv {
				t.Fatalf("op %d: Fill(%#x) evicted (%#x, %v), reference (%#x, %v)", i, a, gv.Addr, gd, wv.Addr, wd)
			}
		case 3:
			if got, want := c.Lookup(a), ref.Lookup(a); got != want {
				t.Fatalf("op %d: Lookup(%#x) = %v, reference %v", i, a, got, want)
			}
		case 4, 5, 6:
			if c.Contains(a) != ref.Contains(a) {
				t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, a, c.Contains(a), ref.Contains(a))
			}
			if !ref.Contains(a) {
				continue
			}
			off := uint64(arg) % (arch.BlockSize - 8)
			n := 1 + int(arg)%8
			at := a.BlockOf() + arch.Phys(off)
			if op == 4 {
				got, want := make([]byte, n), make([]byte, n)
				c.Read(at, got)
				ref.Read(at, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: Read(%#x, %d) = %x, reference %x", i, at, n, got, want)
				}
				continue
			}
			data := pattern(byte(i), n)
			c.Write(at, data)
			ref.Write(at, data)
		case 7:
			checkFlush("FlushAll", c.FlushAll(flushInto(arg)), ref.FlushAll(), arg)
		case 8:
			checkFlush("FlushPage", c.FlushPage(flushInto(arg), a.PageOf()), ref.FlushPage(a.PageOf()), arg)
		case 9:
			if got, want := c.Drop(a), ref.Drop(a); got != want {
				t.Fatalf("op %d: Drop(%#x) = %v, reference %v", i, a, got, want)
			}
		case 10:
			gd, gdirty, gp := c.Extract(a)
			wd, wdirty, wp := ref.Extract(a)
			if gd != wd || gdirty != wdirty || gp != wp {
				t.Fatalf("op %d: Extract(%#x) = (dirty %v, present %v), reference (%v, %v), or data differs", i, a, gdirty, gp, wdirty, wp)
			}
		case 11:
			if c.Contains(a) != ref.Contains(a) || c.IsDirty(a) != ref.IsDirty(a) {
				t.Fatalf("op %d: Contains/IsDirty(%#x) = %v/%v, reference %v/%v", i, a, c.Contains(a), c.IsDirty(a), ref.Contains(a), ref.IsDirty(a))
			}
		}
		if c.HitMiss != ref.HitMiss || c.Fills != ref.Fills || c.Writebacks != ref.Writebacks {
			t.Fatalf("op %d: counters hits/misses/fills/writebacks %d/%d/%d/%d, reference %d/%d/%d/%d", i,
				c.HitMiss.Hits.Value(), c.HitMiss.Misses.Value(), c.Fills.Value(), c.Writebacks.Value(),
				ref.HitMiss.Hits.Value(), ref.HitMiss.Misses.Value(), ref.Fills.Value(), ref.Writebacks.Value())
		}
		if i%64 == 0 || len(script) < 4 {
			valid, dirty := ref.counts()
			if c.ValidBlocks() != valid || c.DirtyBlocks() != dirty {
				t.Fatalf("op %d: %d valid, %d dirty lines; reference %d valid, %d dirty", i,
					c.ValidBlocks(), c.DirtyBlocks(), valid, dirty)
			}
		}
	}
	checkFlush("final FlushAll", c.FlushAll(flushInto(0)), ref.FlushAll(), 0)
}

// TestMatchesReference runs long random scripts through every reference
// geometry under both write policies.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, g := range refGeometries {
		for _, pol := range []WritePolicy{WriteBack, WriteThrough} {
			script := make([]byte, 4*(4000+20*g.sets*g.ways))
			rng.Read(script)
			diffCache(t, g, pol, script)
		}
	}
}

// FuzzCacheMatchesReference lets the fuzzer pick the geometry, the policy
// and the script.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 0, 0, 2, 0, 0, 5, 1, 0, 3, 7, 0, 0, 1})
	f.Add(byte(1), []byte{0, 0, 0, 0, 0, 32, 0, 0, 0, 64, 0, 0, 0, 96, 0, 0, 0, 128, 0, 0, 8, 0, 0, 1})
	f.Add(byte(3), []byte{0, 5, 0x80, 9, 6, 5, 0x80, 9, 10, 5, 0x80, 9, 11, 5, 0x80, 0})
	f.Add(byte(9), []byte{1, 7, 0, 2, 5, 7, 0, 3, 1, 47, 0, 2, 9, 7, 0, 0, 8, 47, 0, 1, 7, 0, 0, 1})
	f.Fuzz(func(t *testing.T, shape byte, script []byte) {
		if len(script) > 1<<16 {
			return
		}
		g := refGeometries[int(shape)%len(refGeometries)]
		pol := WriteBack
		if shape&0x80 != 0 {
			pol = WriteThrough
		}
		diffCache(t, g, pol, script)
	})
}
