package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"bordercontrol/internal/arch"
)

func mustCache(t *testing.T, size, ways int, pol WritePolicy) *Cache {
	t.Helper()
	c, err := New(Config{Name: "test", SizeBytes: size, Ways: ways, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func block(fill byte) []byte {
	b := make([]byte, arch.BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1},
		{SizeBytes: 100, Ways: 1},     // not block multiple
		{SizeBytes: 1024, Ways: 0},    // no ways
		{SizeBytes: 3 * 128, Ways: 2}, // blocks not divisible by ways
		{SizeBytes: -128, Ways: 1},    // negative
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}

func TestFillLookupRead(t *testing.T) {
	c := mustCache(t, 1024, 2, WriteBack)
	if c.Lookup(0x1000) {
		t.Error("hit in empty cache")
	}
	c.Fill(0x1000, block(0xAB))
	if !c.Lookup(0x1000) || !c.Lookup(0x107F) {
		t.Error("filled block should hit anywhere inside")
	}
	if c.Lookup(0x1080) {
		t.Error("adjacent block should miss")
	}
	var buf [16]byte
	c.Read(0x1010, buf[:])
	if !bytes.Equal(buf[:], block(0xAB)[:16]) {
		t.Error("read wrong data")
	}
}

func TestWriteBackDirty(t *testing.T) {
	c := mustCache(t, 256, 2, WriteBack) // 2 blocks, 1 set
	c.Fill(0, block(0))
	c.Write(4, []byte{1, 2, 3, 4})
	if !c.IsDirty(0) {
		t.Error("write-back store should dirty the line")
	}
	c.Fill(128, block(0))
	// Third fill in the same set evicts the LRU (block 0, dirty).
	victim, dirty := c.Fill(256, block(0))
	if !dirty || victim.Addr != 0 {
		t.Fatalf("victim = %+v dirty=%v, want dirty block 0", victim, dirty)
	}
	if !bytes.Equal(victim.Data[4:8], []byte{1, 2, 3, 4}) {
		t.Error("victim writeback lost the stored data")
	}
	if c.Writebacks.Value() != 1 {
		t.Error("writeback not counted")
	}
}

func TestWriteThroughStaysClean(t *testing.T) {
	c := mustCache(t, 256, 2, WriteThrough)
	c.Fill(0, block(0))
	c.Write(0, []byte{9})
	if c.IsDirty(0) {
		t.Error("write-through line must stay clean")
	}
	var b [1]byte
	c.Read(0, b[:])
	if b[0] != 9 {
		t.Error("write-through must still update the cached copy")
	}
}

func TestRefillKeepsDirty(t *testing.T) {
	c := mustCache(t, 256, 2, WriteBack)
	c.Fill(0, block(1))
	c.Write(0, []byte{7})
	// Refill of the same block keeps dirty state (e.g. ownership upgrade).
	if _, evicted := c.Fill(0, block(2)); evicted {
		t.Error("refill must not evict")
	}
	if !c.IsDirty(0) {
		t.Error("refill cleared dirty state")
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := mustCache(t, 512, 4, WriteBack) // 4 blocks/set, 1 set
	for i := 0; i < 4; i++ {
		c.Fill(arch.Phys(i*128), block(byte(i)))
	}
	c.Lookup(0) // touch 0; LRU is now 128
	victim, _ := c.Fill(4*128, block(9))
	_ = victim
	if c.Contains(128) {
		t.Error("LRU block 128 should be evicted")
	}
	if !c.Contains(0) {
		t.Error("MRU block 0 should survive")
	}
}

func TestFlushAll(t *testing.T) {
	c := mustCache(t, 1024, 4, WriteBack)
	c.Fill(0, block(1))
	c.Write(0, []byte{1})
	c.Fill(128, block(2)) // clean
	dirty := c.FlushAll()
	if len(dirty) != 1 || dirty[0].Addr != 0 {
		t.Fatalf("flush returned %v", dirty)
	}
	if c.ValidBlocks() != 0 {
		t.Error("flush must invalidate everything")
	}
}

func TestFlushPage(t *testing.T) {
	c := mustCache(t, 4096, 4, WriteBack)
	// Two blocks on page 0, one on page 1; all dirty.
	for _, a := range []arch.Phys{0, 256, 4096} {
		c.Fill(a, block(0))
		c.Write(a, []byte{0xFF})
	}
	dirty := c.FlushPage(0)
	if len(dirty) != 2 {
		t.Fatalf("page flush returned %d blocks, want 2", len(dirty))
	}
	if !c.Contains(4096) || !c.IsDirty(4096) {
		t.Error("other page must be untouched")
	}
	if c.Contains(0) || c.Contains(256) {
		t.Error("flushed page still cached")
	}
}

func TestDropLosesData(t *testing.T) {
	c := mustCache(t, 256, 2, WriteBack)
	c.Fill(0, block(1))
	c.Write(0, []byte{0xEE})
	if !c.Drop(0) {
		t.Error("drop missed")
	}
	if c.Contains(0) || c.DirtyBlocks() != 0 {
		t.Error("drop must invalidate silently")
	}
	if c.Drop(0) {
		t.Error("double drop should miss")
	}
}

func TestExtract(t *testing.T) {
	c := mustCache(t, 256, 2, WriteBack)
	c.Fill(0, block(3))
	c.Write(8, []byte{0x42})
	data, dirty, present := c.Extract(8) // any address within the block
	if !present || !dirty {
		t.Fatalf("extract: present=%v dirty=%v", present, dirty)
	}
	if data[8] != 0x42 || data[0] != 3 {
		t.Error("extract returned wrong data")
	}
	if c.Contains(0) {
		t.Error("extract must invalidate")
	}
	if _, _, present := c.Extract(0); present {
		t.Error("second extract should miss")
	}
}

func TestBlockCrossingPanics(t *testing.T) {
	c := mustCache(t, 256, 2, WriteBack)
	c.Fill(0, block(0))
	defer func() {
		if recover() == nil {
			t.Error("block-crossing access should panic")
		}
	}()
	var buf [16]byte
	c.Read(120, buf[:])
}

func TestAbsentAccessPanics(t *testing.T) {
	c := mustCache(t, 256, 2, WriteBack)
	defer func() {
		if recover() == nil {
			t.Error("access to absent block should panic")
		}
	}()
	c.Write(0, []byte{1})
}

// TestAgainstReferenceModel drives random fills/writes/flushes against a
// map-based reference and checks data and dirty-state agreement.
func TestAgainstReferenceModel(t *testing.T) {
	c := mustCache(t, 2048, 4, WriteBack)
	rng := rand.New(rand.NewSource(99))

	// Reference: block address -> data and dirty flag, only for blocks the
	// cache currently holds; mem models what writebacks have persisted.
	type refLine struct {
		data  [arch.BlockSize]byte
		dirty bool
	}
	ref := make(map[arch.Phys]*refLine)
	mem := make(map[arch.Phys][arch.BlockSize]byte)

	persist := func(db DirtyBlock) { mem[db.Addr] = db.Data }

	for i := 0; i < 5000; i++ {
		addr := arch.Phys(rng.Intn(64)) * arch.BlockSize
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // fill (if absent)
			if c.Contains(addr) {
				continue
			}
			data := mem[addr]
			victim, dirty := c.Fill(addr, data[:])
			if dirty {
				persist(victim)
				// Victim must match the reference's dirty line.
				rl := ref[victim.Addr]
				if rl == nil || !rl.dirty || !bytes.Equal(rl.data[:], victim.Data[:]) {
					t.Fatal("victim mismatch with reference")
				}
			}
			// Remove any reference lines the cache no longer holds.
			for a := range ref {
				if !c.Contains(a) {
					delete(ref, a)
				}
			}
			ref[addr] = &refLine{data: data}
		case 4, 5, 6: // write (if present)
			if !c.Contains(addr) {
				continue
			}
			off := uint64(rng.Intn(arch.BlockSize - 8))
			val := []byte{byte(i), byte(i >> 8)}
			c.Write(addr+arch.Phys(off), val)
			rl := ref[addr]
			copy(rl.data[off:], val)
			rl.dirty = true
		case 7: // read check
			if !c.Contains(addr) {
				continue
			}
			var buf [arch.BlockSize]byte
			c.Read(addr, buf[:])
			if !bytes.Equal(buf[:], ref[addr].data[:]) {
				t.Fatal("cached data disagrees with reference")
			}
		case 8: // page flush
			page := addr.PageOf()
			for _, db := range c.FlushPage(page) {
				persist(db)
			}
			for a := range ref {
				if a.PageOf() == page {
					delete(ref, a)
				}
			}
		case 9: // dirty-state check
			if c.Contains(addr) != (ref[addr] != nil) {
				t.Fatal("presence disagrees with reference")
			}
			if rl := ref[addr]; rl != nil && c.IsDirty(addr) != rl.dirty {
				t.Fatal("dirty state disagrees with reference")
			}
		}
	}
	// Final flush: everything dirty lands in mem and matches the reference.
	for _, db := range c.FlushAll() {
		rl := ref[db.Addr]
		if rl == nil || !rl.dirty || !bytes.Equal(rl.data[:], db.Data[:]) {
			t.Fatal("final flush mismatch")
		}
		persist(db)
	}
}

// TestRefillAfterHoleLeavesNoDuplicate: a drop leaves a free way ahead of a
// valid line. Refilling that line's block must update it in place, not
// install a second copy in the hole that a later drop would leave behind.
func TestRefillAfterHoleLeavesNoDuplicate(t *testing.T) {
	c := mustCache(t, 4*arch.BlockSize, 4, WriteBack) // one set, 4 ways
	c.Fill(0x000, block(1))
	c.Fill(0x080, block(2))
	c.Drop(0x000)
	c.Fill(0x080, block(3))
	if n := c.ValidBlocks(); n != 1 {
		t.Errorf("%d valid lines after refilling 0x080, want 1", n)
	}
	var got [1]byte
	c.Read(0x080, got[:])
	if got[0] != 3 {
		t.Errorf("0x080 holds %d, want the refilled 3", got[0])
	}
	c.Drop(0x080)
	if c.Contains(0x080) {
		t.Error("0x080 still cached after its drop: a duplicate survived")
	}
}
