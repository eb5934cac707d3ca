//go:build !race

package dense

import (
	"runtime"
	"testing"
)

// The race detector changes allocation behaviour, so this file builds only
// without it.

func TestReadsNeverAllocate(t *testing.T) {
	var tab Table[uint64]
	*tab.At(5) = 1
	keys := []uint64{5, 6, 1 << 12, 1 << 22, 1 << 40, ^uint64(0)}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			tab.Get(k)
			tab.Ptr(k)
		}
	}); allocs != 0 {
		t.Errorf("reads allocated %v times per run, want 0", allocs)
	}
}

// allocated returns the heap bytes and objects fn allocates.
func allocated(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestOneTouchIsSmall: the first write anywhere in a 2^27-entry key space
// (the blocks of 16 GB) allocates one leaf and one path of interior nodes.
func TestOneTouchIsSmall(t *testing.T) {
	for _, key := range []uint64{0, 1<<27 - 1, 0x2a5_f00d} {
		var tab Table[[2]uint64] // 16-byte entries, like a directory block
		bytes, _ := allocated(func() { *tab.At(key) = [2]uint64{1, 2} })
		if bytes > 8<<10 {
			t.Errorf("first write at %#x allocated %d bytes, want at most 8 KB", key, bytes)
		}
	}
}

// TestAscendingFillIsLinear: filling keys in order allocates each leaf and
// node once, so 64K entries cost about one allocation per leaf.
func TestAscendingFillIsLinear(t *testing.T) {
	var tab Table[uint64]
	const n = 1 << 16
	bytes, objects := allocated(func() {
		for k := uint64(0); k < n; k++ {
			*tab.At(k) = k
		}
	})
	leaves := uint64(n >> 9)
	if objects > 3*leaves {
		t.Errorf("%d entries took %d allocations, want about one per leaf (%d leaves)", n, objects, leaves)
	}
	if bytes > n*8*5/4 {
		t.Errorf("%d 8-byte entries took %d bytes, want under 25%% overhead", n, bytes)
	}
}
