//go:build !race

package coherence

import (
	"math/rand"
	"runtime"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/memory"
)

// The race detector changes allocation behaviour, so this file builds only
// without it.

func TestRequestSharedOnNewBlockAllocatesNothing(t *testing.T) {
	dir, _ := setup(t)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	dir.RequestShared(gpu, 0) // touches the page
	blk := arch.Phys(0)
	// 1 warm-up + 20 runs stay within the page's 32 blocks.
	if allocs := testing.AllocsPerRun(20, func() {
		blk += arch.BlockSize
		if st := dir.RequestShared(gpu, blk); st != Shared {
			t.Fatalf("GetS of %#x = %v", blk, st)
		}
	}); allocs != 0 {
		t.Errorf("GetS on a new block of a touched page: %v allocations, want 0", allocs)
	}
	if blk >= arch.PageSize {
		t.Fatalf("the runs left the page (last block %#x)", blk)
	}
}

// TestRandomTouchesStayBounded: writes and directory requests at random
// addresses across a 16 GB memory each cost at most the 4 KB page written
// plus tableBytes of table per structure (one 4 KB leaf and its path of
// interior nodes), and queries of untouched blocks cost nothing.
func TestRandomTouchesStayBounded(t *testing.T) {
	const (
		touches    = 2000
		tableBytes = 6 << 10
		perTouch   = arch.PageSize + 2*tableBytes
	)
	store, err := memory.NewStore(16 << 30)
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory(store)
	gpu := dir.AddAgent(newFakeAgent("gpu", false))
	rng := rand.New(rand.NewSource(1))
	addr := func() arch.Phys { return arch.Phys(rng.Uint64()%store.Size()) &^ 7 }

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < touches; i++ {
		store.WriteU64(addr(), uint64(i))
		dir.RequestShared(gpu, addr())
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d random touches: %d bytes (%d per touch)", touches, bytes, bytes/touches)
	if bytes > touches*perTouch {
		t.Errorf("%d random touches allocated %d bytes, want at most %d (%d per touch)",
			touches, bytes, touches*perTouch, perTouch)
	}

	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			a := addr()
			dir.OwnerOf(a)
			dir.SharersOf(a)
			store.ReadU64(a)
		}
	}); allocs != 0 {
		t.Errorf("queries of random blocks: %v allocations per 100, want 0", allocs)
	}
}
