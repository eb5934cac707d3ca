//go:build !race

package harness

import (
	"runtime"
	"testing"
)

// The race detector changes allocation behaviour, so this file builds only
// without it.

// TestNewSystemAllocationBound pins what assembling the largest default
// system costs on the heap. A sweep cell is about a millisecond of
// simulation, so assembly is a large share of it: caches must not pay for
// line data they never fill, nor TLBs and the BCC for per-set slices.
func TestNewSystemAllocationBound(t *testing.T) {
	const n = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := NewSystem(BCBCC, HighlyThreaded, DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 350<<10 {
		t.Errorf("NewSystem(BC-BCC, highly threaded) allocates %d KB, want under 350 KB", per>>10)
	}
}
