//go:build !race

package workload

import "testing"

// The race detector changes allocation behaviour, so this builds only
// without it.

// TestRecordedStoresAllocateNothing: once a wavefront's trace and its
// phase's payload arena have grown, recording a single float or int store
// — the functional write plus the op and its payload — allocates nothing.
func TestRecordedStoresAllocateNothing(t *testing.T) {
	p := newProc(t)
	const n = 1024
	fa, ia := allocF32(p, n), allocI32(p, n)
	ph := newPhase("t")
	w := ph.wavefront()
	for i := 0; i < n; i++ {
		w.storeF32(fa, i, 1)
		w.storeI32(ia, i, 1)
	}
	w.ops, ph.data = w.ops[:0], ph.data[:0]
	i := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		w.storeF32(fa, i%n, float32(i))
		w.storeI32(ia, i%n, int32(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("recorded storeF32+storeI32: %v allocations, want 0", allocs)
	}
	if len(w.ops) != 2*(n/2+1) || len(ph.data) != 4*len(w.ops) {
		t.Fatalf("recorded %d ops and %d payload bytes", len(w.ops), len(ph.data))
	}
}
