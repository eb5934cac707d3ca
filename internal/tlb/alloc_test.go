//go:build !race

package tlb

import (
	"testing"

	"bordercontrol/internal/arch"
)

// The race detector changes allocation behaviour, so this file builds only
// without it.

// TestOperationsAllocateNothing pins lookups, inserts that evict and
// invalidations at zero heap allocations.
func TestOperationsAllocateNothing(t *testing.T) {
	tb := mustTLB(t, 64, 64)
	var vpn arch.VPN
	step := func() {
		vpn++
		tb.Insert(Entry{ASID: 1, VPN: vpn, PPN: arch.PPN(vpn)})
		tb.Lookup(1, vpn)
		tb.Lookup(2, vpn)
		tb.Invalidate(1, vpn-32)
	}
	for i := 0; i < 128; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("insert, lookup and invalidate: %v allocations per step, want 0", allocs)
	}
}
