//go:build !race

package core

import (
	"testing"

	"bordercontrol/internal/arch"
)

// The race detector changes allocation behaviour, so this file builds only
// without it.

// TestRangeInsertAllocatesNothing: once both range buffers have grown, a
// grant that splits off a new range and the downgrade that narrows it back
// allocate nothing.
func TestRangeInsertAllocatesNothing(t *testing.T) {
	rb := &RangeBorder{}
	for p := arch.PPN(0); p < 64; p += 2 {
		rb.addRange(p, p+1, arch.PermRead)
	}
	step := func() {
		rb.addRange(33, 34, arch.PermRW)
		rb.setRange(33, 34, arch.PermNone)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("range grant and downgrade: %v allocations per step, want 0", allocs)
	}
	if n := rb.RangeCount(); n != 32 {
		t.Fatalf("%d ranges after the steps, want the 32 granted", n)
	}
}
