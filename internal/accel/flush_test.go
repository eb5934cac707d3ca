package accel

import (
	"fmt"
	"slices"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/core"
	"bordercontrol/internal/sim"
)

// writeLog is a border checker that records every writeback crossing, in
// the order the crossings start, with its verdict.
type writeLog struct {
	core.Checker
	log *[]string
}

func (w writeLog) Check(at sim.Time, asid arch.ASID, addr arch.Phys, kind arch.AccessKind) core.Decision {
	if kind != arch.Write {
		return w.Checker.Check(at, asid, addr, kind)
	}
	i := len(*w.log)
	*w.log = append(*w.log, fmt.Sprintf("%#x", addr))
	d := w.Checker.Check(at, asid, addr, kind)
	(*w.log)[i] += fmt.Sprintf(" %v", d.Allowed)
	return d
}

// TestNestedFlushKeepsOuterWritebacks: a flush's denied writeback can exit
// the process, and the exit's downgrades flush the same L2 again while the
// outer flush is still writing back. The nested flush must not disturb
// the blocks the outer one has yet to write, even when the hierarchy's
// flush slice has room for both. The golden is what the hierarchy did when
// every flush returned a fresh slice: the outer flush of page X tries X's
// first block (denied: X lost its write bit), the exit flushes page Y
// (both blocks allowed), and the outer flush then tries X's second block
// (denied) — not one of Y's again.
func TestNestedFlushKeepsOuterWritebacks(t *testing.T) {
	r := newRig(t, true) // the default policy: a violation exits the culprit
	v := r.buffer(t, 2*arch.PageSize)
	x, _ := r.proc.PPNOf(v.PageOf())
	y, _ := r.proc.PPNOf((v + arch.PageSize).PageOf())
	addrs := []arch.Virt{v, v + 3*arch.BlockSize, v + arch.PageSize, v + arch.PageSize + 5*arch.BlockSize}
	dirty := func(prefix string) {
		for i, a := range addrs {
			data := []byte(fmt.Sprintf("%s%03d", prefix, i))
			if _, err := r.hier.Access(r.eng.Now(), 0, r.proc.ASID(), Op{Kind: arch.Write, Size: 8, Addr: a}, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A first round of stores and a full flush write "first" everywhere
	// and leave the flush slice room for four blocks.
	dirty("first")
	r.hier.FlushAll(r.eng.Now())
	dirty("block")
	// Downgrade X to read-only behind an accelerator that ignores the
	// flush: X's table entry and BCC entry lose the write bit while both
	// of X's blocks stay dirty in the L2.
	r.bc.SetAccelerator(NewFlushIgnorer(r.hier))
	if _, err := r.os.Protect(r.proc, v, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	r.bc.SetAccelerator(r.hier)

	var log []string
	r.hier.border.SetChecker(writeLog{Checker: r.bc, log: &log})
	r.hier.FlushPage(r.eng.Now(), x)

	want := []string{
		fmt.Sprintf("%#x false", x.Base()),
		fmt.Sprintf("%#x true", y.Base()),
		fmt.Sprintf("%#x true", y.Base()+5*arch.BlockSize),
		fmt.Sprintf("%#x false", x.Base()+3*arch.BlockSize),
	}
	if !slices.Equal(log, want) {
		t.Errorf("writebacks %q, want %q", log, want)
	}
	if r.hier.L2().ValidBlocks() != 0 {
		t.Errorf("%d L2 lines left valid after both flushes", r.hier.L2().ValidBlocks())
	}
	// Memory holds Y's second stores and X's first.
	store := r.dram.Store()
	for i, pa := range []arch.Phys{x.Base(), x.Base() + 3*arch.BlockSize, y.Base(), y.Base() + 5*arch.BlockSize} {
		want := fmt.Sprintf("first%03d", i)
		if i >= 2 {
			want = fmt.Sprintf("block%03d", i)
		}
		if got := string(store.Read(pa, 8)); got != want {
			t.Errorf("memory at %#x holds %q, want %q", pa, got, want)
		}
	}
}
