package accel

import (
	"testing"

	"bordercontrol/internal/arch"
)

// TestHugePageEndToEnd drives an accelerator over a 2 MB-backed buffer:
// one ATS translation covers the whole huge page, Border Control fans the
// insertion out to all 512 base-page entries (§3.4.4), and accesses across
// the entire huge page pass with no further translations.
func TestHugePageEndToEnd(t *testing.T) {
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true // the boundary probes below are deliberate
	v, err := r.proc.MmapHuge(arch.HugePageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.proc.Write(v, make([]byte, arch.HugePageSize)); err != nil {
		t.Fatal(err)
	}

	// One translation for the first 4 KB page...
	res, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Huge {
		t.Fatal("translation should report a huge leaf")
	}
	// ...grants every base page of the huge page at the border.
	head, _ := r.proc.PPNOf(v.PageOf())
	for _, off := range []arch.PPN{0, 1, 255, 511} {
		if !r.bc.Check(0, r.proc.ASID(), (head + off).Base(), arch.Write).Allowed {
			t.Errorf("base page +%d not granted by the huge fan-out", off)
		}
	}
	if r.bc.Check(0, r.proc.ASID(), (head + 512).Base(), arch.Read).Allowed {
		t.Error("fan-out must stop at the huge-page boundary")
	}

	// A GPU program touching several corners of the huge page runs clean.
	ph := Phase{Name: "k"}
	var tr Trace
	for _, off := range []arch.Virt{0, 4096 * 100, 4096 * 511, arch.HugePageSize - 32} {
		tr = appendStore(&ph, tr, v+off, []byte{0xCD})
		tr = append(tr, loadOp(v+off))
	}
	ph.Traces = []Trace{tr}
	prog := &Program{Name: "huge", Phases: []Phase{ph}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err := r.gpu.Err(); err != nil {
		t.Fatalf("huge-page program aborted: %v", err)
	}
	var b [1]byte
	if err := r.proc.Read(v+arch.HugePageSize-32, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xCD {
		t.Error("store to the huge page's tail lost")
	}
}

// TestRemapUnderAccelerator models memory compaction/swapping (§3.2.4):
// the OS moves a page to a fresh frame while the accelerator holds the old
// translation. The shootdown revokes the old frame at the border; the old
// frame becomes unreachable and the new one works after re-translation.
func TestRemapUnderAccelerator(t *testing.T) {
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	v := r.buffer(t, arch.PageSize)
	if err := r.proc.Write(v, []byte("movable")); err != nil {
		t.Fatal(err)
	}
	oldPPN, _ := r.proc.PPNOf(v.PageOf())
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, 0); err != nil {
		t.Fatal(err)
	}
	if !r.bc.Check(0, r.proc.ASID(), oldPPN.Base(), arch.Write).Allowed {
		t.Fatal("pre-remap access should pass")
	}

	newPPN, err := r.os.Remap(r.proc, v.PageOf())
	if err != nil {
		t.Fatal(err)
	}
	// The old frame is revoked at the border; the accelerator's stale
	// translation is useless.
	if r.bc.Check(r.eng.Now(), r.proc.ASID(), oldPPN.Base(), arch.Read).Allowed {
		t.Error("old frame still accessible after remap")
	}
	// The new frame requires a fresh translation, then works, and the data
	// moved with it.
	if r.bc.Check(r.eng.Now(), r.proc.ASID(), newPPN.Base(), arch.Read).Allowed {
		t.Error("new frame accessible before re-translation (fail-closed violated)")
	}
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, r.eng.Now()); err != nil {
		t.Fatal(err)
	}
	if !r.bc.Check(r.eng.Now(), r.proc.ASID(), newPPN.Base(), arch.Write).Allowed {
		t.Error("new frame not granted after re-translation")
	}
	var got [7]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "movable" {
		t.Errorf("data lost in remap: %q", got[:])
	}
}
