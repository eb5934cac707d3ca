package accel

// Regression tests for denied-request residue: a blocked border crossing
// must leave the accelerator-side hierarchy and the coherence directory
// exactly as they were. The store path once wrote the L1 before the border
// authorized the ownership upgrade, so a blocked store still served the
// forbidden data to later loads from the same CU.

import (
	"bytes"
	"errors"
	"testing"

	"bordercontrol/internal/arch"
)

func TestBlockedStoreLeavesNoL1Residue(t *testing.T) {
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	v, err := r.proc.Mmap(arch.PageSize, arch.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.proc.Translate(v, arch.Read); err != nil {
		t.Fatal(err)
	}
	// Read-only grant; a load pulls the block into L1 and L2.
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Read, 0); err != nil {
		t.Fatal(err)
	}
	ppn, _ := r.proc.PPNOf(v.PageOf())
	pa := ppn.Base()
	r.os.Store().Write(pa, []byte("original")) // seed known bytes in the frame
	if _, err := r.hier.load(0, 0, r.proc.ASID(), pa); err != nil {
		t.Fatal(err)
	}
	if !r.hier.L1(0).Contains(pa) {
		t.Fatal("load should have filled the L1; test premise broken")
	}

	// The store's ownership upgrade is refused at the border.
	if _, err := r.hier.store(0, 0, r.proc.ASID(), pa, []byte("tampered")); !errors.Is(err, ErrBlocked) {
		t.Fatalf("store through a read-only grant = %v, want ErrBlocked", err)
	}

	// No cache level may have absorbed the forbidden data: a later load
	// from the same CU must still see the original bytes.
	var l1buf, l2buf [arch.BlockSize]byte
	r.hier.L1(0).Read(pa, l1buf[:])
	r.hier.L2().Read(pa, l2buf[:])
	if !bytes.Equal(l1buf[:8], []byte("original")) {
		t.Errorf("L1 after blocked store = %q, want %q (denied data cached)", l1buf[:8], "original")
	}
	if !bytes.Equal(l2buf[:8], []byte("original")) {
		t.Errorf("L2 after blocked store = %q, want %q", l2buf[:8], "original")
	}
	if r.hier.L2().IsDirty(pa) {
		t.Error("blocked store left the L2 block dirty")
	}
}

func TestBlockedFillLeavesNoResidue(t *testing.T) {
	// A fill of a never-granted physical page is refused at the border. The
	// refusal must be total: no line in any cache, nothing dirty, and the
	// coherence directory must not have recorded the accelerator as sharer
	// or owner — a directory entry for a denied fill would later recall or
	// invalidate against a block the accelerator never legally held.
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	v := r.buffer(t, arch.PageSize) // mapped RW, never translated: fail-closed
	ppn, _ := r.proc.PPNOf(v.PageOf())
	pa := ppn.Base()
	l2Before := r.hier.L2().ValidBlocks()

	for _, intent := range []arch.AccessKind{arch.Read, arch.Write} {
		var err error
		if intent == arch.Read {
			_, err = r.hier.load(0, 0, r.proc.ASID(), pa)
		} else {
			_, err = r.hier.store(0, 0, r.proc.ASID(), pa, []byte{0x99})
		}
		if !errors.Is(err, ErrBlocked) {
			t.Fatalf("%v fill of ungranted page = %v, want ErrBlocked", intent, err)
		}
		if r.hier.L1(0).Contains(pa) {
			t.Errorf("%v: blocked fill left an L1 line", intent)
		}
		if r.hier.L2().Contains(pa) {
			t.Errorf("%v: blocked fill left an L2 line", intent)
		}
		if got := r.hier.L2().ValidBlocks(); got != l2Before {
			t.Errorf("%v: L2 valid blocks %d, want %d", intent, got, l2Before)
		}
		if owner := r.dir.OwnerOf(pa); owner != -1 {
			t.Errorf("%v: directory records owner %d for a denied fill", intent, owner)
		}
		if n := r.dir.SharersOf(pa); n != 0 {
			t.Errorf("%v: directory records %d sharers for a denied fill", intent, n)
		}
	}
}
