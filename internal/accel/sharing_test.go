package accel

import (
	"bytes"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/coherence"
)

// hostCPU is a trusted coherence agent standing in for the CPU cache
// hierarchy in sharing tests.
type hostCPU struct{}

func (hostCPU) Name() string                    { return "cpu0" }
func (hostCPU) Trusted() bool                   { return true }
func (hostCPU) Recall(arch.Phys) ([]byte, bool) { return nil, false }

// TestCPUReadsGPUDirtyData exercises the coherent CPU<->GPU sharing path
// the paper's HSA-style integration provides: the CPU requests a block the
// GPU holds dirty; the directory recalls it from the accelerator caches
// and the CPU observes the latest value WITHOUT waiting for a kernel-end
// flush — and (§3.4.3) the untrusted cache never remains owner of data it
// was merely reading.
func TestCPUReadsGPUDirtyData(t *testing.T) {
	r := newRig(t, true)
	cpu := r.dir.AddAgent(hostCPU{})

	v := r.buffer(t, arch.PageSize)
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, 0); err != nil {
		t.Fatal(err)
	}
	pa, err := r.proc.Translate(v, arch.Write)
	if err != nil {
		t.Fatal(err)
	}
	// The GPU dirties the block in its L2 (no writeback yet).
	if _, err := r.hier.store(0, 0, r.proc.ASID(), pa, []byte("gpu-wrote")); err != nil {
		t.Fatal(err)
	}
	if !r.hier.L2().IsDirty(pa) {
		t.Fatal("block should be dirty GPU-side")
	}
	var before [9]byte
	r.os.Store().ReadInto(pa, before[:])
	if bytes.Equal(before[:], []byte("gpu-wrote")) {
		t.Fatal("data reached memory before any recall; test premise broken")
	}

	// CPU GetS: the directory recalls the dirty block from the GPU.
	if st := r.dir.RequestShared(cpu, pa); st != coherence.Shared && st != coherence.Exclusive {
		t.Fatalf("CPU GetS state = %v", st)
	}
	var after [9]byte
	r.os.Store().ReadInto(pa, after[:])
	if !bytes.Equal(after[:], []byte("gpu-wrote")) {
		t.Errorf("memory after recall = %q", after[:])
	}
	// The GPU no longer holds the block (recall invalidates); §3.4.3: it
	// certainly is not the owner.
	if r.hier.L2().Contains(pa) {
		t.Error("GPU kept the block past the recall")
	}
	if owner := r.dir.OwnerOf(pa); owner != -1 && owner != cpu {
		t.Errorf("block owner = %d; the untrusted cache must not own it", owner)
	}
	// Invariant check over the block with a permission oracle.
	if err := r.dir.CheckInvariant(pa, func(a coherence.Agent, addr arch.Phys) bool {
		return r.bc.Check(r.eng.Now(), r.proc.ASID(), addr, arch.Write).Allowed
	}); err != nil {
		t.Error(err)
	}
}

// TestGPURefetchesAfterCPUWrite: after the CPU takes the block modified,
// the GPU's next access misses (its copy was recalled) and fetches the
// CPU's data — no stale reads.
func TestGPURefetchesAfterCPUWrite(t *testing.T) {
	r := newRig(t, true)
	cpu := r.dir.AddAgent(hostCPU{})
	v := r.buffer(t, arch.PageSize)
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Read, 0); err != nil {
		t.Fatal(err)
	}
	pa, _ := r.proc.Translate(v, arch.Read)
	if _, err := r.hier.load(0, 0, r.proc.ASID(), pa); err != nil {
		t.Fatal(err)
	}
	if !r.hier.L2().Contains(pa) {
		t.Fatal("GPU should cache the block")
	}
	// CPU writes the block: GetM invalidates the GPU copy, then the CPU
	// updates memory.
	r.dir.RequestModified(cpu, pa)
	r.os.Store().Write(pa, []byte("cpu-data"))
	if r.hier.L2().Contains(pa) {
		t.Fatal("GPU copy must be invalidated by the CPU's GetM")
	}
	// GPU re-reads: misses, refetches the new value into its caches.
	if _, err := r.hier.load(0, 0, r.proc.ASID(), pa); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	r.hier.L2().Read(pa.BlockOf(), buf[:])
	if !bytes.Equal(buf[:], []byte("cpu-data")) {
		t.Errorf("GPU refetched %q", buf[:])
	}
}
