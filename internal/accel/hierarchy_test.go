package accel

import (
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/ats"
	"bordercontrol/internal/coherence"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/sim"
)

// altRig wires an IOMMU- or CAPI-path hierarchy (no Border Control: both
// are trusted configurations).
type altRig struct {
	eng   *sim.Engine
	os    *hostos.OS
	ats   *ats.ATS
	dram  *memory.DRAM
	clock sim.Clock
	proc  *hostos.Process
	port  *BorderPort
}

func newAltRig(t testing.TB) *altRig {
	t.Helper()
	store, err := memory.NewStore(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	dram, err := memory.NewDRAM(store, memory.DefaultDRAMConfig())
	if err != nil {
		t.Fatal(err)
	}
	osm := hostos.New(store)
	clock := sim.MustClock(700e6)
	atsvc, err := ats.New(ats.DefaultConfig(clock), osm, dram)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := osm.NewProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	atsvc.Activate("gpu0", proc.ASID())
	return &altRig{eng: &sim.Engine{}, os: osm, ats: atsvc, dram: dram, clock: clock, proc: proc}
}

func (r *altRig) dirPort(t testing.TB, trusted coherence.Agent) *BorderPort {
	t.Helper()
	dir := coherence.NewDirectory(r.os.Store())
	agent := dir.AddAgent(trusted)
	r.port = NewBorderPort(nil, dir, agent, r.dram, r.clock.Cycles(4))
	return r.port
}

func (r *altRig) rwPage(t testing.TB) arch.Virt {
	t.Helper()
	v, err := r.proc.Mmap(arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.proc.Write(v, make([]byte, arch.PageSize)); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestIOMMUHierarchyFunctional(t *testing.T) {
	r := newAltRig(t)
	h := NewIOMMUHierarchy("gpu0", r.eng, r.ats, nil, r.clock)
	h.border = r.dirPort(t, h)

	v := r.rwPage(t)
	// Store then load, uncached: the store's RMW must land in memory
	// immediately (there is no cache to hold it).
	done, err := h.Access(0, 0, r.proc.ASID(), Op{Kind: arch.Write, Size: 5, Addr: v}, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	var got [5]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "hello" {
		t.Errorf("uncached store did not land: %q", got[:])
	}
	// Loads pay translation + DRAM every time.
	d1, err := h.Access(done, 0, r.proc.ASID(), Op{Kind: arch.Read, Size: 8, Addr: v}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d1 <= done {
		t.Error("load must take time")
	}
	// Drain is a no-op: nothing cached.
	if h.Drain(d1) != d1 {
		t.Error("IOMMU drain should be free")
	}
	if !h.Trusted() {
		t.Error("the IOMMU path is trusted hardware")
	}
	if data, dirty := h.Recall(0); data != nil || dirty {
		t.Error("nothing to recall from a cacheless path")
	}
}

func TestIOMMUThroughputPort(t *testing.T) {
	// The IOMMU's finite request throughput queues concurrent requests:
	// the k-th simultaneous access finishes later than the first.
	r := newAltRig(t)
	h := NewIOMMUHierarchy("gpu0", r.eng, r.ats, nil, r.clock)
	h.border = r.dirPort(t, h)
	v := r.rwPage(t)
	// Warm the trusted TLB so the walk doesn't dominate the measurement.
	if _, err := h.Access(0, 0, r.proc.ASID(), Op{Kind: arch.Read, Size: 8, Addr: v}, nil); err != nil {
		t.Fatal(err)
	}
	start := sim.Time(1000000)
	var first, last sim.Time
	for i := 0; i < 16; i++ {
		done, err := h.Access(start, 0, r.proc.ASID(), Op{Kind: arch.Read, Size: 8, Addr: v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = done
		}
		last = done
	}
	if last < first+r.clock.Cycles(2*15) {
		t.Errorf("16 concurrent IOMMU requests: first done %d, last %d — no queueing", first, last)
	}
}

func TestCAPIHierarchyFunctional(t *testing.T) {
	r := newAltRig(t)
	cfg := DefaultCAPIConfig("gpu0", r.clock, 64<<10)
	h, err := NewCAPIHierarchy(cfg, r.eng, r.ats, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.border = r.dirPort(t, h)

	v := r.rwPage(t)
	// Store goes into the trusted L2 (dirty), not memory.
	if _, err := h.Access(0, 0, r.proc.ASID(), Op{Kind: arch.Write, Size: 4, Addr: v}, []byte("capi")); err != nil {
		t.Fatal(err)
	}
	if h.L2().DirtyBlocks() == 0 {
		t.Error("CAPI store should dirty the trusted L2")
	}
	var got [4]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) == "capi" {
		t.Error("store reached memory before the drain; write-back L2 expected")
	}
	// Drain flushes the dirty block to memory.
	h.Drain(1000000)
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "capi" {
		t.Errorf("after drain memory = %q", got[:])
	}
	if !h.Trusted() {
		t.Error("CAPI's caches are trusted")
	}
}

func TestCAPILoadHitsItsL2(t *testing.T) {
	r := newAltRig(t)
	h, err := NewCAPIHierarchy(DefaultCAPIConfig("gpu0", r.clock, 64<<10), r.eng, r.ats, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.border = r.dirPort(t, h)
	v := r.rwPage(t)
	d1, err := h.Access(0, 0, r.proc.ASID(), Op{Kind: arch.Read, Size: 8, Addr: v}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := h.Access(d1, 0, r.proc.ASID(), Op{Kind: arch.Read, Size: 8, Addr: v}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second access: trusted-TLB hit + L2 hit + link; far cheaper than the
	// first (which paid a page walk and DRAM).
	if d2-d1 >= d1 {
		t.Errorf("L2 hit (%d ps) not cheaper than miss (%d ps)", d2-d1, d1)
	}
	if h.L2().HitMiss.Hits.Value() == 0 {
		t.Error("no L2 hit recorded")
	}
}

func TestCAPIRecall(t *testing.T) {
	r := newAltRig(t)
	h, err := NewCAPIHierarchy(DefaultCAPIConfig("gpu0", r.clock, 64<<10), r.eng, r.ats, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.border = r.dirPort(t, h)
	v := r.rwPage(t)
	if _, err := h.Access(0, 0, r.proc.ASID(), Op{Kind: arch.Write, Size: 1, Addr: v}, []byte{7}); err != nil {
		t.Fatal(err)
	}
	pa, err := r.proc.Translate(v, arch.Read)
	if err != nil {
		t.Fatal(err)
	}
	data, dirty := h.Recall(pa)
	if !dirty || data[uint64(pa)&arch.BlockMask] != 7 {
		t.Error("recall should surrender the dirty block")
	}
	if h.L2().Contains(pa) {
		t.Error("recalled block still cached")
	}
}

func TestSandboxedDrainStallDelaysAccesses(t *testing.T) {
	// After a shootdown the hierarchy stalls; the next access starts no
	// earlier than the stall horizon.
	r := newRig(t, false)
	v := r.buffer(t, arch.PageSize)
	r.hier.OnDowngrade(hostos.Downgrade{ASID: r.proc.ASID(), VPN: v.PageOf()})
	done, err := r.hier.Access(0, 0, r.proc.ASID(), loadOp(v), nil)
	if err != nil {
		t.Fatal(err)
	}
	if done < r.clock.Cycles(1500) {
		t.Errorf("access done at %d, before the drain stall", done)
	}
	if r.hier.Downgrades.Value() != 1 {
		t.Error("downgrade not counted")
	}
}

func TestSandboxedTLBInvalidation(t *testing.T) {
	r := newRig(t, false)
	v := r.buffer(t, arch.PageSize)
	if _, err := r.hier.Access(0, 0, r.proc.ASID(), loadOp(v), nil); err != nil {
		t.Fatal(err)
	}
	if r.hier.L1TLB(0).Valid() != 1 {
		t.Fatal("translation not cached")
	}
	r.hier.InvalidateTLBPage(r.proc.ASID(), v.PageOf())
	if r.hier.L1TLB(0).Valid() != 0 {
		t.Error("page invalidation missed")
	}
	if _, err := r.hier.Access(0, 1, r.proc.ASID(), loadOp(v), nil); err != nil {
		t.Fatal(err)
	}
	r.hier.InvalidateTLBAll()
	for cu := 0; cu < 2; cu++ {
		if r.hier.L1TLB(cu).Valid() != 0 {
			t.Error("full invalidation missed")
		}
	}
}

func TestGPUIssuePortLimitsThroughput(t *testing.T) {
	// 64 zero-compute L1-hit ops on one CU cannot finish faster than the
	// port's one-per-cycle rate.
	r := newRig(t, false)
	v := r.buffer(t, arch.PageSize)
	warm := Trace{loadOp(v)}
	var tr Trace
	for i := 0; i < 64; i++ {
		tr = append(tr, loadOp(v))
	}
	prog := &Program{Name: "t", Phases: []Phase{
		{Name: "warm", Traces: []Trace{warm}},
		{Name: "hot", Traces: []Trace{tr}},
	}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.gpu.Cycles() < 64 {
		t.Errorf("64 issue-limited ops finished in %d cycles", r.gpu.Cycles())
	}
}

func TestGPUDistributesTracesAcrossSlots(t *testing.T) {
	// More traces than slots: all must still complete, via dynamic refill.
	r := newRig(t, false) // 2 CUs x 4 waves = 8 slots
	v := r.buffer(t, arch.PageSize)
	var traces []Trace
	for i := 0; i < 50; i++ {
		traces = append(traces, Trace{loadOp(v + arch.Virt(8*i))})
	}
	prog := &Program{Name: "t", Phases: []Phase{{Name: "k", Traces: traces}}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.gpu.OpsDone.Value() != 50 {
		t.Errorf("ops done = %d, want 50", r.gpu.OpsDone.Value())
	}
	if r.gpu.Slots() != 8 {
		t.Errorf("slots = %d", r.gpu.Slots())
	}
}

func TestGPUGeometryValidation(t *testing.T) {
	r := newRig(t, false)
	if _, err := NewGPU(GPUConfig{Clock: r.clock, CUs: 0, WavesPerCU: 1}, r.eng, r.hier); err == nil {
		t.Error("zero CUs should fail")
	}
	if _, err := NewGPU(GPUConfig{Clock: r.clock, CUs: 1, WavesPerCU: 0}, r.eng, r.hier); err == nil {
		t.Error("zero waves should fail")
	}
}
