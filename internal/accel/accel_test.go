package accel

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/ats"
	"bordercontrol/internal/coherence"
	"bordercontrol/internal/core"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/sim"
)

// rig is a hand-wired miniature system: OS, ATS, directory, DRAM, one
// sandboxed hierarchy with (optionally) Border Control, and a GPU.
type rig struct {
	eng   *sim.Engine
	os    *hostos.OS
	ats   *ats.ATS
	dir   *coherence.Directory
	dram  *memory.DRAM
	bc    *core.BorderControl // nil when safe == false
	hier  *Sandboxed
	gpu   *GPU
	clock sim.Clock
	proc  *hostos.Process
}

// atsInvalidate forwards shootdowns to the trusted L2 TLB (the wiring the
// harness performs in real systems).
type atsInvalidate struct{ ats *ats.ATS }

func (a atsInvalidate) OnDowngrade(d hostos.Downgrade) { a.ats.InvalidatePage(d.ASID, d.VPN) }

func newRig(t testing.TB, safe bool) *rig {
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
	eng := &sim.Engine{}
	atsvc, err := ats.New(ats.DefaultConfig(clock), osm, dram)
	if err != nil {
		t.Fatal(err)
	}
	dir := coherence.NewDirectory(store)
	osm.AddShootdownListener(atsInvalidate{atsvc})

	// bc stays a concrete *core.BorderControl for the rig's counter
	// assertions; port wiring takes the interface, which must be nil (not
	// a typed-nil pointer) in the unchecked configuration.
	var bc *core.BorderControl
	var guard core.ProtectionArchitecture
	if safe {
		bc, err = core.New("gpu0", core.DefaultConfig(clock), osm, dram, eng)
		if err != nil {
			t.Fatal(err)
		}
		atsvc.AddObserver(bc)
		guard = bc
	}
	agent := dir.ReserveAgent()
	port := NewBorderPort(guard, dir, agent, dram, clock.Cycles(4))
	hier, err := NewSandboxed(DefaultSandboxConfig("gpu0", clock, 2, 64<<10), eng, atsvc, port)
	if err != nil {
		t.Fatal(err)
	}
	dir.BindAgent(agent, hier)
	if bc != nil {
		bc.SetAccelerator(hier)
		osm.AddShootdownListener(hier)
		osm.AddShootdownListener(bc)
	} else {
		osm.AddShootdownListener(hier)
	}
	gpu, err := NewGPU(GPUConfig{Name: "gpu0", Clock: clock, CUs: 2, WavesPerCU: 4}, eng, hier)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := osm.NewProcess("p")
	if err != nil {
		t.Fatal(err)
	}
	atsvc.Activate("gpu0", proc.ASID())
	if bc != nil {
		if err := bc.ProcessStart(proc.ASID()); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{eng: eng, os: osm, ats: atsvc, dir: dir, dram: dram, bc: bc,
		hier: hier, gpu: gpu, clock: clock, proc: proc}
}

// buffer allocates and faults an n-byte RW region.
func (r *rig) buffer(t testing.TB, n uint64) arch.Virt {
	t.Helper()
	v, err := r.proc.Mmap(n, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.proc.Write(v, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	return v
}

// appendStore appends a store of data at addr to trace, writing its
// payload into the phase's arena.
func appendStore(ph *Phase, trace Trace, addr arch.Virt, data []byte) Trace {
	ref, ok := PayloadAt(len(ph.Data))
	if !ok {
		panic("phase payload arena overflows Op.Payload")
	}
	ph.Data = append(ph.Data, data...)
	return append(trace, Op{Kind: arch.Write, Size: uint8(len(data)), Addr: addr, Payload: ref})
}

// storePhase is a one-wavefront phase holding a single store of data at
// addr.
func storePhase(name string, addr arch.Virt, data []byte) Phase {
	ph := Phase{Name: name}
	ph.Traces = []Trace{appendStore(&ph, nil, addr, data)}
	return ph
}

func loadOp(addr arch.Virt) Op {
	return Op{Kind: arch.Read, Size: 8, Addr: addr}
}

func TestStoreReachesMemoryThroughHierarchy(t *testing.T) {
	// A store lands in the (dirty) L2 and reaches host memory only after
	// the final drain — through the checked border.
	r := newRig(t, true)
	v := r.buffer(t, arch.PageSize)
	prog := &Program{
		Name:   "t",
		Phases: []Phase{storePhase("k", v, []byte("sandboxed!"))},
	}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if err := r.gpu.Err(); err != nil {
		t.Fatal(err)
	}
	var got [10]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "sandboxed!" {
		t.Errorf("memory = %q", got[:])
	}
	if r.bc.Checks.Value() == 0 {
		t.Error("nothing was checked at the border")
	}
}

func TestLoadHitsCaches(t *testing.T) {
	r := newRig(t, false)
	v := r.buffer(t, arch.PageSize)
	// Two loads of the same address: second hits L1.
	trace := Trace{loadOp(v), loadOp(v)}
	prog := &Program{Name: "t", Phases: []Phase{{Name: "k", Traces: []Trace{trace}}}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	l1 := r.hier.L1(0)
	if l1.HitMiss.Hits.Value() != 1 || l1.HitMiss.Misses.Value() != 1 {
		t.Errorf("L1 hits=%d misses=%d, want 1/1", l1.HitMiss.Hits.Value(), l1.HitMiss.Misses.Value())
	}
}

func TestWavefrontsRunConcurrently(t *testing.T) {
	// Eight single-op traces across 2 CUs x 4 waves: the run must take far
	// less than 8 serial misses.
	r := newRig(t, false)
	v := r.buffer(t, 8*arch.PageSize)
	var traces []Trace
	for i := 0; i < 8; i++ {
		traces = append(traces, Trace{loadOp(v + arch.Virt(i*arch.PageSize))})
	}
	prog := &Program{Name: "t", Phases: []Phase{{Name: "k", Traces: traces}}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.gpu.Err() != nil {
		t.Fatal(r.gpu.Err())
	}
	serial := 8 * uint64(400) // ~8 serial translations+misses in cycles
	if r.gpu.Cycles() > serial {
		t.Errorf("run took %d cycles; wavefronts are not overlapping", r.gpu.Cycles())
	}
	if r.gpu.OpsDone.Value() != 8 {
		t.Errorf("ops done = %d", r.gpu.OpsDone.Value())
	}
}

func TestPhaseBarrier(t *testing.T) {
	// Phase 2 must observe phase 1's stores: a load in phase 2 of a
	// location stored in phase 1 comes from the cache hierarchy coherently.
	r := newRig(t, true)
	v := r.buffer(t, arch.PageSize)
	prog := &Program{Name: "t", Phases: []Phase{
		storePhase("k1", v, []byte{0xAA}),
		{Name: "k2", Traces: []Trace{{loadOp(v)}}},
	}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.gpu.Err() != nil {
		t.Fatal(r.gpu.Err())
	}
	if !r.gpu.Finished() {
		t.Fatal("program did not finish")
	}
	var b [1]byte
	if err := r.proc.Read(v, b[:]); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xAA {
		t.Error("phase 1 store lost")
	}
}

func TestGPUAbortsOnSegfault(t *testing.T) {
	r := newRig(t, true)
	// Address in no VMA: the ATS fault fails, the GPU aborts.
	prog := &Program{Name: "t", Phases: []Phase{{Name: "k", Traces: []Trace{{loadOp(0x10)}}}}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.gpu.Err() == nil {
		t.Fatal("expected abort")
	}
	if !r.gpu.Finished() {
		t.Error("aborted GPU should still report finished")
	}
}

func TestTrojanBlockedBySandbox(t *testing.T) {
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	v := r.buffer(t, arch.PageSize)
	ppn, _ := r.proc.PPNOf(v.PageOf())
	trojan := NewTrojan(r.hier.Border())
	if _, ok := trojan.TryRead(0, ppn.Base()); ok {
		t.Error("trojan read of untranslated page must be blocked")
	}
	if ok := trojan.TryWrite(0, ppn.Base(), [arch.BlockSize]byte{1}); ok {
		t.Error("trojan write must be blocked")
	}
	if len(r.os.Violations) == 0 {
		t.Error("OS not notified")
	}
}

func TestTrojanSucceedsWithoutSandbox(t *testing.T) {
	r := newRig(t, false)
	v := r.buffer(t, arch.PageSize)
	if err := r.proc.Write(v, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	ppn, _ := r.proc.PPNOf(v.PageOf())
	trojan := NewTrojan(r.hier.Border())
	data, ok := trojan.TryRead(0, ppn.Base())
	if !ok || !bytes.HasPrefix(data[:], []byte("secret")) {
		t.Error("unsafe baseline should let the trojan read")
	}
	var evil [arch.BlockSize]byte
	copy(evil[:], "pwned")
	if !trojan.TryWrite(0, ppn.Base(), evil) {
		t.Error("unsafe baseline should let the trojan write")
	}
	var got [5]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "pwned" {
		t.Error("trojan write did not land (it should, without BC)")
	}
}

func TestStaleTLBBugIsContained(t *testing.T) {
	// A buggy accelerator ignores TLB shootdowns (paper §2.1's incorrect
	// shootdown example). After the OS revokes the page, its stale-
	// translation writebacks are caught at the border.
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	v := r.buffer(t, arch.PageSize)
	ppn, _ := r.proc.PPNOf(v.PageOf())
	buggy := NewBuggyShootdown(r.hier)
	r.bc.SetAccelerator(buggy) // BC's invalidations now go nowhere

	// Legitimate warm-up: translate and write.
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, 0); err != nil {
		t.Fatal(err)
	}
	if !r.bc.Check(0, r.proc.ASID(), ppn.Base(), arch.Write).Allowed {
		t.Fatal("legitimate write should pass")
	}
	// The OS revokes the page entirely.
	if _, err := r.os.Protect(r.proc, v, arch.PageSize, arch.PermNone); err != nil {
		t.Fatal(err)
	}
	// The buggy accelerator still holds the stale translation and tries to
	// write: blocked at the border regardless.
	if r.bc.Check(r.eng.Now(), r.proc.ASID(), ppn.Base(), arch.Write).Allowed {
		t.Error("stale-TLB write after revocation must be blocked")
	}
}

func TestFlushIgnorerIsContained(t *testing.T) {
	// §3.2.4: an accelerator that refuses to flush on downgrade cannot
	// corrupt memory — the late writeback is blocked, memory keeps the
	// pre-downgrade value.
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	v := r.buffer(t, arch.PageSize)
	if err := r.proc.Write(v, []byte("original")); err != nil {
		t.Fatal(err)
	}
	ppn, _ := r.proc.PPNOf(v.PageOf())
	ignorer := NewFlushIgnorer(r.hier)
	r.bc.SetAccelerator(ignorer)

	// The accelerator legitimately dirties the block in its cache.
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, 0); err != nil {
		t.Fatal(err)
	}
	pa := ppn.Base()
	if _, err := r.hier.store(0, 0, r.proc.ASID(), pa, []byte("tampered")); err != nil {
		t.Fatal(err)
	}
	if !r.hier.L2().IsDirty(pa) {
		t.Fatal("block should be dirty in the accelerator cache")
	}
	// Downgrade to read-only; the ignorer skips the flush.
	if _, err := r.os.Protect(r.proc, v, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	// The dirty block eventually tries to write back: blocked.
	blocked := 0
	for _, db := range r.hier.L2().FlushAll() {
		db := db
		if _, ok := r.hier.Border().WriteBlock(r.eng.Now(), r.proc.ASID(), db.Addr, &db.Data); !ok {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatal("late writeback was not blocked")
	}
	var got [8]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "original" {
		t.Errorf("memory = %q; the blocked writeback must not land", got[:])
	}
}

func TestDowngradeFlushWritesBackThroughBorder(t *testing.T) {
	// The cooperative case: the selective flush pushes dirty data to
	// memory BEFORE the table update, so nothing is lost.
	r := newRig(t, true)
	v := r.buffer(t, arch.PageSize)
	ppn, _ := r.proc.PPNOf(v.PageOf())
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), v, arch.Write, 0); err != nil {
		t.Fatal(err)
	}
	pa := ppn.Base()
	if _, err := r.hier.store(0, 0, r.proc.ASID(), pa, []byte("flushed!")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.os.Protect(r.proc, v, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if r.hier.L2().IsDirty(pa) {
		t.Error("downgrade flush left the block dirty")
	}
	var got [8]byte
	if err := r.proc.Read(v, got[:]); err != nil {
		t.Fatal(err)
	}
	if string(got[:]) != "flushed!" {
		t.Errorf("memory = %q; the flush must persist dirty data", got[:])
	}
	if r.os.Shootdowns == 0 {
		t.Error("no shootdown recorded")
	}
}

func TestUpgradePathChecked(t *testing.T) {
	// A store to a block previously filled for reading crosses the border
	// as an ownership upgrade and is write-checked.
	r := newRig(t, true)
	r.os.KeepProcessOnViolation = true
	ro, err := r.proc.Mmap(arch.PageSize, arch.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.proc.Translate(ro, arch.Read); err != nil {
		t.Fatal(err)
	}
	ppn, _ := r.proc.PPNOf(ro.PageOf())
	if _, err := r.ats.Translate("gpu0", r.proc.ASID(), ro, arch.Read, 0); err != nil {
		t.Fatal(err)
	}
	pa := ppn.Base()
	// Fill for reading...
	if _, err := r.hier.load(0, 0, r.proc.ASID(), pa); err != nil {
		t.Fatal(err)
	}
	// ...then a (buggy) store to the read-only page: the upgrade or the
	// eventual writeback is blocked; either way memory stays clean.
	if _, err := r.hier.store(0, 0, r.proc.ASID(), pa, []byte{0x66}); err == nil {
		t.Error("store to read-only block should fail at the border")
	}
	if r.bc.Violations.Value() == 0 {
		t.Error("no violation recorded")
	}
}

func TestGPURejectsDoubleLaunch(t *testing.T) {
	r := newRig(t, false)
	v := r.buffer(t, arch.PageSize)
	prog := &Program{Name: "t", Phases: []Phase{{Name: "k", Traces: []Trace{{loadOp(v)}}}}}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err == nil {
		t.Error("second launch while running should fail")
	}
	r.eng.Run()
	// After finishing, relaunch is fine.
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Errorf("relaunch after finish: %v", err)
	}
	r.eng.Run()
}

func TestEmptyProgram(t *testing.T) {
	r := newRig(t, false)
	prog := &Program{Name: "empty"}
	if err := r.gpu.Launch(prog, r.proc.ASID()); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !r.gpu.Finished() || r.gpu.Err() != nil {
		t.Error("empty program should finish cleanly")
	}
}

func TestProgramCounters(t *testing.T) {
	p := &Program{Phases: []Phase{
		{Traces: []Trace{{loadOp(0), {Kind: arch.Write, Size: 1}}}},
		{Traces: []Trace{{loadOp(8)}}},
	}}
	if p.Ops() != 3 {
		t.Errorf("ops = %d", p.Ops())
	}
	if p.Reads() != 2 {
		t.Errorf("reads = %d", p.Reads())
	}
}

// TestOpLayout pins the packed op: 16 bytes and no pointer fields, so a
// trace is one flat array that fits four ops to a host cache line and that
// the GC never scans.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 16 {
		t.Errorf("Op is %d bytes, want 16", n)
	}
	typ := reflect.TypeOf(Op{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Op.%s is a %s; an op holds only integers", f.Name, f.Type.Kind())
		}
	}
}

func TestOpBytes(t *testing.T) {
	var ph Phase
	ph.Data = []byte{9, 9}
	tr := appendStore(&ph, nil, 0, []byte{1, 2, 3})
	if got := opBytes(&tr[0], ph.Data); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("opBytes = %v", got)
	}
	if tr[0].Payload != 3 || !bytes.Equal(ph.Data, []byte{9, 9, 1, 2, 3}) {
		t.Errorf("payload ref %d into arena %v, want 3 into [9 9 1 2 3]", tr[0].Payload, ph.Data)
	}
	// A store without payload (hand-written test traces) yields zeros of
	// the op's size.
	got := opBytes(&Op{Kind: arch.Write, Size: 4}, ph.Data)
	if len(got) != 4 || !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("fallback = %v, want 4 zero bytes", got)
	}
	// A zero-length payload stays a payload: it writes nothing.
	tr = appendStore(&ph, tr, 0, nil)
	if got := opBytes(&tr[1], ph.Data); len(got) != 0 {
		t.Errorf("empty payload = %v", got)
	}
}
