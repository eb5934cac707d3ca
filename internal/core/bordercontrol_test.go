package core

import (
	"math/rand"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/sim"
)

// fakeAccel records the flush/invalidate requests Border Control issues.
type fakeAccel struct {
	pageFlushes []arch.PPN
	fullFlushes int
	tlbPage     int
	tlbAll      int
	flushTime   sim.Time // extra time each flush "takes"
	// onFlush lets tests act at flush time (e.g. push writebacks through
	// the border while old permissions are still in force).
	onFlush func(ppn arch.PPN)
}

func (f *fakeAccel) FlushPage(at sim.Time, ppn arch.PPN) sim.Time {
	f.pageFlushes = append(f.pageFlushes, ppn)
	if f.onFlush != nil {
		f.onFlush(ppn)
	}
	return at + f.flushTime
}

func (f *fakeAccel) FlushAll(at sim.Time) sim.Time {
	f.fullFlushes++
	if f.onFlush != nil {
		f.onFlush(0)
	}
	return at + f.flushTime
}

func (f *fakeAccel) InvalidateTLBPage(asid arch.ASID, vpn arch.VPN) { f.tlbPage++ }
func (f *fakeAccel) InvalidateTLBAll()                              { f.tlbAll++ }

type bcEnv struct {
	os   *hostos.OS
	dram *memory.DRAM
	eng  *sim.Engine
	// bc is the flat BorderControl core: for envs built by newBCEnv it IS
	// the design under test; for newDesignEnv it is the embedded core,
	// kept for counter inspection only — protocol calls must go through
	// arch so design overrides apply.
	bc *BorderControl
	// arch is the design under test (equals bc for the flat design).
	arch  ProtectionArchitecture
	accel *fakeAccel
	clock sim.Clock
}

func newBCEnv(t testing.TB, mut func(*Config)) *bcEnv {
	return newDesignEnv(t, DefaultDesign, mut)
}

// newDesignEnv builds the protocol-test environment around any registered
// border design.
func newDesignEnv(t testing.TB, design string, mut func(*Config)) *bcEnv {
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
	eng := &sim.Engine{}
	clock := sim.MustClock(700e6)
	cfg := DefaultConfig(clock)
	if mut != nil {
		mut(&cfg)
	}
	ar, err := NewArchitecture(design, "gpu0", cfg, osm, dram, eng)
	if err != nil {
		t.Fatal(err)
	}
	var bc *BorderControl
	switch d := ar.(type) {
	case *BorderControl:
		bc = d
	case *Sparta:
		bc = d.BorderControl
	case *RangeBorder:
		bc = d.BorderControl
	}
	accel := &fakeAccel{}
	ar.SetAccelerator(accel)
	osm.AddShootdownListener(ar)
	// Most protocol tests deliberately probe the border with violating
	// requests and then continue; keep processes alive so one violation
	// does not cascade into unrelated assertions. The kill policy itself
	// is covered by TestFailClosedKillsProcess.
	osm.KeepProcessOnViolation = true
	return &bcEnv{os: osm, dram: dram, eng: eng, bc: bc, arch: ar, accel: accel, clock: clock}
}

func (e *bcEnv) newProc(t testing.TB) *hostos.Process {
	t.Helper()
	p, err := e.os.NewProcess("proc")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mapPage faults one RW page in and returns its physical page.
func mapPage(t testing.TB, p *hostos.Process) (arch.Virt, arch.PPN) {
	t.Helper()
	v, err := p.Mmap(arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Translate(v, arch.Write); err != nil {
		t.Fatal(err)
	}
	ppn, _ := p.PPNOf(v.PageOf())
	return v, ppn
}

func TestProcessStartAllocatesTable(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	if e.bc.Table() != nil {
		t.Error("table before any process")
	}
	if err := e.bc.ProcessStart(p.ASID()); err != nil {
		t.Fatal(err)
	}
	tbl := e.bc.Table()
	if tbl == nil {
		t.Fatal("no table after start")
	}
	if tbl.BoundPages() != e.os.Store().Pages() {
		t.Error("bounds register should cover physical memory")
	}
	if tbl.SizeBytes() != TableBytes(e.os.Store().Pages()) {
		t.Error("table size wrong")
	}
	if e.bc.ActiveProcesses() != 1 {
		t.Error("use count wrong")
	}
}

func TestFailClosed(t *testing.T) {
	// The core security property: a physical address never produced by the
	// ATS has no permissions, whatever the page tables say (§3.1.1).
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	_, ppn := mapPage(t, p) // mapped RW in the page table, never translated
	if err := e.bc.ProcessStart(p.ASID()); err != nil {
		t.Fatal(err)
	}
	if dec := e.bc.Check(0, p.ASID(), ppn.Base(), arch.Read); dec.Allowed {
		t.Error("read of never-translated page must be blocked")
	}
	if dec := e.bc.Check(0, p.ASID(), ppn.Base(), arch.Write); dec.Allowed {
		t.Error("write of never-translated page must be blocked")
	}
	if e.bc.Violations.Value() != 2 {
		t.Errorf("violations = %d", e.bc.Violations.Value())
	}
	if len(e.os.Violations) != 2 {
		t.Error("OS not notified")
	}
}

func TestFailClosedKillsProcess(t *testing.T) {
	// With the default OS policy, the violation's culprit process is
	// terminated (the OS "can act accordingly", §3.2.3).
	e := newBCEnv(t, nil)
	e.os.KeepProcessOnViolation = false
	p := e.newProc(t)
	_, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.Check(0, p.ASID(), ppn.Base(), arch.Read)
	if !p.Dead() {
		t.Error("violating process should be terminated by default policy")
	}
}

func TestInsertionThenCheck(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	// The ATS notifies Border Control on translation (Figure 3b).
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	if dec := e.bc.Check(0, p.ASID(), ppn.Base()+64, arch.Read); !dec.Allowed {
		t.Error("read after insertion should pass")
	}
	if dec := e.bc.Check(0, p.ASID(), ppn.Base(), arch.Write); !dec.Allowed {
		t.Error("write after RW insertion should pass")
	}
	// A read-only insertion only grants reads.
	v2, err := p.Mmap(arch.PageSize, arch.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Translate(v2, arch.Read); err != nil {
		t.Fatal(err)
	}
	ppn2, _ := p.PPNOf(v2.PageOf())
	e.bc.OnTranslation(0, p.ASID(), v2.PageOf(), ppn2, arch.PermRead, false)
	if dec := e.bc.Check(0, p.ASID(), ppn2.Base(), arch.Read); !dec.Allowed {
		t.Error("read should pass")
	}
	if dec := e.bc.Check(0, p.ASID(), ppn2.Base(), arch.Write); dec.Allowed {
		t.Error("write to read-only page must be blocked")
	}
}

func TestInsertionIgnoresForeignASID(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	other := e.newProc(t)
	_, ppn := mapPage(t, other)
	e.bc.ProcessStart(p.ASID())
	// A translation for a process NOT active on this accelerator must not
	// populate the table.
	e.bc.OnTranslation(0, other.ASID(), 0x100, ppn, arch.PermRW, false)
	if dec := e.bc.Check(0, p.ASID(), ppn.Base(), arch.Read); dec.Allowed {
		t.Error("foreign insertion leaked permissions")
	}
}

func TestBoundsRegister(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	e.bc.ProcessStart(p.ASID())
	beyond := arch.Phys(e.os.Store().Size())
	if dec := e.bc.Check(0, p.ASID(), beyond, arch.Read); dec.Allowed {
		t.Error("beyond-bounds physical address must be blocked")
	}
}

func TestHugePageFanOut(t *testing.T) {
	// A 2 MB translation populates all 512 base-page entries (§3.4.4).
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), 512, 1024, arch.PermRW, true)
	for _, off := range []arch.PPN{0, 1, 100, 511} {
		if dec := e.bc.Check(0, p.ASID(), (1024 + off).Base(), arch.Write); !dec.Allowed {
			t.Errorf("huge fan-out missed page +%d", off)
		}
	}
	if dec := e.bc.Check(0, p.ASID(), arch.PPN(1024+512).Base(), arch.Read); dec.Allowed {
		t.Error("fan-out overshot the huge page")
	}
}

func TestDowngradeFlushOrdering(t *testing.T) {
	// §3.2.4: dirty blocks must be written back BEFORE the table entry is
	// updated, so the writebacks still pass under the old permissions.
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)

	wbAllowed := false
	e.accel.onFlush = func(arch.PPN) {
		// Simulate the flush pushing a dirty block through the border.
		dec := e.bc.Check(e.eng.Now(), p.ASID(), ppn.Base(), arch.Write)
		wbAllowed = dec.Allowed
	}
	if _, err := e.os.Protect(p, v, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if len(e.accel.pageFlushes) != 1 || e.accel.pageFlushes[0] != ppn {
		t.Fatalf("selective flush not requested: %v", e.accel.pageFlushes)
	}
	if !wbAllowed {
		t.Error("writeback during the flush must pass under the OLD permissions")
	}
	// After the downgrade completes, writes are blocked, reads still pass.
	if dec := e.bc.Check(e.eng.Now(), p.ASID(), ppn.Base(), arch.Write); dec.Allowed {
		t.Error("write after downgrade must be blocked")
	}
	if dec := e.bc.Check(e.eng.Now(), p.ASID(), ppn.Base(), arch.Read); !dec.Allowed {
		t.Error("read permission should survive an RW->R downgrade")
	}
	if e.accel.tlbPage == 0 {
		t.Error("accelerator TLB entry not invalidated")
	}
}

func TestReadOnlyDowngradeNeedsNoFlush(t *testing.T) {
	// Copy-on-write style downgrades of read-only pages skip the flush
	// (they cannot be dirty) — the paper's "no extra overhead" case.
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, err := p.Mmap(arch.PageSize, arch.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Translate(v, arch.Read); err != nil {
		t.Fatal(err)
	}
	ppn, _ := p.PPNOf(v.PageOf())
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRead, false)
	if _, err := e.os.Protect(p, v, arch.PageSize, arch.PermNone); err != nil {
		t.Fatal(err)
	}
	if len(e.accel.pageFlushes) != 0 && e.accel.fullFlushes == 0 {
		t.Error("read-only downgrade must not flush caches")
	}
	if dec := e.bc.Check(0, p.ASID(), ppn.Base(), arch.Read); dec.Allowed {
		t.Error("revoked page must be blocked")
	}
}

func TestFullFlushDowngradeVariant(t *testing.T) {
	// §3.2.4's equivalent alternative: flush everything, zero the table.
	e := newBCEnv(t, func(c *Config) { c.SelectiveFlush = false })
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	v2, ppn2 := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	e.bc.OnTranslation(0, p.ASID(), v2.PageOf(), ppn2, arch.PermRW, false)
	if _, err := e.os.Protect(p, v, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	if e.accel.fullFlushes != 1 {
		t.Error("full-flush variant should flush everything")
	}
	if e.accel.tlbAll == 0 {
		t.Error("full-flush variant should flush the TLB")
	}
	// The WHOLE table is zeroed: even the untouched page needs
	// re-insertion (lazily, via the next translation).
	if dec := e.bc.Check(e.eng.Now(), p.ASID(), ppn2.Base(), arch.Read); dec.Allowed {
		t.Error("table should be zeroed wholesale")
	}
}

func TestIgnoredFlushIsStillSafe(t *testing.T) {
	// §3.2.4: "Even if the accelerator ignores the request to flush its
	// caches, there is no security vulnerability" — its later writeback is
	// caught at the border.
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	e.accel.onFlush = nil // accelerator silently ignores the flush
	if _, err := e.os.Protect(p, v, arch.PageSize, arch.PermRead); err != nil {
		t.Fatal(err)
	}
	// The (never flushed) dirty block is written back later: blocked.
	if dec := e.bc.Check(e.eng.Now(), p.ASID(), ppn.Base(), arch.Write); dec.Allowed {
		t.Error("late writeback after downgrade must be blocked")
	}
}

func TestProcessCompleteRevokesEverything(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	inUse := e.os.Frames().InUse()
	e.bc.ProcessComplete(0, p.ASID())
	if e.accel.fullFlushes != 1 || e.accel.tlbAll != 1 {
		t.Error("completion must flush caches and TLB")
	}
	if e.bc.Table() != nil {
		t.Error("idle accelerator should release its table")
	}
	if e.os.Frames().InUse() >= inUse {
		t.Error("table frames not reclaimed")
	}
	if e.bc.ActiveProcesses() != 0 {
		t.Error("use count wrong")
	}
	// Completion of a process that never started is a no-op.
	e.bc.ProcessComplete(0, 9999)
}

func TestMultiprocessUnion(t *testing.T) {
	// §3.3: with multiple processes, checks pass against the union of
	// permissions; completion zeroes the shared table.
	e := newBCEnv(t, nil)
	a := e.newProc(t)
	b := e.newProc(t)
	va, ppnA := mapPage(t, a)
	vb, ppnB := mapPage(t, b)
	if err := e.bc.ProcessStart(a.ASID()); err != nil {
		t.Fatal(err)
	}
	if err := e.bc.ProcessStart(b.ASID()); err != nil {
		t.Fatal(err)
	}
	if e.bc.ActiveProcesses() != 2 {
		t.Fatal("use count wrong")
	}
	e.bc.OnTranslation(0, a.ASID(), va.PageOf(), ppnA, arch.PermRW, false)
	e.bc.OnTranslation(0, b.ASID(), vb.PageOf(), ppnB, arch.PermRead, false)
	// Both processes' pages are accessible through the one border.
	if !e.bc.Check(0, a.ASID(), ppnA.Base(), arch.Write).Allowed {
		t.Error("A's page should be writable")
	}
	if !e.bc.Check(0, b.ASID(), ppnB.Base(), arch.Read).Allowed {
		t.Error("B's page should be readable")
	}
	// Union semantics: B may write A's page — permission is per-table, not
	// per-ASID; the ASID only attributes violations (paper §3.3).
	if !e.bc.Check(0, b.ASID(), ppnA.Base(), arch.Write).Allowed {
		t.Error("union semantics: B's request to A's page must pass")
	}
	if e.bc.Check(0, b.ASID(), ppnB.Base(), arch.Write).Allowed {
		t.Error("B's read-only page must not be writable")
	}
	// A completes: the WHOLE table is zeroed (B re-faults lazily).
	e.bc.ProcessComplete(0, a.ASID())
	if e.bc.Table() == nil {
		t.Fatal("table must survive while B is active")
	}
	if e.bc.Check(0, b.ASID(), ppnB.Base(), arch.Read).Allowed {
		t.Error("completion must revoke even the other process's entries")
	}
	e.bc.OnTranslation(0, b.ASID(), vb.PageOf(), ppnB, arch.PermRead, false)
	if !e.bc.Check(0, b.ASID(), ppnB.Base(), arch.Read).Allowed {
		t.Error("B's re-insertion should restore access")
	}
}

func TestEagerPopulate(t *testing.T) {
	e := newBCEnv(t, func(c *Config) { c.EagerPopulate = true })
	p := e.newProc(t)
	_, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	// No translation ever happened, but eager population pre-filled the
	// table from the process's mapped pages.
	if !e.bc.Check(0, p.ASID(), ppn.Base(), arch.Write).Allowed {
		t.Error("eager population missed a mapped page")
	}
}

func TestDisableOnViolation(t *testing.T) {
	e := newBCEnv(t, func(c *Config) { c.DisableOnViolation = true })
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	if !e.bc.Check(0, p.ASID(), ppn.Base(), arch.Read).Allowed {
		t.Fatal("legitimate access should pass")
	}
	e.bc.Check(0, p.ASID(), arch.Phys(0xdead000), arch.Read) // violation
	if !e.bc.Disabled() {
		t.Fatal("border should disable after violation")
	}
	// Even previously-legitimate traffic is now refused.
	if e.bc.Check(0, p.ASID(), ppn.Base(), arch.Read).Allowed {
		t.Error("disabled accelerator must be shut out entirely")
	}
}

func TestNoBCCMode(t *testing.T) {
	e := newBCEnv(t, func(c *Config) { c.UseBCC = false })
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	if e.bc.Cache() != nil {
		t.Fatal("noBCC mode should have no cache")
	}
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	if !e.bc.Check(0, p.ASID(), ppn.Base(), arch.Write).Allowed {
		t.Error("noBCC check should pass via the table")
	}
	if e.bc.TableReads.Value() == 0 {
		t.Error("noBCC checks must read the table")
	}
}

func TestCheckTimingParallelism(t *testing.T) {
	// A BCC hit completes in BCCLatency; the read data path then dominates
	// (the max() in the border port). Verify the decision time is exactly
	// the configured latency.
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	at := sim.Time(1000000)
	dec := e.bc.Check(at, p.ASID(), ppn.Base(), arch.Read)
	if !dec.Allowed {
		t.Fatal("check should pass")
	}
	if dec.Done != at+e.clock.Cycles(10) {
		t.Errorf("BCC-hit decision at %d, want %d", dec.Done, at+e.clock.Cycles(10))
	}
}

func TestTraceSink(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	v, ppn := mapPage(t, p)
	e.bc.ProcessStart(p.ASID())
	var evs []TraceEvent
	e.bc.TraceSink = func(ev TraceEvent) { evs = append(evs, ev) }
	e.bc.OnTranslation(0, p.ASID(), v.PageOf(), ppn, arch.PermRW, false)
	e.bc.Check(0, p.ASID(), ppn.Base(), arch.Write)
	if len(evs) != 2 || !evs[0].Insert || evs[1].Insert {
		t.Fatalf("trace = %+v", evs)
	}
	if evs[0].PPN != ppn || evs[1].PPN != ppn {
		t.Errorf("trace contents wrong: %+v", evs)
	}
}

// TestRandomizedAgainstReference drives random translate / check /
// downgrade / revoke sequences against a pure-map reference model of the
// paper's invariant (DESIGN.md §7): Border Control's decision must always
// equal the reference's, and in particular must fail closed for pages the
// ATS never produced.
func TestRandomizedAgainstReference(t *testing.T) {
	e := newBCEnv(t, nil)
	p := e.newProc(t)
	e.bc.ProcessStart(p.ASID())

	const pages = 64
	base, err := p.Mmap(pages*arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	ppns := make([]arch.PPN, pages)
	for i := 0; i < pages; i++ {
		if _, err := p.Translate(base+arch.Virt(i*arch.PageSize), arch.Write); err != nil {
			t.Fatal(err)
		}
		ppns[i], _ = p.PPNOf(base.PageOf() + arch.VPN(i))
	}

	ref := make(map[arch.PPN]arch.Perm) // the reference protection table
	osPerm := make([]arch.Perm, pages)  // current page-table permissions
	for i := range osPerm {
		osPerm[i] = arch.PermRW
	}

	rng := rand.New(rand.NewSource(2015))
	for step := 0; step < 4000; step++ {
		i := rng.Intn(pages)
		vpn := base.PageOf() + arch.VPN(i)
		ppn := ppns[i]
		switch rng.Intn(6) {
		case 0, 1: // ATS translation: insert current OS permissions
			e.bc.OnTranslation(0, p.ASID(), vpn, ppn, osPerm[i], false)
			ref[ppn] |= osPerm[i].Border()
		case 2, 3: // check
			kind := arch.Read
			if rng.Intn(2) == 0 {
				kind = arch.Write
			}
			want := ref[ppn].Allows(kind.Need())
			got := e.bc.Check(e.eng.Now(), p.ASID(), ppn.Base(), kind).Allowed
			if got != want {
				t.Fatalf("step %d: check(%d,%v) = %v, reference says %v", step, ppn, kind, got, want)
			}
		case 4: // OS downgrade RW->R or R->none
			var to arch.Perm
			if osPerm[i] == arch.PermRW {
				to = arch.PermRead
			} else if osPerm[i] == arch.PermRead {
				to = arch.PermNone
			} else {
				continue
			}
			if _, err := e.os.Protect(p, vpn.Base(), arch.PageSize, to); err != nil {
				t.Fatal(err)
			}
			osPerm[i] = to
			ref[ppn] = to.Border()
			// A downgrade to PermNone in the reference still shows none
			// even if never inserted; Set in BC only applies if in table —
			// reference matches because ref[ppn] is overwritten.
		case 5: // OS upgrade back to RW (no shootdown; table NOT widened)
			if osPerm[i] != arch.PermRW {
				if _, err := e.os.Protect(p, vpn.Base(), arch.PageSize, arch.PermRW); err != nil {
					t.Fatal(err)
				}
				osPerm[i] = arch.PermRW
				// The border learns of upgrades only through the ATS.
			}
		}
		// Global invariant: the border never grants more than the union of
		// what the ATS has reported since the last revocation.
		if step%500 == 0 {
			for j, pp := range ppns {
				got := e.bc.Table().Lookup(pp)
				if got&^ref[pp] != 0 {
					t.Fatalf("step %d: table grants %v to page %d, reference allows %v", step, got, j, ref[pp])
				}
			}
		}
	}
}
