package harness

import (
	"strings"
	"testing"

	"bordercontrol/internal/arch"
)

// TestInjectorRestoreFailureRecorded is the would-fail-before test for the
// downgrader's restore path: the restore Protect used to be `_, _ =`
// discarded, so a workload stranded on read-only pages reported clean
// numbers. The downgrader must record the failure so RunCtx (Figure 7's
// injection) and RunFleetCtx (churn) can fail the run.
func TestInjectorRestoreFailureRecorded(t *testing.T) {
	sys, err := NewSystem(BCBCC, ModeratelyThreaded, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	proc, err := sys.OS.NewProcess("victim")
	if err != nil {
		t.Fatal(err)
	}
	v, err := proc.Mmap(arch.PageSize, arch.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.FaultPage(v.PageOf()); err != nil {
		t.Fatal(err)
	}

	inj := newDowngrader(sys, proc)
	if len(inj.pages) == 0 {
		t.Fatal("downgrader found no writable pages")
	}
	if inj.failure() != nil {
		t.Fatalf("fresh downgrader reports a failure: %v", inj.failure())
	}

	// Healthy round first: downgrade and restore both land.
	inj.injectOnce(0)
	if inj.count != 1 || inj.restoreErrs != 0 || inj.err != nil {
		t.Fatalf("healthy round: count=%d restoreErrs=%d err=%v, want 1/0/nil",
			inj.count, inj.restoreErrs, inj.err)
	}

	// A dead process makes every Protect fail: the downgrade (correctly not
	// counted) and the restore — which must be recorded, not discarded as
	// before the fix.
	sys.OS.Exit(proc)
	inj.injectOnce(1)
	if inj.count != 1 {
		t.Fatalf("dead-process round still counted a downgrade: count=%d", inj.count)
	}
	if inj.restoreErrs != 1 || inj.err == nil {
		t.Fatalf("restore failure not recorded: restoreErrs=%d err=%v", inj.restoreErrs, inj.err)
	}
	if !strings.Contains(inj.err.Error(), "dead process") {
		t.Fatalf("err = %v, want the hostos dead-process cause", inj.err)
	}
	if err := inj.failure(); err == nil || !strings.Contains(err.Error(), "1 restore(s) failed") {
		t.Fatalf("failure() = %v, want the restore count and first cause", err)
	}

	// A second failure keeps the first error (the reproduction pointer).
	first := inj.err
	inj.injectOnce(2)
	if inj.restoreErrs != 2 || inj.err != first {
		t.Fatalf("first error not sticky: restoreErrs=%d err=%v", inj.restoreErrs, inj.err)
	}
}
