package bordercontrol_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	bc "bordercontrol"
)

// The facade tests exercise the library the way a downstream user would:
// only through the public API.

func TestWorkloadsAndModes(t *testing.T) {
	ws := bc.Workloads()
	if len(ws) != 7 {
		t.Fatalf("workloads = %v", ws)
	}
	if ws[0] != "backprop" || ws[6] != "pathfinder" {
		t.Errorf("workload order = %v", ws)
	}
	if len(bc.Modes()) != 5 {
		t.Error("five configurations under study")
	}
}

func TestRunPublicAPI(t *testing.T) {
	res, err := bc.Run(bc.BCBCC, bc.ModeratelyThreaded, "lud", bc.DefaultParams(), bc.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyErr != nil {
		t.Errorf("results wrong: %v", res.VerifyErr)
	}
	if res.Cycles == 0 {
		t.Error("no cycles measured")
	}
	if _, err := bc.Run(bc.BCBCC, bc.HighlyThreaded, "nonesuch", bc.DefaultParams(), bc.RunOptions{}); err == nil {
		t.Error("unknown workload should error")
	}
}

// TestReplayPublicAPI: a recording read back from its file replays to the
// live run's Result, and a multi-segment trace is refused (it belongs to
// RunTraceCtx).
func TestReplayPublicAPI(t *testing.T) {
	ctx := context.Background()
	p := bc.DefaultParams()
	rec, err := bc.RecordTrace("pathfinder", p.Scale)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pathfinder.bctrace"
	if err := bc.WriteTraceFile(path, rec); err != nil {
		t.Fatal(err)
	}
	if rec, err = bc.ReadTraceFile(path); err != nil {
		t.Fatal(err)
	}
	live, err := bc.RunCtx(ctx, bc.BCBCC, bc.ModeratelyThreaded, "pathfinder", p, bc.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bc.ReplayCtx(ctx, bc.BCBCC, bc.ModeratelyThreaded, rec, p, bc.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VerifyErr != nil || rep.Render() != live.Render() {
		t.Errorf("replay differs from live (verify %v):\n%s\nvs\n%s", rep.VerifyErr, rep.Render(), live.Render())
	}
	churn, err := bc.GenerateTraffic(bc.TrafficConfig{Shape: "churn", Seed: 1, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.ReplayCtx(ctx, bc.BCBCC, bc.ModeratelyThreaded, churn, p, bc.RunOptions{}); err == nil {
		t.Error("ReplayCtx of a multi-segment trace: want error")
	}
}

func TestTablesPublicAPI(t *testing.T) {
	if !strings.Contains(bc.RenderTable1(), "Border Control") {
		t.Error("table 1 wrong")
	}
	if !strings.Contains(bc.RenderTable2(), "configurations") {
		t.Error("table 2 wrong")
	}
	if !strings.Contains(bc.RenderTable3(bc.DefaultParams()), "700 MHz") {
		t.Error("table 3 wrong")
	}
}

func TestProtectionTableBytes(t *testing.T) {
	// 16 GB -> 1 MB: the 0.006% headline.
	if got := bc.ProtectionTableBytes((16 << 30) / 4096); got != 1<<20 {
		t.Errorf("table bytes = %d", got)
	}
}

func TestMechanismLevelAPI(t *testing.T) {
	store, err := bc.NewStore(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bc.NewProtectionTable(store, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pt.Set(7, bc.PermRW)
	if pt.Lookup(7) != bc.PermRW {
		t.Error("protection table via facade broken")
	}
	cache, err := bc.NewBCC(bc.BCCConfig{Entries: 4, PagesPerEntry: 512, TagBits: 36})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Fill(7, pt); got != bc.PermRW {
		t.Errorf("BCC fill = %v", got)
	}
}

func TestTrojanScenarioPublicAPI(t *testing.T) {
	sys, err := bc.NewSystem(bc.BCBCC, bc.HighlyThreaded, bc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sys.OS.KeepProcessOnViolation = true
	victim, err := sys.OS.NewProcess("victim")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := victim.Mmap(4096, bc.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Write(buf, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	user, err := sys.OS.NewProcess("user")
	if err != nil {
		t.Fatal(err)
	}
	sys.ATS.Activate(sys.Name, user.ASID())
	if err := sys.BC.ProcessStart(user.ASID()); err != nil {
		t.Fatal(err)
	}
	ppn, _ := victim.PPNOf(buf.PageOf())
	trojan := bc.NewTrojan(sys)
	if _, ok := trojan.TryRead(0, ppn.Base()); ok {
		t.Error("trojan read should be blocked under Border Control")
	}
	if len(sys.OS.Violations) == 0 {
		t.Error("violation not reported")
	}
}

func TestUnsafeBaselineIsUnsafe(t *testing.T) {
	sys, err := bc.NewSystem(bc.ATSOnly, bc.HighlyThreaded, bc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := sys.OS.NewProcess("victim")
	buf, _ := victim.Mmap(4096, bc.PermRW)
	if err := victim.Write(buf, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	ppn, _ := victim.PPNOf(buf.PageOf())
	trojan := bc.NewTrojan(sys)
	data, ok := trojan.TryRead(0, ppn.Base())
	if !ok || string(data[:6]) != "secret" {
		t.Error("the ATS-only baseline should NOT stop the trojan — that is the paper's threat")
	}
}

func TestRunCtxCancelledPublicAPI(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := bc.RunCtx(ctx, bc.BCBCC, bc.HighlyThreaded, "bfs", bc.DefaultParams(), bc.RunOptions{})
	var re *bc.RunError
	if !errors.As(err, &re) {
		t.Fatalf("error = %T %v, want *bc.RunError", err, err)
	}
	if re.Workload != "bfs" || !errors.Is(err, context.Canceled) {
		t.Errorf("RunError detail lost: %+v", re)
	}
}

func TestRunAllCancelled(t *testing.T) {
	// A pre-cancelled context: the grid's job list fails, the error names
	// the grid, and no partial artifact slice leaks out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arts, err := bc.RunAll(ctx, bc.Config{})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "grid") {
		t.Errorf("error %q does not name the failing step", err)
	}
	if arts != nil {
		t.Errorf("got %d artifacts alongside the error, want nil", len(arts))
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation sweep")
	}
	var jobs int
	cfg := bc.Config{Exec: bc.Exec{Progress: func(r bc.JobResult) {
		jobs++
		if r.Err != nil {
			t.Errorf("job %s failed: %v", r.Name, r.Err)
		}
	}}}
	arts, err := bc.RunAll(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "security"}
	if len(arts) != len(want) {
		t.Fatalf("got %d artifacts, want %d", len(arts), len(want))
	}
	var text strings.Builder
	for i, a := range arts {
		if a.Name != want[i] {
			t.Errorf("artifact %d = %s, want %s", i, a.Name, want[i])
		}
		text.WriteString(a.Text)
	}
	results, err := os.ReadFile("RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	if text.String() != string(results) {
		t.Errorf("artifacts differ from RESULTS.txt:\n%s", text.String())
	}
	// 70 grid cells, 28 Figure 7 injections and 20 security probes: each
	// distinct simulation runs once.
	if jobs != 118 {
		t.Errorf("progress saw %d jobs, want 118", jobs)
	}
}
