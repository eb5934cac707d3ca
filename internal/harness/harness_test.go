package harness

import (
	"context"
	"strings"
	"testing"

	"bordercontrol/internal/sim"
	"bordercontrol/internal/workload"
)

func TestModeProperties(t *testing.T) {
	if len(Modes()) != 5 || len(SafeModes()) != 4 {
		t.Fatal("mode lists wrong")
	}
	if ATSOnly.Safe() {
		t.Error("the baseline is unsafe by definition")
	}
	for _, m := range SafeModes() {
		if !m.Safe() {
			t.Errorf("%v should be safe", m)
		}
	}
	if ATSOnly.String() == "" || Mode(99).String() == "" {
		t.Error("String() must always print")
	}
}

func TestTablesRender(t *testing.T) {
	t1 := RenderTable1()
	for _, want := range []string{"Border Control", "TrustZone", "CAPI", "yes", "no"} {
		if !strings.Contains(t1, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
	if len(Table1()) != 5 {
		t.Error("table 1 should have five approaches")
	}
	// Border Control is the only row with all three properties.
	for _, r := range Table1() {
		all := r.ProtectsOS && r.BetweenProcesses && r.DirectPhysAccess
		if all != (r.Approach == "Border Control") {
			t.Errorf("row %q: paper's table 1 claim violated", r.Approach)
		}
	}
	t2 := RenderTable2()
	if !strings.Contains(t2, "Border Control-BCC") || !strings.Contains(t2, "ATS-only") {
		t.Error("table 2 incomplete")
	}
	t3 := RenderTable3(DefaultParams())
	for _, want := range []string{"700 MHz", "180 GB/s", "8 KB", "1024 KB", "512 entries"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table 3 missing %q:\n%s", want, t3)
		}
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.PhysMemBytes != 16<<30 {
		t.Error("paper simulates 16 GB")
	}
	if p.GPUHz != 700e6 || p.CPUHz != 3e9 {
		t.Error("clock frequencies off")
	}
	if p.HighCUs != 8 || p.ModCUs != 1 {
		t.Error("GPU core counts off")
	}
	if p.HighL2Bytes != 256<<10 || p.ModL2Bytes != 64<<10 {
		t.Error("L2 sizes off")
	}
	if p.BCC.Entries != 64 || p.BCC.PagesPerEntry != 512 {
		t.Error("BCC geometry off")
	}
	if p.DRAM.BandwidthBytesPerSec != 180e9 {
		t.Error("bandwidth off")
	}
}

func TestRunReportsStatistics(t *testing.T) {
	spec, _ := workload.ByName("pathfinder")
	res, err := RunCtx(context.Background(), BCBCC, HighlyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "pathfinder" || res.Mode != BCBCC || res.Class != HighlyThreaded {
		t.Error("identity fields wrong")
	}
	if res.Cycles == 0 || res.Ops == 0 || res.Runtime == 0 {
		t.Error("zero measurements")
	}
	if res.BCChecks == 0 {
		t.Error("BC mode must check requests")
	}
	if res.RequestsPerCycle() <= 0 || res.RequestsPerCycle() > 2 {
		t.Errorf("req/cycle = %v, implausible", res.RequestsPerCycle())
	}
	if res.VerifyErr != nil {
		t.Errorf("results wrong: %v", res.VerifyErr)
	}
	if res.DRAMUtilization <= 0 || res.DRAMUtilization > 1 {
		t.Errorf("dram util = %v", res.DRAMUtilization)
	}
}

func TestRunBaselineHasNoChecks(t *testing.T) {
	spec, _ := workload.ByName("pathfinder")
	res, err := RunCtx(context.Background(), ATSOnly, HighlyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BCChecks != 0 || res.BCCMissRatio != 0 {
		t.Error("baseline reported BC statistics")
	}
	if res.RequestsPerCycle() != 0 {
		t.Error("baseline req/cycle should be zero")
	}
}

func TestFixedDowngradeInjection(t *testing.T) {
	spec, _ := workload.ByName("pathfinder")
	quiet, err := RunCtx(context.Background(), BCBCC, HighlyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), BCBCC, HighlyThreaded, spec, DefaultParams(), RunOptions{
		FixedDowngrades: 10,
		SpreadOver:      quiet.Runtime,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Downgrades != 10 {
		t.Errorf("injected %d downgrades, want exactly 10", res.Downgrades)
	}
	if res.Cycles <= quiet.Cycles {
		t.Error("downgrades should cost time")
	}
	if res.VerifyErr != nil {
		t.Errorf("downgrades corrupted results: %v", res.VerifyErr)
	}
}

func TestDowngradeCostOrdering(t *testing.T) {
	// The paper's Figure 7 relationship: Border Control pays more per
	// downgrade than the trusted baseline (it also flushes caches and
	// updates the table), and both costs are bounded.
	spec, _ := workload.ByName("pathfinder")
	cost := func(mode Mode) sim.Time {
		quiet, err := RunCtx(context.Background(), mode, HighlyThreaded, spec, DefaultParams(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inj, err := RunCtx(context.Background(), mode, HighlyThreaded, spec, DefaultParams(), RunOptions{
			FixedDowngrades: 20, SpreadOver: quiet.Runtime,
		})
		if err != nil {
			t.Fatal(err)
		}
		if inj.Downgrades == 0 {
			t.Fatal("nothing injected")
		}
		return (inj.Runtime - quiet.Runtime) / sim.Time(inj.Downgrades)
	}
	bcCost, baseCost := cost(BCBCC), cost(ATSOnly)
	if bcCost <= baseCost {
		t.Errorf("BC per-downgrade cost %d <= baseline %d; BC must pay the extra flush", bcCost, baseCost)
	}
	if bcCost > 20*sim.Microsecond {
		t.Errorf("per-downgrade cost %d ps is implausibly large", bcCost)
	}
}

func TestUnknownModePanicsNewSystem(t *testing.T) {
	if _, err := NewSystem(Mode(42), HighlyThreaded, DefaultParams()); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestCSVExports(t *testing.T) {
	f4 := Figure4Result{
		Class: HighlyThreaded,
		Rows: []Figure4Row{{
			Workload:  "bfs",
			Baseline:  100,
			Cycles:    map[Mode]uint64{FullIOMMU: 400, CAPILike: 110, BCNoBCC: 105, BCBCC: 100},
			Overheads: map[Mode]float64{FullIOMMU: 3, CAPILike: 0.1, BCNoBCC: 0.05, BCBCC: 0},
		}},
		GeoMean: map[Mode]float64{FullIOMMU: 3, CAPILike: 0.1, BCNoBCC: 0.05, BCBCC: 0},
	}
	csv := f4.CSV()
	if !strings.Contains(csv, "bfs,IOMMU,100,400,3.000000") {
		t.Errorf("figure 4 CSV wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "geomean,BC-BCC") {
		t.Error("figure 4 CSV missing geomean rows")
	}
	f5 := Figure5Result{Rows: []Figure5Row{{Workload: "bfs", Checks: 10, Cycles: 100, RequestsPerCycle: 0.1}}, Average: 0.1}
	if !strings.Contains(f5.CSV(), "bfs,10,100,0.100000") {
		t.Error("figure 5 CSV wrong")
	}
	f6 := Figure6Result{
		PagesPerEntry: []int{512},
		Curves:        map[int][]Figure6Point{512: {{Entries: 2, SizeBytes: 265, MissRatio: 0.001}}},
	}
	if !strings.Contains(f6.CSV(), "512,2,265.0,0.001000") {
		t.Error("figure 6 CSV wrong")
	}
	f7 := Figure7Result{Points: []Figure7Point{{Mode: BCBCC, Class: HighlyThreaded, DowngradesPerSec: 1000, Overhead: 0.002}}}
	if !strings.Contains(f7.CSV(), "BC-BCC,highly threaded,1000,0.002000") {
		t.Error("figure 7 CSV wrong")
	}
}

func TestSecurityMatrix(t *testing.T) {
	results, err := SecurityMatrix(context.Background(), Exec{}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(SecurityConfigs())*len(Attacks()) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		switch r.Config {
		case "ATS-only":
			if r.Blocked {
				t.Errorf("the unsafe baseline unexpectedly blocked %s — the threat would not exist", r.Attack)
			}
		case "TrustZone":
			// TrustZone protects the secure world only (paper Table 1):
			// it blocks the OS probe and nothing between processes.
			wantBlocked := r.Attack == AttackSecureRead
			if r.Blocked != wantBlocked {
				t.Errorf("TrustZone on %s: blocked=%v, want %v (%s)", r.Attack, r.Blocked, wantBlocked, r.Detail)
			}
		case "BC-noBCC", "BC-BCC":
			if !r.Blocked {
				t.Errorf("%s failed to block %s: %s", r.Config, r.Attack, r.Detail)
			}
		}
	}
	rendered := RenderSecurityMatrix(results)
	if !strings.Contains(rendered, "BLOCKED") || !strings.Contains(rendered, "VULNERABLE") {
		t.Errorf("render incomplete:\n%s", rendered)
	}
}
