package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"bordercontrol/internal/core"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/workload"
)

// The figure tests regenerate each paper artifact and assert the SHAPE the
// paper reports — the orderings and rough magnitudes EXPERIMENTS.md
// documents — so a regression that silently flattens a result fails CI,
// not just eyeballing.

func TestFigure4Highly(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	res, err := Figure4(context.Background(), Exec{}, HighlyThreaded, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	g := res.GeoMean
	// Paper Figure 4a: IOMMU 374% >> CAPI 3.81% > noBCC 2.04% > BCC 0.15%.
	if g[FullIOMMU] < 1.0 {
		t.Errorf("full IOMMU geomean %.1f%%: should be catastrophic (>100%%)", g[FullIOMMU]*100)
	}
	if g[FullIOMMU] < 5*g[CAPILike] {
		t.Errorf("IOMMU (%.1f%%) should dwarf CAPI (%.1f%%)", g[FullIOMMU]*100, g[CAPILike]*100)
	}
	if g[CAPILike] < g[BCNoBCC] {
		t.Errorf("CAPI (%.2f%%) should exceed BC-noBCC (%.2f%%)", g[CAPILike]*100, g[BCNoBCC]*100)
	}
	if g[BCNoBCC] < g[BCBCC] {
		t.Errorf("BC-noBCC (%.2f%%) should exceed BC-BCC (%.2f%%)", g[BCNoBCC]*100, g[BCBCC]*100)
	}
	// The headline: Border Control with a BCC is essentially free.
	if g[BCBCC] > 0.01 {
		t.Errorf("BC-BCC geomean %.2f%%: paper reports 0.15%%", g[BCBCC]*100)
	}
}

func TestFigure4Moderately(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	res, err := Figure4(context.Background(), Exec{}, ModeratelyThreaded, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	g := res.GeoMean
	if g[FullIOMMU] < 0.5 {
		t.Errorf("full IOMMU geomean %.1f%%: should be severe", g[FullIOMMU]*100)
	}
	if g[CAPILike] < 0.05 {
		t.Errorf("CAPI moderate geomean %.2f%%: the latency-sensitive GPU should feel CAPI (paper 16.5%%)", g[CAPILike]*100)
	}
	if g[BCBCC] > 0.02 {
		t.Errorf("BC-BCC geomean %.2f%%: paper reports 0.84%%", g[BCBCC]*100)
	}

	// Cross-panel relationship: CAPI hurts the moderately threaded GPU
	// more than the highly threaded one (paper: 16.5%% vs 3.81%%).
	high, err := Figure4(context.Background(), Exec{}, HighlyThreaded, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if g[CAPILike] < high.GeoMean[CAPILike] {
		t.Errorf("CAPI: moderate (%.1f%%) should exceed highly (%.1f%%)",
			g[CAPILike]*100, high.GeoMean[CAPILike]*100)
	}
	if g[FullIOMMU] > high.GeoMean[FullIOMMU] {
		t.Errorf("full IOMMU: highly (%.1f%%) should exceed moderate (%.1f%%)",
			high.GeoMean[FullIOMMU]*100, g[FullIOMMU]*100)
	}
}

func TestFigure5(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	res, err := Figure5(context.Background(), Exec{}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Paper: mean 0.11 with significant variability; bfs the maximum.
	if res.Average < 0.02 || res.Average > 0.5 {
		t.Errorf("average %.3f req/cycle implausible (paper 0.11)", res.Average)
	}
	var min, max float64 = 1e9, 0
	maxName := ""
	for _, r := range res.Rows {
		if r.RequestsPerCycle > max {
			max, maxName = r.RequestsPerCycle, r.Workload
		}
		if r.RequestsPerCycle < min {
			min = r.RequestsPerCycle
		}
	}
	if max/min < 5 {
		t.Errorf("variability %.1fx too flat (paper spans 0.025-0.29)", max/min)
	}
	if maxName != "bfs" {
		t.Errorf("heaviest workload = %s, paper says bfs", maxName)
	}
}

func TestFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	res, err := Figure6(context.Background(), Exec{}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	// At every byte budget, more pages/entry never loses badly; and the
	// paper's headline point: 512 pages/entry is <0.1% well under 1 KB.
	last512 := res.Curves[512][len(res.Curves[512])-1]
	if last512.MissRatio > 0.001 {
		t.Errorf("512 pages/entry at %.0f B: miss %.4f, want <0.1%%", last512.SizeBytes, last512.MissRatio)
	}
	first1 := res.Curves[1][0]
	if first1.MissRatio < 0.3 {
		t.Errorf("1 page/entry tiny BCC should miss heavily, got %.3f", first1.MissRatio)
	}
	// Within each curve, miss ratio is non-increasing with size.
	for ppe, curve := range res.Curves {
		for i := 1; i < len(curve); i++ {
			if curve[i].MissRatio > curve[i-1].MissRatio+0.02 {
				t.Errorf("pages/entry=%d: miss ratio rises with size (%.3f -> %.3f)",
					ppe, curve[i-1].MissRatio, curve[i].MissRatio)
			}
		}
	}
}

// TestFigure6CapturesOnJobList: Figure 6's observed cells are an ordinary
// grid job list, so Exec.Trace collects one timeline per grid cell, and
// Exec.Shards runs them sharded with a byte-identical figure and stats
// snapshot.
func TestFigure6CapturesOnJobList(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Figure 6 runs")
	}
	base, err := Figure6(context.Background(), Exec{}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	multi := trace.NewMulti("border")
	sharded, err := Figure6(context.Background(), Exec{Shards: 2, Trace: multi}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if base.Render() != sharded.Render() {
		t.Errorf("Figure 6 differs at Shards=2:\n%s\nvs\n%s", base.Render(), sharded.Render())
	}
	bj, err := json.Marshal(base.Stats)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(sharded.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bj, sj) {
		t.Error("Figure 6 stats snapshot differs at Shards=2")
	}

	var buf bytes.Buffer
	if err := multi.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	var procs []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs = append(procs, ev.Args.Name)
		}
	}
	var want []string
	for _, spec := range workload.All() {
		want = append(want, "fig6/high/"+spec.Name+"/BC-BCC")
	}
	sort.Strings(procs)
	sort.Strings(want)
	if !reflect.DeepEqual(procs, want) {
		t.Errorf("trace processes %v, want one per grid cell %v", procs, want)
	}
}

func TestFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	res, err := Figure7(context.Background(), Exec{}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	at := func(m Mode, c GPUClass, rate float64) float64 {
		for _, pt := range res.Points {
			if pt.Mode == m && pt.Class == c && pt.DowngradesPerSec == rate {
				return pt.Overhead
			}
		}
		t.Fatalf("missing point %v/%v/%v", m, c, rate)
		return 0
	}
	for _, c := range []GPUClass{HighlyThreaded, ModeratelyThreaded} {
		// Overheads grow with rate, stay small, and BC sits above ATS-only.
		if at(BCBCC, c, 1000) <= at(BCBCC, c, 0) {
			t.Errorf("%v: BC overhead does not grow with downgrade rate", c)
		}
		if at(BCBCC, c, 1000) > 0.02 {
			t.Errorf("%v: BC at 1000/s = %.3f%%, paper stays under ~0.5%%", c, at(BCBCC, c, 1000)*100)
		}
		if at(BCBCC, c, 200) > 0.005 {
			t.Errorf("%v: at context-switch rates overhead should be negligible, got %.3f%%",
				c, at(BCBCC, c, 200)*100)
		}
		bcSlope := at(BCBCC, c, 1000) - at(BCBCC, c, 0)
		atsSlope := at(ATSOnly, c, 1000) - at(ATSOnly, c, 0)
		if bcSlope <= atsSlope {
			t.Errorf("%v: BC per-downgrade cost must exceed the trusted baseline's", c)
		}
	}
}

// TestFigureBorders races the registered border designs on the Figure-4
// sweep. Every design must produce verified-correct results on every
// workload (decision equivalence, DESIGN.md §14), and no design may be
// meaningfully more expensive than the paper's flat table — the checks run
// in parallel with memory access, so walk-cost differences stay hidden.
func TestFigureBorders(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	res, err := FigureBorders(context.Background(), Exec{}, ModeratelyThreaded, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	want := core.Designs()
	if len(res.Designs) != len(want) {
		t.Fatalf("Designs = %v, want %v", res.Designs, want)
	}
	for i := range want {
		if res.Designs[i] != want[i] {
			t.Fatalf("Designs = %v, want %v", res.Designs, want)
		}
	}
	if got := len(res.Rows); got != 7 {
		t.Fatalf("%d workload rows, want 7", got)
	}
	for _, row := range res.Rows {
		for _, d := range res.Designs {
			if row.Cycles[d] == 0 {
				t.Errorf("%s under %q reported zero cycles", row.Workload, d)
			}
		}
	}
	for _, d := range res.Designs {
		g, ok := res.GeoMean[d]
		if !ok {
			t.Errorf("no geomean for design %q", d)
			continue
		}
		if g > 0.02 {
			t.Errorf("design %q geomean overhead %.2f%%: BC-BCC should stay under 2%%", d, g*100)
		}
	}
	if res.CSV() == "" {
		t.Error("empty CSV")
	}
}
