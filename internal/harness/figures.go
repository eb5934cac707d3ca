package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/workload"
)

// Figure4Row is one workload's overheads relative to the unsafe baseline.
type Figure4Row struct {
	Workload  string
	Baseline  uint64           // ATS-only cycles
	Cycles    map[Mode]uint64  // per safe mode
	Overheads map[Mode]float64 // cycles/baseline - 1
}

// Figure4Result reproduces paper Figure 4 (one GPU class).
type Figure4Result struct {
	Class GPUClass
	Rows  []Figure4Row
	// GeoMean holds the geometric-mean overhead per mode, the numbers the
	// paper quotes in the text (374%, 3.81%, 2.04%, 0.15% for 4a).
	GeoMean map[Mode]float64
	// Stats aggregates the metrics snapshots of every run in the sweep.
	Stats stats.Snapshot
}

// Figure4 runs all seven workloads under the baseline and the four safe
// configurations for the given GPU class on the experiment-execution
// layer: the 7 workloads x (baseline + 4 safe modes) independent
// simulations become a job list, and ordered result collection keeps the
// rendered figure byte-identical to a serial sweep at any parallelism.
func Figure4(ctx context.Context, ex Exec, class GPUClass, p Params) (Figure4Result, error) {
	res := Figure4Result{Class: class, GeoMean: make(map[Mode]float64)}
	specs := workload.All()

	var list []runSpec
	for _, spec := range specs {
		list = append(list, runSpec{
			Label: "fig4/" + classShort(class) + "/" + spec.Name + "/" + shortMode(ATSOnly),
			Mode:  ATSOnly, Class: class, Spec: spec,
		})
		for _, mode := range SafeModes() {
			list = append(list, runSpec{
				Label: "fig4/" + classShort(class) + "/" + spec.Name + "/" + shortMode(mode),
				Mode:  mode, Class: class, Spec: spec,
			})
		}
	}
	runs, err := runAll(ctx, ex, p, list)
	if err != nil {
		return res, err
	}
	res.Stats = sweepStats(runs)

	per := make(map[Mode][]float64)
	next := 0
	for _, spec := range specs {
		base := runs[next]
		next++
		if base.VerifyErr != nil {
			return res, fmt.Errorf("harness: %s baseline results wrong: %w", spec.Name, base.VerifyErr)
		}
		row := Figure4Row{
			Workload:  spec.Name,
			Baseline:  base.Cycles,
			Cycles:    make(map[Mode]uint64),
			Overheads: make(map[Mode]float64),
		}
		for _, mode := range SafeModes() {
			r := runs[next]
			next++
			if r.VerifyErr != nil {
				return res, fmt.Errorf("harness: %s on %v results wrong: %w", spec.Name, mode, r.VerifyErr)
			}
			row.Cycles[mode] = r.Cycles
			ov := float64(r.Cycles)/float64(base.Cycles) - 1
			row.Overheads[mode] = ov
			per[mode] = append(per[mode], ov)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, mode := range SafeModes() {
		res.GeoMean[mode] = stats.GeoMeanOverhead(per[mode])
	}
	return res, nil
}

// Render prints the figure as a text table.
func (f Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (%s GPU): runtime overhead vs ATS-only IOMMU baseline\n", f.Class)
	fmt.Fprintf(&b, "%-12s %12s", "workload", "base cycles")
	for _, m := range SafeModes() {
		fmt.Fprintf(&b, " %12s", shortMode(m))
	}
	b.WriteString("\n")
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-12s %12d", row.Workload, row.Baseline)
		for _, m := range SafeModes() {
			fmt.Fprintf(&b, " %11.2f%%", row.Overheads[m]*100)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-12s %12s", "geomean", "")
	for _, m := range SafeModes() {
		fmt.Fprintf(&b, " %11.2f%%", f.GeoMean[m]*100)
	}
	b.WriteString("\n")
	return b.String()
}

func shortMode(m Mode) string {
	switch m {
	case ATSOnly:
		return "ATS-only"
	case FullIOMMU:
		return "IOMMU"
	case CAPILike:
		return "CAPI"
	case BCNoBCC:
		return "BC-noBCC"
	case BCBCC:
		return "BC-BCC"
	}
	return m.String()
}

// Figure5Row is one workload's border-check rate.
type Figure5Row struct {
	Workload string
	// RequestsPerCycle is the number of requests checked by Border Control
	// per GPU cycle (paper Figure 5; mean 0.11, 0.025 for backprop up to
	// 0.29 for bfs).
	RequestsPerCycle float64
	Checks           uint64
	Cycles           uint64
}

// Figure5Result reproduces paper Figure 5.
type Figure5Result struct {
	Rows    []Figure5Row
	Average float64
	// Stats aggregates the metrics snapshots of every run in the sweep.
	Stats stats.Snapshot
}

// Figure5 measures requests/cycle checked by Border Control on the highly
// threaded GPU under BC-BCC, on the experiment-execution layer: one job
// per workload.
func Figure5(ctx context.Context, ex Exec, p Params) (Figure5Result, error) {
	var res Figure5Result
	var list []runSpec
	for _, spec := range workload.All() {
		list = append(list, runSpec{
			Label: "fig5/" + spec.Name,
			Mode:  BCBCC, Class: HighlyThreaded, Spec: spec,
		})
	}
	runs, err := runAll(ctx, ex, p, list)
	if err != nil {
		return res, err
	}
	res.Stats = sweepStats(runs)
	var rates []float64
	for _, r := range runs {
		row := Figure5Row{
			Workload:         r.Workload,
			RequestsPerCycle: r.RequestsPerCycle(),
			Checks:           r.BCChecks,
			Cycles:           r.Cycles,
		}
		res.Rows = append(res.Rows, row)
		rates = append(rates, row.RequestsPerCycle)
	}
	res.Average = stats.Mean(rates)
	return res, nil
}

// Render prints Figure 5 as a text table.
func (f Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5 (highly threaded GPU): requests per cycle checked by Border Control\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %10s\n", "workload", "req/cycle", "checks", "cycles")
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-12s %10.3f %12d %10d\n", row.Workload, row.RequestsPerCycle, row.Checks, row.Cycles)
	}
	fmt.Fprintf(&b, "%-12s %10.3f\n", "AVG", f.Average)
	return b.String()
}

// Figure6Point is one (size, miss-ratio) sample of one pages/entry curve.
type Figure6Point struct {
	Entries   int
	SizeBytes float64
	MissRatio float64
}

// Figure6Result reproduces paper Figure 6: BCC miss ratio as a function of
// BCC size in bytes, one curve per sub-blocking factor.
type Figure6Result struct {
	// Curves maps pages/entry to its size sweep.
	Curves map[int][]Figure6Point
	// PagesPerEntry lists the curve keys in order.
	PagesPerEntry []int
	// Stats aggregates the capture runs' metrics snapshots (the geometry
	// replays are functional and carry no timing).
	Stats stats.Snapshot
}

// Figure6 replays captured Border Control event traces through BCC models
// of varying geometry. Traces are captured once per workload from a
// BC-BCC run (trace-driven BCC simulation, like the paper's sweep); the
// miss ratio is averaged over the benchmarks. On the experiment-execution
// layer, the captures are a job list of one run per workload (see
// captureList), then each BCC geometry's replay is one job (a replay
// mutates only its own store/table/BCC, so geometries sweep in parallel
// over the shared read-only traces).
func Figure6(ctx context.Context, ex Exec, p Params) (Figure6Result, error) {
	res := Figure6Result{Curves: make(map[int][]Figure6Point), PagesPerEntry: []int{1, 2, 32, 512}}
	list, traces := captureList()
	runs, err := runAll(ctx, ex, p, list)
	if err != nil {
		return res, err
	}
	res.Stats = sweepStats(runs)

	type geometry struct {
		ppe, entries int
	}
	var geoms []geometry
	for _, ppe := range res.PagesPerEntry {
		for _, entries := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
			if bccGeometry(entries, ppe).SizeBytes() > 1100 {
				continue
			}
			geoms = append(geoms, geometry{ppe: ppe, entries: entries})
		}
	}
	points, err := exp.Map(ctx, ex.runner(), geoms,
		func(_ int, g geometry) string {
			return fmt.Sprintf("fig6/replay/%dx%d", g.entries, g.ppe)
		},
		func(_ context.Context, g geometry) (Figure6Point, error) {
			cfg := bccGeometry(g.entries, g.ppe)
			var ratios []float64
			for _, tr := range traces {
				ratios = append(ratios, replayBCCTrace(tr, cfg, p))
			}
			return Figure6Point{
				Entries:   g.entries,
				SizeBytes: cfg.SizeBytes(),
				MissRatio: stats.Mean(ratios),
			}, nil
		})
	if err != nil {
		return res, err
	}
	for i, g := range geoms {
		res.Curves[g.ppe] = append(res.Curves[g.ppe], points[i])
	}
	for _, ppe := range res.PagesPerEntry {
		sort.Slice(res.Curves[ppe], func(i, j int) bool {
			return res.Curves[ppe][i].SizeBytes < res.Curves[ppe][j].SizeBytes
		})
	}
	return res, nil
}

// Render prints Figure 6 as a text table.
func (f Figure6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: BCC miss ratio vs BCC size (bytes), by pages per entry\n")
	for _, ppe := range f.PagesPerEntry {
		fmt.Fprintf(&b, "pages/entry=%d:\n", ppe)
		for _, pt := range f.Curves[ppe] {
			fmt.Fprintf(&b, "  %8.1f B (%4d entries): miss ratio %6.4f\n", pt.SizeBytes, pt.Entries, pt.MissRatio)
		}
	}
	return b.String()
}

// Figure7Point is one sample of the downgrade-rate sweep.
type Figure7Point struct {
	Mode             Mode
	Class            GPUClass
	DowngradesPerSec float64
	Overhead         float64 // vs the same mode/class at 0 downgrades/s... see Figure7
}

// Figure7Result reproduces paper Figure 7: runtime overhead as a function
// of permission-downgrade frequency, for BC-BCC and the unsafe ATS-only
// baseline, on both GPU classes. Overheads are relative to the ATS-only
// run with no downgrades (the paper's baseline).
type Figure7Result struct {
	Rates  []float64
	Points []Figure7Point
	// Stats aggregates the metrics snapshots of every run in both waves.
	Stats stats.Snapshot
}

// Figure7 reproduces the downgrade sweep. Simulated kernels last well under
// a millisecond, so at the paper's 10–1000 downgrades/second a single run
// would see almost no events; the overhead is linear in the rate (each
// downgrade costs a fixed stall: TLB shootdown + drain, plus — for Border
// Control — the accelerator cache flush and table update). We therefore
// measure the per-downgrade cost densely (many injections per run) and
// report overhead(rate) = baseline-overhead + rate * cost, averaged over
// the benchmark suite, exactly the quantity the paper plots.
//
// It runs on the experiment-execution layer in two waves: wave one runs
// the unsafe baselines and the zero-downgrade runs for every (class, mode,
// workload) point; wave two runs the injection experiments, whose
// injection schedule depends on the measured zero-downgrade runtime.
// Within each wave every simulation is independent.
func Figure7(ctx context.Context, ex Exec, p Params) (Figure7Result, error) {
	res := Figure7Result{Rates: []float64{0, 100, 200, 500, 1000}}
	classes := []GPUClass{HighlyThreaded, ModeratelyThreaded}
	modes := []Mode{BCBCC, ATSOnly}
	specs := workload.All()
	const injections = 40

	// Wave one: per class, the ATS-only baselines then each mode's
	// zero-downgrade runs, in the serial sweep's order.
	var wave1 []runSpec
	for _, class := range classes {
		for _, spec := range specs {
			wave1 = append(wave1, runSpec{
				Label: "fig7/" + classShort(class) + "/base/" + spec.Name,
				Mode:  ATSOnly, Class: class, Spec: spec,
			})
		}
		for _, mode := range modes {
			for _, spec := range specs {
				wave1 = append(wave1, runSpec{
					Label: "fig7/" + classShort(class) + "/zero/" + spec.Name + "/" + shortMode(mode),
					Mode:  mode, Class: class, Spec: spec,
				})
			}
		}
	}
	runs1, err := runAll(ctx, ex, p, wave1)
	if err != nil {
		return res, err
	}
	perClass := len(specs) * (1 + len(modes))
	base := func(ci, si int) RunResult { return runs1[ci*perClass+si] }
	zero := func(ci, mi, si int) RunResult {
		return runs1[ci*perClass+(1+mi)*len(specs)+si]
	}

	// Wave two: the injection runs, spread over each measured runtime.
	var wave2 []runSpec
	for ci, class := range classes {
		for mi, mode := range modes {
			for si, spec := range specs {
				wave2 = append(wave2, runSpec{
					Label: "fig7/" + classShort(class) + "/inject/" + spec.Name + "/" + shortMode(mode),
					Mode:  mode, Class: class, Spec: spec,
					Opts: RunOptions{
						FixedDowngrades: injections,
						SpreadOver:      zero(ci, mi, si).Runtime,
					},
				})
			}
		}
	}
	runs2, err := runAll(ctx, ex, p, wave2)
	if err != nil {
		return res, err
	}
	res.Stats = stats.Merge(sweepStats(runs1), sweepStats(runs2))
	inject := func(ci, mi, si int) RunResult {
		return runs2[(ci*len(modes)+mi)*len(specs)+si]
	}

	for ci, class := range classes {
		for mi, mode := range modes {
			var zeroOvs, costsSec []float64
			for si, spec := range specs {
				z, inj := zero(ci, mi, si), inject(ci, mi, si)
				if inj.VerifyErr != nil {
					return res, fmt.Errorf("harness: fig7 %s %v: %w", spec.Name, mode, inj.VerifyErr)
				}
				zeroOvs = append(zeroOvs, float64(z.Cycles)/float64(base(ci, si).Cycles)-1)
				if inj.Downgrades > 0 {
					perDowngrade := float64(inj.Runtime-z.Runtime) / float64(inj.Downgrades)
					// Cost as a fraction of a second of baseline runtime:
					// overhead contribution per (downgrade/second).
					costsSec = append(costsSec, perDowngrade/float64(sim.Second))
				}
			}
			zeroOv := stats.GeoMeanOverhead(zeroOvs)
			cost := stats.Mean(costsSec)
			if cost < 0 {
				cost = 0
			}
			for _, rate := range res.Rates {
				res.Points = append(res.Points, Figure7Point{
					Mode:             mode,
					Class:            class,
					DowngradesPerSec: rate,
					Overhead:         zeroOv + rate*cost,
				})
			}
		}
	}
	return res, nil
}

// Render prints Figure 7 as a text table.
func (f Figure7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: runtime overhead vs permission downgrades per second\n")
	fmt.Fprintf(&b, "%-22s %-22s", "mode", "class")
	for _, r := range f.Rates {
		fmt.Fprintf(&b, " %8.0f/s", r)
	}
	b.WriteString("\n")
	key := func(m Mode, c GPUClass) string { return fmt.Sprintf("%v|%v", m, c) }
	rows := make(map[string][]float64)
	var order []string
	for _, pt := range f.Points {
		k := key(pt.Mode, pt.Class)
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		rows[k] = append(rows[k], pt.Overhead)
	}
	for _, k := range order {
		parts := strings.SplitN(k, "|", 2)
		fmt.Fprintf(&b, "%-22s %-22s", parts[0], parts[1])
		for _, ov := range rows[k] {
			fmt.Fprintf(&b, " %9.3f%%", ov*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}
