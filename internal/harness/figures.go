package harness

import (
	"context"
	"fmt"
	"strings"

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

// gridKey names one cell of the evaluation grid: a workload on one GPU
// class under one mode, with no injection (a Figure 4 cell). Figures 4–7
// reduce grid cells, looked up by key, so one grid can feed them all.
type gridKey struct {
	class    GPUClass
	workload string
	mode     Mode
}

// grid holds the results of a set of grid cells.
type grid map[gridKey]RunResult

// cells returns the results of every workload's cells of one class under
// the modes, workload-major, in the order their snapshots merge.
func (g grid) cells(class GPUClass, modes ...Mode) []RunResult {
	var runs []RunResult
	for _, spec := range workload.All() {
		for _, mode := range modes {
			runs = append(runs, g[gridKey{class, spec.Name, mode}])
		}
	}
	return runs
}

// gridList is the job list "<name>/<class>/<workload>/<mode>" of every
// workload's cells on the classes under the modes. Workload i's BC-BCC
// cell of the highly threaded GPU carries fig6[i], if fig6 is given.
func gridList(name string, classes []GPUClass, modes []Mode, fig6 []fig6Observer) []runSpec {
	var list []runSpec
	for _, class := range classes {
		for i, spec := range workload.All() {
			for _, mode := range modes {
				s := runSpec{
					Label: name + "/" + classShort(class) + "/" + spec.Name + "/" + shortMode(mode),
					Mode:  mode, Class: class, Spec: spec,
				}
				if fig6 != nil && class == HighlyThreaded && mode == BCBCC {
					s.attach = fig6[i].attach
				}
				list = append(list, s)
			}
		}
	}
	return list
}

// runGrid runs a job list whose runs are distinct (class, workload, mode)
// cells and returns their results by cell.
func runGrid(ctx context.Context, ex Exec, p Params, list []runSpec) (grid, error) {
	runs, err := runAll(ctx, ex, p, list)
	if err != nil {
		return nil, err
	}
	g := make(grid, len(runs))
	for i, s := range list {
		g[gridKey{s.Class, s.Spec.Name, s.Mode}] = runs[i]
	}
	return g, nil
}

// Evaluation is Figures 4–7, reduced from one grid.
type Evaluation struct {
	Figure4 [2]Figure4Result // highly, then moderately threaded
	Figure5 Figure5Result
	Figure6 Figure6Result
	Figure7 Figure7Result
}

// Evaluate runs both classes' Figure 4 cells once, with Figure 6's
// observers, and reduces Figures 4–7 from them; Figure 7's injection wave
// then runs as a second job list.
func Evaluate(ctx context.Context, ex Exec, p Params) (Evaluation, error) {
	var ev Evaluation
	obs := fig6Observers()
	g, err := runGrid(ctx, ex, p, gridList("grid", bothClasses(), Modes(), obs))
	if err != nil {
		return ev, fmt.Errorf("grid: %w", err)
	}
	for i, class := range bothClasses() {
		if ev.Figure4[i], err = figure4(g, class); err != nil {
			return ev, err
		}
	}
	ev.Figure5 = figure5(g)
	ev.Figure6 = figure6(g, obs)
	if ev.Figure7, err = figure7(ctx, ex, p, g); err != nil {
		return ev, fmt.Errorf("fig7: %w", err)
	}
	return ev, nil
}

// bothClasses lists the GPU classes in the paper's order.
func bothClasses() []GPUClass { return []GPUClass{HighlyThreaded, ModeratelyThreaded} }

// Figure4 runs all seven workloads under the baseline and the four safe
// configurations for the given GPU class on the experiment-execution
// layer: the 7 workloads x (baseline + 4 safe modes) independent
// simulations become a job list, and ordered result collection keeps the
// rendered figure byte-identical to a serial sweep at any parallelism.
func Figure4(ctx context.Context, ex Exec, class GPUClass, p Params) (Figure4Result, error) {
	g, err := runGrid(ctx, ex, p, gridList("fig4", []GPUClass{class}, Modes(), nil))
	if err != nil {
		return Figure4Result{Class: class}, err
	}
	return figure4(g, class)
}

// figure4 reduces the grid's cells of one class to Figure 4.
func figure4(g grid, class GPUClass) (Figure4Result, error) {
	res := Figure4Result{Class: class, GeoMean: make(map[Mode]float64), Stats: sweepStats(g.cells(class, Modes()...))}
	per := make(map[Mode][]float64)
	for _, spec := range workload.All() {
		base := g[gridKey{class, spec.Name, ATSOnly}]
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
			r := g[gridKey{class, spec.Name, mode}]
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
	g, err := runGrid(ctx, ex, p, gridList("fig5", []GPUClass{HighlyThreaded}, []Mode{BCBCC}, nil))
	if err != nil {
		return Figure5Result{}, err
	}
	return figure5(g), nil
}

// figure5 reduces the grid's BC-BCC/high cells to Figure 5.
func figure5(g grid) Figure5Result {
	runs := g.cells(HighlyThreaded, BCBCC)
	res := Figure5Result{Stats: sweepStats(runs)}
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
	return res
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
	// Stats aggregates the metrics snapshots of the observed runs.
	Stats stats.Snapshot
}

// Figure6 sweeps BCC geometries over the border event streams of the
// seven BC-BCC cells of the highly threaded GPU, as the paper's
// trace-driven sweep does, each cell with a stack-distance observer (see
// figure6.go); the miss ratio is averaged over the benchmarks.
func Figure6(ctx context.Context, ex Exec, p Params) (Figure6Result, error) {
	obs := fig6Observers()
	g, err := runGrid(ctx, ex, p, gridList("fig6", []GPUClass{HighlyThreaded}, []Mode{BCBCC}, obs))
	if err != nil {
		return Figure6Result{}, err
	}
	return figure6(g, obs), nil
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
// It runs on the experiment-execution layer in two waves. Wave one is the
// grid's ATS-only and BC-BCC cells of both classes: the unsafe baselines,
// which are also ATS-only's zero-downgrade runs, and BC-BCC's
// zero-downgrade runs. Wave two runs the injection experiments, whose
// injection schedule depends on the measured zero-downgrade runtime.
// Within each wave every simulation is independent.
func Figure7(ctx context.Context, ex Exec, p Params) (Figure7Result, error) {
	g, err := runGrid(ctx, ex, p, gridList("fig7", bothClasses(), []Mode{ATSOnly, BCBCC}, nil))
	if err != nil {
		return Figure7Result{}, err
	}
	return figure7(ctx, ex, p, g)
}

// figure7 runs Figure 7's injection wave over the grid's zero-downgrade
// cells and reduces both waves to the figure.
func figure7(ctx context.Context, ex Exec, p Params, g grid) (Figure7Result, error) {
	res := Figure7Result{Rates: []float64{0, 100, 200, 500, 1000}}
	modes := []Mode{BCBCC, ATSOnly}
	const injections = 40

	// Wave one's snapshots merge per class as the serial sweep ran them:
	// the ATS-only baselines, then each mode's zero-downgrade runs.
	var wave1 []RunResult
	var wave2 []runSpec
	for _, class := range bothClasses() {
		wave1 = append(wave1, g.cells(class, ATSOnly)...)
		for _, mode := range modes {
			wave1 = append(wave1, g.cells(class, mode)...)
			for _, spec := range workload.All() {
				wave2 = append(wave2, runSpec{
					Label: "fig7/" + classShort(class) + "/inject/" + spec.Name + "/" + shortMode(mode),
					Mode:  mode, Class: class, Spec: spec,
					Opts: RunOptions{
						FixedDowngrades: injections,
						SpreadOver:      g[gridKey{class, spec.Name, mode}].Runtime,
					},
				})
			}
		}
	}
	inj, err := runGrid(ctx, ex, p, wave2)
	if err != nil {
		return res, err
	}

	var injected []RunResult // in wave two's order
	for _, class := range bothClasses() {
		for _, mode := range modes {
			var zeroOvs, costsSec []float64
			for _, spec := range workload.All() {
				z, r := g[gridKey{class, spec.Name, mode}], inj[gridKey{class, spec.Name, mode}]
				injected = append(injected, r)
				if r.VerifyErr != nil {
					return res, fmt.Errorf("harness: fig7 %s %v: %w", spec.Name, mode, r.VerifyErr)
				}
				base := g[gridKey{class, spec.Name, ATSOnly}]
				zeroOvs = append(zeroOvs, float64(z.Cycles)/float64(base.Cycles)-1)
				if r.Downgrades > 0 {
					perDowngrade := float64(r.Runtime-z.Runtime) / float64(r.Downgrades)
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
	res.Stats = stats.Merge(sweepStats(wave1), sweepStats(injected))
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
