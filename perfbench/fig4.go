package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/workload"
)

// fig4 regenerates paper Figure 4 for both GPU classes: 7 Rodinia
// workloads × 5 modes × 2 classes = 70 live cells on the experiment pool.
// Its inputs are the paper's fixed generators, so it takes no seed. Traces
// are not pre-recorded: recording is what a figure run pays today.
type fig4 struct {
	cfg   config
	p     harness.Params
	specs []workload.Spec
	// want is the rendered figure per class, from RESULTS.txt.
	want map[harness.GPUClass]string
	// last holds the most recent batch's figures, for the geomean report.
	last []harness.Figure4Result
}

var fig4Classes = []harness.GPUClass{harness.HighlyThreaded, harness.ModeratelyThreaded}

// paperGeomeans are the §5 geomean overheads (percent) per class, in
// SafeModes order: IOMMU, CAPI, BC-noBCC, BC-BCC.
var paperGeomeans = map[harness.GPUClass][]float64{
	harness.HighlyThreaded:     {374, 3.81, 2.04, 0.15},
	harness.ModeratelyThreaded: {85, 16.5, 7.26, 0.84},
}

func (f *fig4) close() {}

func (f *fig4) setup(context.Context) error {
	f.p = harness.DefaultParams()
	f.specs = workload.All()
	blob, err := os.ReadFile(filepath.Join(f.cfg.root, "RESULTS.txt"))
	if err != nil {
		return err
	}
	f.want, err = figure4Blocks(string(blob))
	return err
}

// figure4Blocks extracts the rendered Figure 4 table of each class: from
// its title line through its geomean line.
func figure4Blocks(s string) (map[harness.GPUClass]string, error) {
	out := map[harness.GPUClass]string{}
	for _, class := range fig4Classes {
		i := strings.Index(s, fmt.Sprintf("Figure 4 (%s GPU)", class))
		if i < 0 {
			return nil, fmt.Errorf("RESULTS.txt has no Figure 4 for the %s GPU", class)
		}
		rest := s[i:]
		j := strings.Index(rest, "\ngeomean")
		if j < 0 {
			return nil, fmt.Errorf("RESULTS.txt: Figure 4 (%s GPU) has no geomean line", class)
		}
		k := strings.IndexByte(rest[j+1:], '\n')
		if k < 0 {
			return nil, fmt.Errorf("RESULTS.txt: Figure 4 (%s GPU) is truncated", class)
		}
		out[class] = rest[:j+1+k+1]
	}
	return out, nil
}

func (f *fig4) batch(ctx context.Context, sp *spans) (batch, error) {
	var b batch
	onDone := func(r exp.Result) {
		b.busy += r.Elapsed
		if r.Err != nil {
			b.failed++
		}
	}
	start := time.Now()
	results := make([]harness.Figure4Result, len(fig4Classes))
	errs := make([]error, len(fig4Classes))
	for i, class := range fig4Classes {
		if sp == nil {
			results[i], errs[i] = harness.Figure4(ctx, harness.Exec{Jobs: f.cfg.jobs, Progress: onDone}, class, f.p)
		} else {
			results[i], errs[i] = f.tracedFigure(ctx, sp, &b, class, &exp.Runner{Workers: f.cfg.jobs, OnDone: onDone})
		}
	}
	b.wall = time.Since(start)
	// A job is the figure run, which is what a user waits for. Its cells
	// span seven kernels and two classes, so their median falls between
	// clusters of cell sizes and is no steady measure of it.
	b.jobs = []time.Duration{b.wall}
	return f.judge(b, results, errs), nil
}

// judge applies fig4's output check: each class's rendered figure must
// equal RESULTS.txt. A wrong or failed figure fails all of its cells.
func (f *fig4) judge(b batch, results []harness.Figure4Result, errs []error) batch {
	perClass := len(f.specs) * (1 + len(harness.SafeModes()))
	b.attempted = perClass * len(fig4Classes)
	if b.layers == nil {
		b.layers = map[string]float64{}
	}
	var model strings.Builder
	var snaps []stats.Snapshot
	// A failed cell fails its class's figure, so failures count per class.
	b.failed = 0
	for i, class := range fig4Classes {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "fig4 %s: %v\n", class, errs[i])
			b.failed += perClass
			continue
		}
		got := results[i].Render()
		if got != f.want[class] {
			fmt.Fprintf(os.Stderr, "fig4 %s: rendered figure differs from RESULTS.txt:\n%s", class, got)
			b.failed += perClass
		}
		model.WriteString(got)
		blob, err := json.Marshal(results[i].Stats)
		if err != nil {
			b.failed += perClass
			continue
		}
		model.Write(blob)
		snaps = append(snaps, results[i].Stats)
	}
	merged := stats.Merge(snaps...)
	b.events = merged.Counter("engine.events")
	for _, mc := range modelCounters {
		b.layers[mc.metric] = float64(merged.Counter(mc.counter))
	}
	b.layers["sim.events"] = float64(b.events)
	b.model = model.String()
	f.last = results
	return b
}

// fig4Cell is one simulation of the traced figure.
type fig4Cell struct {
	spec workload.Spec
	mode harness.Mode
}

type fig4Out struct {
	cycles uint64
	ops    uint64
	snap   stats.Snapshot
}

// tracedFigure is harness.Figure4 rebuilt from the public calls
// harness.RunCtx makes, each wrapped in a span: the same cells in the same
// order on the same pool, reduced the same way. Its rendered figure and
// merged stats must equal the untraced batches'.
func (f *fig4) tracedFigure(ctx context.Context, sp *spans, b *batch, class harness.GPUClass, runner *exp.Runner) (harness.Figure4Result, error) {
	var cells []fig4Cell
	for _, spec := range f.specs {
		cells = append(cells, fig4Cell{spec, harness.ATSOnly})
		for _, mode := range harness.SafeModes() {
			cells = append(cells, fig4Cell{spec, mode})
		}
	}
	label := func(_ int, c fig4Cell) string {
		return "fig4/" + harness.ClassSlug(class) + "/" + c.spec.Name + "/" + harness.ModeSlug(c.mode)
	}
	outs, err := exp.Map(ctx, runner, cells, label,
		func(_ context.Context, c fig4Cell) (fig4Out, error) {
			return f.tracedCell(sp.track(label(0, c)), class, c)
		})
	if err != nil {
		return harness.Figure4Result{}, err
	}
	if b.layers == nil {
		b.layers = map[string]float64{}
	}
	res := harness.Figure4Result{Class: class, GeoMean: map[harness.Mode]float64{}}
	per := map[harness.Mode][]float64{}
	var snaps []stats.Snapshot
	next := 0
	for _, spec := range f.specs {
		base := outs[next]
		next++
		row := harness.Figure4Row{
			Workload:  spec.Name,
			Baseline:  base.cycles,
			Cycles:    map[harness.Mode]uint64{},
			Overheads: map[harness.Mode]float64{},
		}
		for _, mode := range harness.SafeModes() {
			r := outs[next]
			next++
			row.Cycles[mode] = r.cycles
			ov := float64(r.cycles)/float64(base.cycles) - 1
			row.Overheads[mode] = ov
			per[mode] = append(per[mode], ov)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, o := range outs {
		snaps = append(snaps, o.snap)
		b.layers["workload.ops"] += float64(o.ops)
	}
	for _, mode := range harness.SafeModes() {
		res.GeoMean[mode] = stats.GeoMeanOverhead(per[mode])
	}
	res.Stats = stats.Merge(snaps...)
	return res, nil
}

// tracedCell is one harness.RunCtx simulation, span by span.
func (f *fig4) tracedCell(t *track, class harness.GPUClass, c fig4Cell) (fig4Out, error) {
	t.begin("cell")
	defer t.end()
	fail := func(stage string, err error) (fig4Out, error) {
		return fig4Out{}, &harness.RunError{Workload: c.spec.Name, Mode: c.mode, Class: class, Stage: stage, Err: err}
	}
	t.begin("harness.system")
	sys, err := harness.NewSystem(c.mode, class, f.p)
	t.end()
	if err != nil {
		return fig4Out{}, err
	}
	t.begin("hostos.start")
	proc, err := sys.OS.NewProcess(c.spec.Name)
	t.end()
	if err != nil {
		return fail("start", err)
	}
	t.begin("workload.build")
	prog, err := c.spec.Build(proc, f.p.Scale)
	t.end()
	if err != nil {
		return fail("build", err)
	}
	t.begin("accel.launch")
	sys.ATS.Activate(sys.Name, proc.ASID())
	if sys.BC != nil {
		err = sys.BC.ProcessStart(proc.ASID())
	}
	if err == nil {
		err = sys.GPU.Launch(prog, proc.ASID())
	}
	t.end()
	if err != nil {
		return fail("launch", err)
	}
	t.begin("sim.run")
	sys.Eng.Run()
	t.end()
	if !sys.GPU.Finished() {
		return fail("hang", fmt.Errorf("simulation drained with the kernel incomplete"))
	}
	if gerr := sys.GPU.Err(); gerr != nil {
		return fail("abort", gerr)
	}
	out := fig4Out{cycles: sys.GPU.Cycles(), ops: prog.Ops(), snap: sys.Metrics.Snapshot()}
	if sys.BC != nil {
		sys.BC.ProcessComplete(sys.GPU.FinishTime(), proc.ASID())
	}
	sys.ATS.Deactivate(sys.Name, proc.ASID())
	if prog.Verify != nil {
		t.begin("workload.verify")
		err = prog.Verify(proc)
		t.end()
		if err != nil {
			return fail("verify", err)
		}
	}
	return out, nil
}

func (f *fig4) finish(ctx context.Context, st *runState) error {
	_, failed := st.counts()
	st.check("fig4 rendered Figure 4 equals RESULTS.txt (both classes)", failed == 0,
		fmt.Sprintf("%d batches", len(st.base)+len(st.traced)))
	for _, res := range f.last {
		if len(res.GeoMean) == 0 {
			continue
		}
		var parts []string
		for i, mode := range harness.SafeModes() {
			model := res.GeoMean[mode] * 100
			paper := paperGeomeans[res.Class][i]
			parts = append(parts, fmt.Sprintf("%v %.2f%% vs paper %.2f%% (%+.2f pp)", mode, model, paper, model-paper))
		}
		st.note("geomean overhead, %s GPU: %s", res.Class, strings.Join(parts, "; "))
	}
	if !st.cfg.traced {
		return nil
	}
	// The record-once ceiling: one tracerec.Record per Rodinia workload.
	t := st.spans.track("fig4/record")
	var total time.Duration
	for _, spec := range f.specs {
		start := time.Now()
		t.begin("tracerec.record")
		_, err := tracerec.Record(spec, f.p.Scale)
		t.end()
		if err != nil {
			return fmt.Errorf("recording %s: %w", spec.Name, err)
		}
		total += time.Since(start)
	}
	st.layers["tracerec.record_s"] = total.Seconds()
	return ctx.Err()
}
