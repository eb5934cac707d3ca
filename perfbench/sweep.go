package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/core"
	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
)

// sweepSeeds is the number of traces per traffic shape: 4 shapes × 28
// seeds × 18 configurations is a 2016-cell grid, twice `bctool sweep`'s
// 1008, so that each batch's p99 cell latency has 20 cells beyond it.
const sweepSeeds = 28

// sweep replays generated traffic through the full mode × border × class
// grid with harness.RunSweepExec. Its cost is per cell (system assembly,
// replay build, exit teardown, GC); workload.Spec.Build does no work here.
type sweep struct {
	cfg   config
	cells []harness.SweepCell
	// gens holds the traffic-generation time of each set-up.
	gens []time.Duration
	// rows are the first untraced batch's rows, for finish's probe check.
	rows []harness.SweepRow
}

func (s *sweep) close() {}

// setup generates the traces — 4 shapes × sweepSeeds seeds derived from
// the workload seed — and expands the grid.
func (s *sweep) setup(context.Context) error {
	start := time.Now()
	traces := map[string]*tracerec.Trace{}
	var names []string
	for _, shape := range traffic.Shapes() {
		for k := 1; k <= sweepSeeds; k++ {
			seed := uint64(s.cfg.seed)*1000 + uint64(k)
			tr, err := traffic.Generate(traffic.Config{Shape: shape, Seed: seed, Workers: s.cfg.jobs})
			if err != nil {
				return err
			}
			name := fmt.Sprintf("%s-s%d", shape, seed)
			traces[name] = tr
			names = append(names, name)
		}
	}
	s.gens = append(s.gens, time.Since(start))
	classes := []harness.GPUClass{harness.HighlyThreaded, harness.ModeratelyThreaded}
	s.cells = harness.RecordedCells(traces, names, harness.Modes(), core.Designs(), classes, harness.DefaultParams(), 0)
	return harness.ValidateCells(s.cells)
}

func (s *sweep) batch(ctx context.Context, sp *spans) (batch, error) {
	var b batch
	onDone := func(r exp.Result) {
		b.jobs = append(b.jobs, r.Elapsed)
		b.busy += r.Elapsed
		if r.Err != nil {
			b.failed++
		}
	}
	start := time.Now()
	var rows []harness.SweepRow
	var err error
	b.layers = map[string]float64{}
	if sp == nil {
		rows, err = harness.RunSweepExec(ctx, harness.Exec{Jobs: s.cfg.jobs, Progress: onDone}, s.cells)
	} else {
		rows, err = exp.Map(ctx, &exp.Runner{Workers: s.cfg.jobs, OnDone: onDone}, s.cells,
			func(_ int, c harness.SweepCell) string { return c.Label },
			func(_ context.Context, c harness.SweepCell) (harness.SweepRow, error) {
				row, _, err := tracedSweepCell(sp.track("sweep/"+c.Label), c)
				return row, err
			})
	}
	b.wall = time.Since(start)
	b.attempted = len(s.cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		b.failed = max(b.failed, 1)
		return b, nil
	}
	for _, r := range rows {
		b.events += r.Events
		b.layers["sweep.probes_denied"] += float64(r.Denied)
	}
	b.layers["sim.events"] = float64(b.events)
	if sp == nil && s.rows == nil {
		s.rows = rows
	}
	b.model = harness.SweepCSV(rows)
	return b, nil
}

// tracedSweepCell is harness.RunCell rebuilt from the public calls
// harness.RunTraceCtx makes, each wrapped in a span. Its row must equal
// RunCell's. It also returns how many granted probes hit a page the
// segment's process does not hold with the access's permission.
func tracedSweepCell(t *track, c harness.SweepCell) (harness.SweepRow, uint64, error) {
	t.begin("cell")
	defer t.end()
	tr := c.Trace
	fail := func(stage string, err error) (harness.SweepRow, uint64, error) {
		return harness.SweepRow{}, 0, &harness.RunError{Workload: tr.Workload, Mode: c.Mode, Class: c.Class, Stage: stage, Err: err}
	}
	if c.Shards > 0 {
		return fail("start", fmt.Errorf("traced cells run on the direct engine only"))
	}
	t.begin("harness.system")
	sys, err := harness.NewSystem(c.Mode, c.Class, c.P)
	t.end()
	if err != nil {
		return harness.SweepRow{}, 0, err
	}
	sys.OS.KeepProcessOnViolation = true
	row := harness.SweepRow{Label: c.Label}
	var foreign uint64
	for si := range tr.Segments {
		seg := &tr.Segments[si]
		stage, err := tracedSegment(t, sys, seg, &row, &foreign)
		if err != nil {
			if stage == "verify" {
				return harness.SweepRow{}, 0, fmt.Errorf("%s: segment %s verify: %w", c.Label, seg.Name, err)
			}
			return fail(stage, fmt.Errorf("segment %d (%s): %w", si, seg.Name, err))
		}
	}
	eng := sys.Eng
	row.SimPs = eng.Now()
	row.Events = eng.Fired()
	if sys.BC != nil {
		row.BCChecks = sys.BC.CrossingChecks()
		if bcc := sys.BC.Cache(); bcc != nil {
			row.BCCMiss = bcc.CheckHitMiss.MissRatio()
		}
	}
	snap := sys.Metrics.Snapshot()
	lat := snap.Hist("border.latency_ps.bcc_hit").
		Merge(snap.Hist("border.latency_ps.pt_walk")).
		Merge(snap.Hist("border.latency_ps.denied"))
	row.CheckP50 = lat.Permille(500)
	row.CheckP99 = lat.Permille(990)
	row.CheckP999 = lat.Permille(999)
	return row, foreign, nil
}

// tracedSegment runs one segment of a trace as harness.RunTraceCtx does and
// adds its ops and probe outcomes to row, and to foreign the granted probes
// on pages the process does not hold. On failure it names the stage.
func tracedSegment(t *track, sys *harness.System, seg *tracerec.Segment, row *harness.SweepRow, foreign *uint64) (string, error) {
	t.begin("segment")
	defer t.end()
	eng := sys.Eng
	t.begin("hostos.start")
	proc, err := sys.OS.NewProcess(seg.Name)
	t.end()
	if err != nil {
		return "start", err
	}
	t.begin("tracerec.segment")
	prog, err := tracerec.BuildSegment(proc, seg)
	t.end()
	if err != nil {
		return "build", err
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
		return "launch", err
	}
	opsBefore := sys.GPU.OpsDone.Value()
	segStart := eng.Now()
	if len(seg.Probes) > 0 {
		// The adversary fabricates physical requests at the recorded
		// offsets from this segment's launch, claiming its identity.
		trojan := accel.NewTrojan(sys.Port)
		trojan.ASID = proc.ASID()
		for _, pr := range seg.Probes {
			pr := pr
			eng.At(segStart+pr.At, func() {
				granted := false
				if pr.Kind == arch.Write {
					granted = trojan.TryWrite(eng.Now(), pr.Addr, [arch.BlockSize]byte{})
				} else {
					_, granted = trojan.TryRead(eng.Now(), pr.Addr)
				}
				if granted {
					row.Granted++
					if !holds(proc, pr) {
						*foreign++
					}
				} else {
					row.Denied++
				}
			})
		}
	}
	t.begin("sim.run")
	eng.Run()
	t.end()
	if !sys.GPU.Finished() {
		return "hang", fmt.Errorf("simulation drained with the kernel incomplete")
	}
	if gerr := sys.GPU.Err(); gerr != nil {
		return "abort", gerr
	}
	row.Ops += sys.GPU.OpsDone.Value() - opsBefore
	if sys.BC != nil {
		sys.BC.ProcessComplete(sys.GPU.FinishTime(), proc.ASID())
	}
	sys.ATS.Deactivate(sys.Name, proc.ASID())
	var verr error
	if prog.Verify != nil {
		t.begin("tracerec.verify")
		verr = prog.Verify(proc)
		t.end()
	}
	t.begin("hostos.exit")
	sys.OS.Exit(proc)
	t.end()
	if verr != nil {
		return "verify", verr
	}
	return "", nil
}

// holds reports whether proc maps the probed page with the permission the
// probe's access needs.
func holds(proc *hostos.Process, pr tracerec.Probe) bool {
	need := arch.PermRead
	if pr.Kind == arch.Write {
		need = arch.PermWrite
	}
	held := false
	proc.ForEachMapped(func(_ arch.VPN, ppn arch.PPN, perm arch.Perm) {
		if ppn == pr.Addr.PageOf() && perm.Allows(need) {
			held = true
		}
	})
	return held
}

func (s *sweep) finish(_ context.Context, st *runState) error {
	var gens []float64
	for _, g := range s.gens {
		gens = append(gens, g.Seconds())
	}
	st.layers["traffic.generate_s"] = median(gens)
	_, failed := st.counts()
	denied := 0.0
	if len(st.base) > 0 {
		denied = st.base[0].layers["sweep.probes_denied"]
	}
	st.check("sweep segments verify", failed == 0 && denied > 0,
		fmt.Sprintf("%d cells and %.0f denied probes per batch", len(s.cells), denied))

	// Output check: Border Control grants a probe only on a page the
	// process holds. The probes are random physical addresses, so one can
	// land on a page the segment owns, where the grant is correct (about
	// one --seed in forty); the harness rows cannot tell the two apart. So
	// the Border Control cells with probes are replayed once, untimed,
	// through the benchmark's own cell path, which classifies each grant,
	// and the harness rows must match that replay.
	t := newSpans().track("sweep/probe-check")
	var replayed, bad int
	var breaches, owned uint64
	for i, c := range s.cells {
		if (c.Mode != harness.BCNoBCC && c.Mode != harness.BCBCC) || !hasProbes(c.Trace) {
			continue
		}
		replayed++
		row, foreign, err := tracedSweepCell(t, c)
		if err != nil || foreign > 0 || s.rows == nil ||
			row.Granted != s.rows[i].Granted || row.Denied != s.rows[i].Denied {
			fmt.Fprintf(os.Stderr, "sweep: %s: %d probe(s) granted outside the process's pages, err %v\n", c.Label, foreign, err)
			bad++
		}
		breaches += foreign
		owned += row.Granted - foreign
	}
	st.extraAttempted += replayed
	st.extraFailed += bad
	st.check("Border Control grants no probe outside the process's pages", bad == 0 && replayed > 0,
		fmt.Sprintf("%d cells replayed, %d breaches, %d grants on the segment's own pages", replayed, breaches, owned))
	return nil
}

func hasProbes(tr *tracerec.Trace) bool {
	for _, seg := range tr.Segments {
		if len(seg.Probes) > 0 {
			return true
		}
	}
	return false
}
