package serve

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"bordercontrol/internal/adversary"
	"bordercontrol/internal/core"
	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
	"bordercontrol/internal/workload"
)

// Request is one job: a type tag plus exactly the matching spec. Each job
// kind is declared once, in this file: its command-line flags (Flags), its
// admission checks (Validate) and its plan and run, which both front ends
// execute — `bctool X` in-process through Run, and `bctool submit X`
// through the daemon's executor. A zero spec field, in Go or in JSON,
// selects the default.
//
// Everything in a Request is part of the artifact's identity except the
// execution-only knobs (SweepSpec.Workers), which the cache key strips —
// the whole point of the determinism guarantees is that execution shape
// never changes output.
type Request struct {
	// Type is "run", "sweep", "adversary" or "fleet".
	Type      string         `json:"type"`
	Run       *RunSpec       `json:"run,omitempty"`
	Sweep     *SweepSpec     `json:"sweep,omitempty"`
	Adversary *AdversarySpec `json:"adversary,omitempty"`
	Fleet     *FleetSpec     `json:"fleet,omitempty"`
}

// Env is what a job runs with besides its spec: host parallelism and a
// progress sink, which never change the artifact, and what only the local
// command line adds.
type Env struct {
	// Jobs bounds host parallelism (0 = GOMAXPROCS).
	Jobs int
	// Progress, when non-nil, receives the job's progress notes.
	Progress func(msg string)

	// The daemon leaves the rest zero.

	// Timeout bounds each simulation (0 = none).
	Timeout time.Duration
	// Shards runs the adversary's campaign systems on the sharded engine
	// (0 = direct engine); the other kinds carry shards in their spec.
	Shards int
	// Tracer, when non-nil, records a run's Chrome trace.
	Tracer *trace.Tracer
	// Traces are recordings the local command line read from files (the
	// daemon reads no client files): a run replays its one recording
	// instead of building the workload (`bctool replay`), and a sweep adds
	// each to its grid under its workload name (`bctool sweep -traces`).
	Traces []*tracerec.Trace

	// noTraffic leaves a sweep's synthetic traces out (`bctool sweep
	// -traffic ''`), so it sweeps Traces alone.
	noTraffic bool
	// workers is the daemon's default sweep fan-out, and pool its warm
	// worker processes.
	workers int
	pool    *workerPool
}

func (e Env) note(format string, args ...any) {
	if e.Progress != nil {
		e.Progress(fmt.Sprintf(format, args...))
	}
}

// bound applies Timeout to a job that is one simulation.
func (e Env) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.Timeout > 0 {
		return context.WithTimeout(ctx, e.Timeout)
	}
	return ctx, func() {}
}

// spec is what every job kind implements. flags declares the kind's
// command-line flags and returns the check that finishes the spec once
// they are parsed. validate is the daemon's admission check, which holds
// its caps and generates nothing. plan does the job's up-front work once,
// in either front end: it returns the job's input traces, which the
// daemon's cache key hashes, and its run, which yields the artifact plus
// a metrics snapshot the artifact never depends on.
type spec interface {
	flags(fs *flag.FlagSet, env *Env) func() error
	validate() error
	plan(env Env) (inputs []*tracerec.Trace, run runFunc, err error)
}

type runFunc func(ctx context.Context) (artifact string, snap stats.Snapshot, err error)

// Flags declares job kind typ's flags on fs — names, defaults and help,
// one declaration for `bctool typ` and `bctool submit typ` — and returns
// the function that, after fs.Parse, yields the Request they spell. A value
// the spec cannot carry, because its zero there selects the default, is
// refused with an error naming the flag. env is the local command's
// environment, nil for a submission; the two differ only in that a
// submitted sweep also takes -workers, and a local one may sweep its
// recorded traces alone.
func Flags(typ string, fs *flag.FlagSet, env *Env) (func() (Request, error), error) {
	req := Request{Type: typ}
	switch typ {
	case "run":
		req.Run = &RunSpec{}
	case "sweep":
		req.Sweep = &SweepSpec{}
	case "adversary":
		req.Adversary = &AdversarySpec{}
	case "fleet":
		req.Fleet = &FleetSpec{}
	}
	sp, err := req.spec()
	if err != nil {
		return nil, err
	}
	finish := sp.flags(fs, env)
	return func() (Request, error) { return req, finish() }, nil
}

// Run executes req in this process: its plan, then its run, with env's
// host parallelism and progress sink. It starts no worker process, and the
// daemon's admission caps do not apply. It is `bctool X`; the daemon's
// executor calls the same plan and run around its cache and worker pool,
// so `bctool submit X` serves the same bytes.
func Run(ctx context.Context, req Request, env Env) (artifact string, snap stats.Snapshot, err error) {
	sp, err := req.spec()
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	_, run, err := sp.plan(env)
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	return run(ctx)
}

// Validate checks the request is well-formed: a known type with exactly
// its spec present and valid, and inside the daemon's caps. It is called
// at submission (HTTP 400), so a malformed request never occupies a queue
// slot.
func (r Request) Validate() error {
	s, err := r.spec()
	if err != nil {
		return err
	}
	return s.validate()
}

func (r Request) spec() (spec, error) {
	n := 0
	for _, p := range []bool{r.Run != nil, r.Sweep != nil, r.Adversary != nil, r.Fleet != nil} {
		if p {
			n++
		}
	}
	if n > 1 {
		return nil, fmt.Errorf("serve: request carries %d specs, want exactly the %q one", n, r.Type)
	}
	switch r.Type {
	case "run":
		if r.Run == nil {
			return nil, fmt.Errorf("serve: type %q without a run spec", r.Type)
		}
		return r.Run, nil
	case "sweep":
		if r.Sweep == nil {
			return nil, fmt.Errorf("serve: type %q without a sweep spec", r.Type)
		}
		return r.Sweep, nil
	case "adversary":
		if r.Adversary == nil {
			return nil, fmt.Errorf("serve: type %q without an adversary spec", r.Type)
		}
		return r.Adversary, nil
	case "fleet":
		if r.Fleet == nil {
			return nil, fmt.Errorf("serve: type %q without a fleet spec", r.Type)
		}
		return r.Fleet, nil
	default:
		return nil, fmt.Errorf("serve: unknown job type %q (run, sweep, adversary, fleet)", r.Type)
	}
}

// atLeastOne refuses a flag value below 1, which no spec can carry: a
// spec reads 0 as its default.
func atLeastOne(name string, v int64) error {
	if v < 1 {
		return fmt.Errorf("-%s %d: want at least 1", name, v)
	}
	return nil
}

// nonzeroSeed refuses -seed 0, which a spec reads as the default seed 1.
func nonzeroSeed(seed int64) error {
	if seed == 0 {
		return errors.New("-seed 0: want a nonzero seed (a spec reads 0 as the default, 1)")
	}
	return nil
}

// params is DefaultParams with a spec's border and scale; zero keeps the
// default of either.
func params(border string, scale int) (harness.Params, error) {
	p := harness.DefaultParams()
	if border != "" {
		if !core.KnownDesign(border) {
			return p, fmt.Errorf("serve: unknown border design %q (have %v)", border, core.Designs())
		}
		p.Border = border
	}
	if scale > 0 {
		p.Scale = scale
	}
	return p, nil
}

// hostNote is the host-side self-measurement of a job that is one
// simulation.
func hostNote(h harness.HostStats) string {
	return fmt.Sprintf("host: %s wall, %d events, %.0f events/sec",
		h.Wall.Round(time.Millisecond), h.Events, h.EventsPerSec)
}

// RunSpec executes one workload — `bctool run`.
type RunSpec struct {
	Workload string `json:"workload"`
	// Mode is a mode slug (ats-only, full-iommu, capi-like, bc-nobcc,
	// bc-bcc); Class is high or mod(erate).
	Mode   string `json:"mode"`
	Class  string `json:"class"`
	Border string `json:"border,omitempty"`
	Scale  int    `json:"scale,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// DowngradesPerSec injects periodic permission downgrades.
	DowngradesPerSec float64 `json:"downgrades_per_sec,omitempty"`
}

func (s *RunSpec) flags(fs *flag.FlagSet, _ *Env) func() error {
	fs.StringVar(&s.Workload, "workload", "bfs", "workload name (see bctool list)")
	fs.StringVar(&s.Mode, "mode", "bc-bcc", "safety configuration (see bctool list)")
	fs.StringVar(&s.Class, "class", "high", "GPU class: high or moderate")
	fs.StringVar(&s.Border, "border", "", "border design for the BC modes (see bctool list; default "+core.DefaultDesign+")")
	fs.Float64Var(&s.DowngradesPerSec, "downgrades", 0, "permission downgrades per second to inject")
	fs.IntVar(&s.Scale, "scale", 1, "workload problem-size multiplier")
	fs.IntVar(&s.Shards, "shards", 0, "run on the sharded engine with this many workers (0 = direct engine); results are bit-identical either way")
	return func() error { return atLeastOne("scale", int64(s.Scale)) }
}

func (s *RunSpec) validate() error {
	if _, _, err := s.plan(Env{}); err != nil {
		return err
	}
	if s.Scale < 0 || s.Shards < 0 || s.DowngradesPerSec < 0 {
		return fmt.Errorf("serve: run spec has negative knobs")
	}
	return nil
}

// plan resolves the run: the spec's workload, or the local command line's
// one recording. A single benign segment of a known workload replays
// through the live run's path and report, byte for byte; any other
// recording (multi-tenant churn, probed mixes) goes through the trace
// runner.
func (s *RunSpec) plan(env Env) ([]*tracerec.Trace, runFunc, error) {
	mode, err := harness.ParseModeSlug(s.Mode)
	if err != nil {
		return nil, nil, err
	}
	class, err := harness.ParseClassSlug(s.Class)
	if err != nil {
		return nil, nil, err
	}
	p, err := params(s.Border, s.Scale)
	if err != nil {
		return nil, nil, err
	}
	var sw workload.Spec
	var traceRun *tracerec.Trace
	switch len(env.Traces) {
	case 0:
		var ok bool
		if sw, ok = workload.ByName(s.Workload); !ok {
			return nil, nil, fmt.Errorf("serve: unknown workload %q (have %v)", s.Workload, workload.Names())
		}
	case 1:
		rec := env.Traces[0]
		if _, known := workload.ByName(rec.Workload); !known || len(rec.Segments) != 1 || len(rec.Segments[0].Probes) != 0 {
			traceRun = rec
		} else if sw, err = tracerec.ReplaySpec(rec); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("serve: a run replays one recording, not %d", len(env.Traces))
	}
	opts := harness.RunOptions{DowngradesPerSec: s.DowngradesPerSec, Shards: s.Shards, Tracer: env.Tracer}
	return nil, func(ctx context.Context) (string, stats.Snapshot, error) {
		ctx, cancel := env.bound(ctx)
		defer cancel()
		if traceRun != nil {
			res, err := harness.RunTraceCtx(ctx, mode, class, traceRun, p, opts)
			if err != nil {
				return "", stats.Snapshot{}, err
			}
			env.note("%s", hostNote(res.Host))
			art, err := traceReport(res)
			return art, res.Stats, err
		}
		res, err := harness.RunCtx(ctx, mode, class, sw, p, opts)
		if err != nil {
			return "", stats.Snapshot{}, err
		}
		env.note("%s", hostNote(res.Host))
		art, err := runReport(res)
		return art, res.Stats, err
	}, nil
}

// runReport is a run's artifact, the `bctool run` report and its results
// line, and its verdict: wrong results fail the job and keep the report.
func runReport(res harness.RunResult) (string, error) {
	if res.VerifyErr != nil {
		return res.Render() + fmt.Sprintf("results       INCORRECT: %v\n", res.VerifyErr),
			fmt.Errorf("results INCORRECT: %w", res.VerifyErr)
	}
	return res.Render() + "results       verified correct\n", nil
}

// traceReport is the report of a replayed multi-segment or probed
// recording. A segment image mismatch fails it, as does a safe mode
// granting any adversarial probe: a sandbox breach.
func traceReport(res harness.TraceRunResult) (string, error) {
	var granted, denied uint64
	var verifyErr error
	for _, s := range res.Segments {
		granted += s.ProbesGranted
		denied += s.ProbesDenied
		if s.VerifyErr != nil && verifyErr == nil {
			verifyErr = fmt.Errorf("segment %s: %w", s.Name, s.VerifyErr)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace         %s (%d segments)\n", res.Workload, len(res.Segments))
	fmt.Fprintf(&b, "mode          %v\n", res.Mode)
	fmt.Fprintf(&b, "class         %v\n", res.Class)
	fmt.Fprintf(&b, "sim time      %.3f ms\n", float64(res.SimTime)/1e9)
	fmt.Fprintf(&b, "memory ops    %d\n", res.Ops)
	if res.Mode == harness.BCNoBCC || res.Mode == harness.BCBCC {
		fmt.Fprintf(&b, "BC checks     %d\n", res.BCChecks)
		fmt.Fprintf(&b, "BCC miss      %.4f\n", res.BCCMissRatio)
	}
	if granted+denied > 0 {
		fmt.Fprintf(&b, "probes        %d granted, %d denied\n", granted, denied)
	}
	if verifyErr != nil {
		fmt.Fprintf(&b, "results       INCORRECT: %v\n", verifyErr)
		return b.String(), fmt.Errorf("results INCORRECT: %w", verifyErr)
	}
	if res.Mode.Safe() && granted > 0 {
		err := fmt.Errorf("sandbox BREACHED: %d adversarial probe(s) granted under %v", granted, res.Mode)
		fmt.Fprintf(&b, "results       %v\n", err)
		return b.String(), err
	}
	b.WriteString("results       verified correct\n")
	return b.String(), nil
}

// Sweep-spec caps. Validate refuses a spec past any cap at submission,
// with nothing generated; the executor then generates a sweep's traces
// once, in its plan. One of the costliest specs inside the caps (all four
// shapes, 256 seeds, 64 segments, wavefronts of 7 ops) plans in about
// 0.14 s and allocates about 79 MB on a 2-CPU Xeon @ 2.10 GHz. The caps
// bind submissions only: `bctool sweep` runs any grid its host can.
const (
	// MaxSweepSeeds bounds SweepSpec.Seeds.
	MaxSweepSeeds = 256
	// MaxSweepGenSize bounds GenSegments and GenWavefronts.
	MaxSweepGenSize = 64
	// MaxSweepOps bounds GenOps, and the memory operations of all a
	// sweep's traces together.
	MaxSweepOps = 1 << 18
	// MaxSweepWorkers bounds SweepSpec.Workers, the worker processes one
	// job may start.
	MaxSweepWorkers = 64
)

// SweepSpec executes a synthetic-traffic replay grid — `bctool sweep`.
type SweepSpec struct {
	// Traffic lists generator shapes (empty = all); Seeds traces per shape
	// (default 1), named "<shape>-s<seed>".
	Traffic []string `json:"traffic,omitempty"`
	Seeds   int      `json:"seeds,omitempty"`
	// Modes are mode slugs (empty = all five, in the paper's order);
	// Borders border designs for the BC modes (empty = all registered);
	// Classes is both, high or moderate (default both).
	Modes   []string `json:"modes,omitempty"`
	Borders []string `json:"borders,omitempty"`
	Classes string   `json:"classes,omitempty"`
	Shards  int      `json:"shards,omitempty"`
	// CSV selects the CSV rendering instead of the text table.
	CSV bool `json:"csv,omitempty"`
	// Workers overrides the daemon's worker-process fan-out for this job:
	// 0 = daemon default, negative = force in-process, at most
	// MaxSweepWorkers. Execution shape only — the artifact is
	// byte-identical at any value, and the cache key ignores it.
	Workers int `json:"workers,omitempty"`
	// GenSegments/GenWavefronts/GenOps shrink the synthetic generators
	// (0 = shape default); they exist so tests and demos can run tiny
	// grids.
	GenSegments   int `json:"gen_segments,omitempty"`
	GenWavefronts int `json:"gen_wavefronts,omitempty"`
	GenOps        int `json:"gen_ops,omitempty"`
}

func (s *SweepSpec) flags(fs *flag.FlagSet, env *Env) func() error {
	traffic := fs.String("traffic", "all", "comma-separated synthetic shapes (see bctool list), or 'all'")
	fs.IntVar(&s.Seeds, "seeds", 1, "seeds per shape (1..N, one trace each)")
	modes := fs.String("modes", "all", "comma-separated modes (see bctool list), or 'all'")
	borders := fs.String("borders", "all", "comma-separated border designs for the BC modes, or 'all'")
	fs.StringVar(&s.Classes, "classes", "both", "GPU classes: high, moderate, or both")
	fs.IntVar(&s.Shards, "shards", 0, "run each cell on the sharded engine with this many workers (0 = direct engine); output is byte-identical at any setting")
	fs.BoolVar(&s.CSV, "csv", false, "emit CSV instead of a text table")
	if env == nil {
		fs.IntVar(&s.Workers, "workers", 0, fmt.Sprintf("worker processes (0 = daemon default, negative = in-process, at most %d)", MaxSweepWorkers))
	}
	return func() error {
		var err error
		if env != nil && len(splitList(*traffic)) == 0 {
			env.noTraffic = true // the local command line sweeps its recordings alone
		} else if s.Traffic, err = axis("traffic", *traffic); err != nil {
			return err
		}
		if s.Modes, err = axis("modes", *modes); err != nil {
			return err
		}
		if s.Borders, err = axis("borders", *borders); err != nil {
			return err
		}
		return atLeastOne("seeds", int64(s.Seeds))
	}
}

// axis turns a list flag into a sweep axis. 'all' is the spec's empty
// list; an empty flag value is refused, since the spec cannot carry it.
func axis(name, v string) ([]string, error) {
	if v == "all" {
		return nil, nil
	}
	list := splitList(v)
	if len(list) == 0 {
		return nil, fmt.Errorf("-%s %q: want a comma-separated list, or 'all'", name, v)
	}
	return list, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// sweepAxes is a sweep spec resolved as far as it goes without a trace.
type sweepAxes struct {
	shapes  []string
	seeds   int
	modes   []harness.Mode
	borders []string
	classes []harness.GPUClass
}

// axes resolves the shapes and seeds, the mode slugs, the border names
// and the class list. An axis naming a value twice is refused first: it
// could only yield duplicate trace names or cell labels, after expanding
// the whole grid.
func (s *SweepSpec) axes() (sweepAxes, error) {
	for _, axis := range []struct {
		name string
		vals []string
	}{{"traffic", s.Traffic}, {"modes", s.Modes}, {"borders", s.Borders}} {
		seen := map[string]bool{}
		for _, v := range axis.vals {
			if seen[v] {
				return sweepAxes{}, fmt.Errorf("serve: sweep %s lists %q twice", axis.name, v)
			}
			seen[v] = true
		}
	}
	a := sweepAxes{shapes: traffic.Shapes(), seeds: max(s.Seeds, 1), modes: harness.Modes(), borders: core.Designs()}
	if len(s.Traffic) > 0 {
		a.shapes = s.Traffic
	}
	if len(s.Modes) > 0 {
		a.modes = a.modes[:0]
		for _, ms := range s.Modes {
			m, err := harness.ParseModeSlug(ms)
			if err != nil {
				return sweepAxes{}, err
			}
			a.modes = append(a.modes, m)
		}
	}
	if len(s.Borders) > 0 {
		a.borders = s.Borders
		for _, b := range a.borders {
			if !core.KnownDesign(b) {
				return sweepAxes{}, fmt.Errorf("serve: unknown border design %q (have %v)", b, core.Designs())
			}
		}
	}
	var err error
	a.classes, err = harness.ParseClassList(s.Classes)
	return a, err
}

func (s *SweepSpec) validate() error {
	a, err := s.axes()
	if err != nil {
		return err
	}
	if s.Shards < 0 {
		return fmt.Errorf("serve: negative shards")
	}
	return s.bound(a.shapes, a.seeds)
}

// bound refuses a spec past the sweep caps before any of its traces is
// generated: the op total is summed from the generator sizes alone.
func (s *SweepSpec) bound(shapes []string, seeds int) error {
	if seeds > MaxSweepSeeds {
		return fmt.Errorf("serve: sweep seeds %d over the limit of %d", seeds, MaxSweepSeeds)
	}
	for _, knob := range []struct {
		name   string
		v, max int
	}{
		{"gen_segments", s.GenSegments, MaxSweepGenSize},
		{"gen_wavefronts", s.GenWavefronts, MaxSweepGenSize},
		{"gen_ops", s.GenOps, MaxSweepOps},
		{"workers", s.Workers, MaxSweepWorkers},
	} {
		if knob.v > knob.max {
			return fmt.Errorf("serve: sweep %s %d over the limit of %d", knob.name, knob.v, knob.max)
		}
	}
	var total uint64
	for _, shape := range shapes {
		n, err := traffic.Ops(traffic.Config{Shape: shape, Segments: s.GenSegments, Wavefronts: s.GenWavefronts, Ops: s.GenOps})
		if err != nil {
			return err
		}
		if total += n * uint64(seeds); total > MaxSweepOps {
			return fmt.Errorf("serve: sweep traces total over the limit of %d memory operations", MaxSweepOps)
		}
	}
	return nil
}

// cells expands the spec into its grid and returns it with its input
// traces in name order: shapes x seeds generate traces named
// "<shape>-s<seed>", env's recordings join them under their workload
// names, and RecordedCells crosses them with the mode/border/class axes
// over DefaultParams.
func (s *SweepSpec) cells(env Env) ([]harness.SweepCell, []*tracerec.Trace, error) {
	a, err := s.axes()
	if err != nil {
		return nil, nil, err
	}
	traces := map[string]*tracerec.Trace{}
	var names []string
	var inputs []*tracerec.Trace
	add := func(name string, tr *tracerec.Trace) error {
		if _, dup := traces[name]; dup {
			return fmt.Errorf("sweep: duplicate trace name %q", name)
		}
		traces[name] = tr
		names = append(names, name)
		inputs = append(inputs, tr)
		return nil
	}
	if env.noTraffic {
		a.shapes = nil
	}
	for _, shape := range a.shapes {
		for seed := 1; seed <= a.seeds; seed++ {
			tr, err := traffic.Generate(traffic.Config{
				Shape: shape, Seed: uint64(seed),
				Segments: s.GenSegments, Wavefronts: s.GenWavefronts, Ops: s.GenOps,
			})
			if err != nil {
				return nil, nil, err
			}
			if err := add(fmt.Sprintf("%s-s%d", shape, seed), tr); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, tr := range env.Traces {
		if err := add(tr.Workload, tr); err != nil {
			return nil, nil, err
		}
	}
	if len(names) == 0 {
		return nil, nil, errors.New("sweep: no traces (-traffic '' and no -traces)")
	}
	return harness.RecordedCells(traces, names, a.modes, a.borders, a.classes, harness.DefaultParams(), s.Shards), inputs, nil
}

// plan generates the sweep's traces, once per job; the run executes the
// planned cells, fanned out over the daemon's warm workers or in this
// process.
func (s *SweepSpec) plan(env Env) ([]*tracerec.Trace, runFunc, error) {
	cells, inputs, err := s.cells(env)
	if err != nil {
		return nil, nil, err
	}
	return inputs, func(ctx context.Context) (string, stats.Snapshot, error) {
		// Only the daemon fans out: the worker processes are its pool's.
		workers := 0
		if env.pool != nil {
			if workers = s.Workers; workers == 0 {
				workers = env.workers
			}
			workers = max(workers, 0)
		}
		env.note("sweep: %d cells, workers=%d", len(cells), workers)
		rows, err := SweepFanout(ctx, cells, FanoutConfig{
			Workers: workers, Jobs: env.Jobs, Progress: env.Progress, pool: env.pool,
		})
		if err != nil {
			return "", stats.Snapshot{}, err
		}
		if s.CSV {
			return harness.SweepCSV(rows), sweepRowStats(rows), nil
		}
		return harness.RenderSweep(rows), sweepRowStats(rows), nil
	}, nil
}

// sweepRowStats synthesizes a metrics snapshot from the merged sweep rows.
// Worker-process fan-out moves the per-run registries into subprocesses,
// so the daemon aggregates what crosses the wire: the row totals. Built
// through a Registry so names come out in canonical sorted order.
func sweepRowStats(rows []harness.SweepRow) stats.Snapshot {
	var cellsC, eventsC, opsC, checksC, grantedC, deniedC stats.Counter
	for _, r := range rows {
		cellsC.Inc()
		eventsC.Add(r.Events)
		opsC.Add(r.Ops)
		checksC.Add(r.BCChecks)
		grantedC.Add(r.Granted)
		deniedC.Add(r.Denied)
	}
	reg := stats.NewRegistry()
	sc := reg.Scope("sweep")
	sc.Counter("cells", &cellsC)
	sc.Counter("events", &eventsC)
	sc.Counter("ops", &opsC)
	sc.Counter("bc_checks", &checksC)
	sc.Counter("probes.granted", &grantedC)
	sc.Counter("probes.denied", &deniedC)
	return reg.Snapshot()
}

// AdversarySpec runs seeded sandbox-escape campaigns — `bctool
// adversary`. A breached sandbox fails the job; the report is the
// artifact either way.
type AdversarySpec struct {
	Seed      int64    `json:"seed,omitempty"`
	Campaigns int      `json:"campaigns,omitempty"`
	Attacks   []string `json:"attacks,omitempty"`
	Border    string   `json:"border,omitempty"`
}

// An adversary spec's zero Seed and Campaigns select these.
const (
	defaultAdversarySeed = 1
	defaultCampaigns     = 4
)

func (s *AdversarySpec) flags(fs *flag.FlagSet, _ *Env) func() error {
	fs.Int64Var(&s.Seed, "seed", defaultAdversarySeed, "base campaign seed (campaign i uses seed+i)")
	fs.IntVar(&s.Campaigns, "campaigns", defaultCampaigns, "number of campaigns (each rotates the protocol variant)")
	attacks := fs.String("attacks", "", "comma-separated attack names (empty = all: "+strings.Join(adversary.AttackNames(), ",")+")")
	fs.StringVar(&s.Border, "border", "", "border design under attack (see bctool list; default "+core.DefaultDesign+")")
	return func() error {
		s.Attacks = splitList(*attacks)
		return errors.Join(nonzeroSeed(s.Seed), atLeastOne("campaigns", int64(s.Campaigns)))
	}
}

func (s *AdversarySpec) validate() error {
	if s.Campaigns < 0 {
		return fmt.Errorf("serve: negative campaigns")
	}
	_, _, err := s.plan(Env{})
	return err
}

func (s *AdversarySpec) plan(env Env) ([]*tracerec.Trace, runFunc, error) {
	seed, campaigns := cmp.Or(s.Seed, defaultAdversarySeed), cmp.Or(s.Campaigns, defaultCampaigns)
	p, err := params(s.Border, 0)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range s.Attacks {
		if _, ok := adversary.Lookup(a); !ok {
			return nil, nil, fmt.Errorf("serve: unknown attack %q (have %v)", a, adversary.AttackNames())
		}
	}
	ex := harness.Exec{Jobs: env.Jobs, Timeout: env.Timeout, Shards: env.Shards}
	if env.Progress != nil {
		ex.Progress = func(r exp.Result) { env.Progress(cellNote(r.Name, r.Err)) }
	}
	return nil, func(ctx context.Context) (string, stats.Snapshot, error) {
		rep, err := harness.AdversaryReport(ctx, ex, p, seed, campaigns, s.Attacks)
		if err != nil {
			return "", stats.Snapshot{}, err
		}
		art := adversary.Render(rep)
		if rep.Failed() {
			return art, rep.Stats(), fmt.Errorf("sandbox breached — see the reproducing seeds in the report")
		}
		return art, rep.Stats(), nil
	}, nil
}

// FleetSpec runs a multi-tenant fleet on the sharded engine — `bctool
// fleet`.
type FleetSpec struct {
	Tenants  int    `json:"tenants,omitempty"`
	Mode     string `json:"mode,omitempty"`
	Class    string `json:"class,omitempty"`
	Workload string `json:"workload,omitempty"`
	// ChurnPs/SpreadPs/LookaheadPs are simulated-picosecond knobs.
	// 0 keeps the fleet default; churn and spread accept -1 for an
	// explicit "off" (0 is their default-selector, not a value).
	ChurnPs     int64 `json:"churn_ps,omitempty"`
	SpreadPs    int64 `json:"spread_ps,omitempty"`
	LookaheadPs int64 `json:"lookahead_ps,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	Shards      int   `json:"shards,omitempty"`
	Scale       int   `json:"scale,omitempty"`
}

// defaultFleetWorkload is the workload of a fleet spec's zero Workload.
const defaultFleetWorkload = "pathfinder"

func (s *FleetSpec) flags(fs *flag.FlagSet, _ *Env) func() error {
	def := harness.DefaultFleetParams()
	fs.IntVar(&s.Tenants, "tenants", def.Tenants, "tenant accelerator sandboxes (one shard each, plus the host shard)")
	fs.StringVar(&s.Mode, "mode", "bc-bcc", "safety configuration every tenant runs under (see bctool list)")
	fs.StringVar(&s.Class, "class", "moderate", "GPU class: high or moderate")
	fs.StringVar(&s.Workload, "workload", defaultFleetWorkload, "workload every tenant runs")
	fs.IntVar(&s.Shards, "shards", 0, "worker goroutines executing shards (0 = all cores, 1 = serial); the report is byte-identical at any setting")
	fs.Int64Var(&s.LookaheadPs, "lookahead-ps", int64(def.Lookahead), "host<->accelerator crossing latency in simulated ps (the conservative window)")
	fs.Int64Var(&s.SpreadPs, "spread-ps", int64(def.LaunchSpread), "stagger tenant launches over this much simulated ps (seeded; 0 = launch together)")
	fs.Int64Var(&s.ChurnPs, "churn-ps", int64(def.DowngradeEvery), "host downgrade-command cadence in simulated ps (0 = no churn)")
	fs.Int64Var(&s.Seed, "seed", def.Seed, "seed for launch jitter and churn targeting")
	fs.IntVar(&s.Scale, "scale", 1, "workload problem-size multiplier")
	return func() error {
		// The spec spells "off" -1, for its 0 selects the default.
		for _, ps := range []*int64{&s.ChurnPs, &s.SpreadPs} {
			if *ps <= 0 {
				*ps = -1
			}
		}
		return errors.Join(atLeastOne("tenants", int64(s.Tenants)), atLeastOne("lookahead-ps", s.LookaheadPs),
			atLeastOne("scale", int64(s.Scale)), nonzeroSeed(s.Seed))
	}
}

func (s *FleetSpec) validate() error {
	if _, _, err := s.plan(Env{}); err != nil {
		return err
	}
	if s.Tenants < 0 || s.Shards < 0 || s.Scale < 0 {
		return fmt.Errorf("serve: fleet spec has negative knobs")
	}
	return nil
}

func (s *FleetSpec) plan(env Env) ([]*tracerec.Trace, runFunc, error) {
	fp := harness.DefaultFleetParams()
	if s.Tenants > 0 {
		fp.Tenants = s.Tenants
	}
	if s.Mode != "" {
		m, err := harness.ParseModeSlug(s.Mode)
		if err != nil {
			return nil, nil, err
		}
		fp.Mode = m
	}
	if s.Class != "" {
		c, err := harness.ParseClassSlug(s.Class)
		if err != nil {
			return nil, nil, err
		}
		fp.Class = c
	}
	if s.ChurnPs > 0 {
		fp.DowngradeEvery = sim.Time(s.ChurnPs)
	} else if s.ChurnPs < 0 {
		fp.DowngradeEvery = 0 // explicit no-churn
	}
	if s.SpreadPs > 0 {
		fp.LaunchSpread = sim.Time(s.SpreadPs)
	} else if s.SpreadPs < 0 {
		fp.LaunchSpread = 0
	}
	if s.LookaheadPs > 0 {
		fp.Lookahead = sim.Time(s.LookaheadPs)
	}
	if s.Seed != 0 {
		fp.Seed = s.Seed
	}
	fp.Workers = s.Shards
	name := cmp.Or(s.Workload, defaultFleetWorkload)
	sw, ok := workload.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown workload %q (have %v)", name, workload.Names())
	}
	p, err := params("", s.Scale)
	if err != nil {
		return nil, nil, err
	}
	return nil, func(ctx context.Context) (string, stats.Snapshot, error) {
		ctx, cancel := env.bound(ctx)
		defer cancel()
		res, err := harness.RunFleetCtx(ctx, p, fp, sw)
		if err != nil {
			return "", stats.Snapshot{}, err
		}
		env.note("%s", hostNote(res.Host))
		art := res.Render()
		if res.Verified != res.Tenants {
			return art, res.Stats, fmt.Errorf("%d of %d tenants produced INCORRECT results", res.Tenants-res.Verified, res.Tenants)
		}
		return art, res.Stats, nil
	}, nil
}
