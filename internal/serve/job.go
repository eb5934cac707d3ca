package serve

import (
	"context"
	"fmt"

	"bordercontrol/internal/adversary"
	"bordercontrol/internal/core"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
	"bordercontrol/internal/workload"
)

// Request is one job submission: a type tag plus exactly the matching
// spec. Everything in a Request is part of the artifact's identity except
// the execution-only knobs (SweepSpec.Workers), which the cache key
// strips — the whole point of the determinism guarantees is that
// execution shape never changes output.
type Request struct {
	// Type is "run", "sweep", "adversary" or "fleet".
	Type      string         `json:"type"`
	Run       *RunSpec       `json:"run,omitempty"`
	Sweep     *SweepSpec     `json:"sweep,omitempty"`
	Adversary *AdversarySpec `json:"adversary,omitempty"`
	Fleet     *FleetSpec     `json:"fleet,omitempty"`
}

// jobEnv is the execution context the server hands a spec: host
// parallelism, the default sweep fan-out and the daemon's worker pool, and
// a progress sink.
type jobEnv struct {
	jobs     int
	workers  int
	pool     *workerPool
	progress func(msg string)
}

func (e jobEnv) note(format string, args ...any) {
	if e.progress != nil {
		e.progress(fmt.Sprintf(format, args...))
	}
}

// spec is what every job type implements: validation at submission
// time, which generates nothing, and a plan at execution, which does the
// job's up-front work once. The plan returns the content hash of every
// input trace, which joins the artifact's cache key, and the job's run:
// the artifact plus a metrics snapshot (merged daemon-wide, re-exported on
// /v1/metrics) that the artifact never depends on.
type spec interface {
	validate() error
	plan() (traceHashes []string, run runFunc, err error)
}

type runFunc func(ctx context.Context, env jobEnv) (artifact string, snap stats.Snapshot, err error)

// Runs, adversary campaigns and fleets read no input traces, so their
// plan is their run.
func (s *RunSpec) plan() ([]string, runFunc, error)       { return nil, s.run, nil }
func (s *AdversarySpec) plan() ([]string, runFunc, error) { return nil, s.run, nil }
func (s *FleetSpec) plan() ([]string, runFunc, error)     { return nil, s.run, nil }

// Validate checks the request is well-formed: a known type with exactly
// its spec present and valid. It is called at submission (HTTP 400), so
// a malformed request never occupies a queue slot.
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

// RunSpec executes one workload — the daemon's `bctool run`.
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

func (s *RunSpec) validate() error {
	if _, ok := workload.ByName(s.Workload); !ok {
		return fmt.Errorf("serve: unknown workload %q (have %v)", s.Workload, workload.Names())
	}
	if _, err := harness.ParseModeSlug(s.Mode); err != nil {
		return err
	}
	if _, err := harness.ParseClassSlug(s.Class); err != nil {
		return err
	}
	if s.Scale < 0 || s.Shards < 0 || s.DowngradesPerSec < 0 {
		return fmt.Errorf("serve: run spec has negative knobs")
	}
	return nil
}

func (s *RunSpec) run(ctx context.Context, env jobEnv) (string, stats.Snapshot, error) {
	mode, err := harness.ParseModeSlug(s.Mode)
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	class, err := harness.ParseClassSlug(s.Class)
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	sw, _ := workload.ByName(s.Workload)
	p := harness.DefaultParams()
	if s.Scale > 0 {
		p.Scale = s.Scale
	}
	if s.Border != "" {
		p.Border = s.Border
	}
	env.note("run %s/%s/%s", s.Workload, s.Mode, s.Class)
	res, err := harness.RunCtx(ctx, mode, class, sw, p, harness.RunOptions{
		DowngradesPerSec: s.DowngradesPerSec, Shards: s.Shards,
	})
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	art := res.Render()
	if res.VerifyErr != nil {
		art += fmt.Sprintf("results       INCORRECT: %v\n", res.VerifyErr)
	} else {
		art += "results       verified correct\n"
	}
	return art, res.Stats, nil
}

// Sweep-spec caps. Validate refuses a spec past any cap at submission,
// with nothing generated; the executor then generates and hashes a
// sweep's traces once, in its plan. One of the costliest specs inside the
// caps (all four shapes, 256 seeds, 64 segments, wavefronts of 7 ops)
// plans in about 0.14 s and allocates about 79 MB on a 2-CPU Xeon
// @ 2.10 GHz.
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

// SweepSpec executes a synthetic-traffic replay grid — the daemon's
// `bctool sweep`. The plan (traces, names, cells) is built exactly as the
// CLI builds it, so a served sweep's artifact is byte-identical to the
// in-process `bctool sweep` with the same axes.
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

func (s *SweepSpec) validate() error {
	_, _, err := s.cells(false)
	return err
}

// cells expands the spec into the labelled cell grid plus the
// content-hash of every trace in name order (the cache key's trace
// component). It mirrors `bctool sweep`: shapes x seeds generate traces
// named "<shape>-s<seed>", then RecordedCells crosses them with the
// mode/border/class axes over DefaultParams. It first checks everything
// that needs no trace — the caps, the mode slugs, the border names, the
// class list and the shards — and without generate it stops there.
func (s *SweepSpec) cells(generate bool) ([]harness.SweepCell, []string, error) {
	shapes := traffic.Shapes()
	if len(s.Traffic) > 0 {
		shapes = s.Traffic
	}
	seeds := max(s.Seeds, 1)
	if err := s.bound(shapes, seeds); err != nil {
		return nil, nil, err
	}
	modes := []harness.Mode{harness.ATSOnly, harness.FullIOMMU, harness.CAPILike, harness.BCNoBCC, harness.BCBCC}
	if len(s.Modes) > 0 {
		modes = modes[:0]
		for _, ms := range s.Modes {
			m, err := harness.ParseModeSlug(ms)
			if err != nil {
				return nil, nil, err
			}
			modes = append(modes, m)
		}
	}
	borders := core.Designs()
	if len(s.Borders) > 0 {
		borders = s.Borders
		for _, b := range borders {
			if !designKnown(b) {
				return nil, nil, fmt.Errorf("serve: unknown border design %q (have %v)", b, core.Designs())
			}
		}
	}
	classes, err := harness.ParseClassList(s.Classes)
	if err != nil {
		return nil, nil, err
	}
	if s.Shards < 0 {
		return nil, nil, fmt.Errorf("serve: negative shards")
	}
	if !generate {
		return nil, nil, nil
	}

	traces := map[string]*tracerec.Trace{}
	var names, hashes []string
	for _, shape := range shapes {
		for seed := 1; seed <= seeds; seed++ {
			tr, err := traffic.Generate(traffic.Config{
				Shape: shape, Seed: uint64(seed),
				Segments: s.GenSegments, Wavefronts: s.GenWavefronts, Ops: s.GenOps,
			})
			if err != nil {
				return nil, nil, err
			}
			h, err := tr.Hash()
			if err != nil {
				return nil, nil, err
			}
			name := fmt.Sprintf("%s-s%d", shape, seed)
			traces[name] = tr
			names = append(names, name)
			hashes = append(hashes, fmt.Sprintf("%x", h))
		}
	}
	cells := harness.RecordedCells(traces, names, modes, borders, classes, harness.DefaultParams(), s.Shards)
	if err := harness.ValidateCells(cells); err != nil {
		return nil, nil, err
	}
	return cells, hashes, nil
}

// bound refuses a spec past the sweep caps before any of its traces is
// generated: the op total is summed from the generator sizes alone. An
// axis naming a value twice is refused too — it could only yield
// duplicate trace names or cell labels, after expanding the whole grid.
func (s *SweepSpec) bound(shapes []string, seeds int) error {
	if seeds > MaxSweepSeeds {
		return fmt.Errorf("serve: sweep seeds %d over the limit of %d", seeds, MaxSweepSeeds)
	}
	for _, axis := range []struct {
		name string
		vals []string
	}{{"traffic", s.Traffic}, {"modes", s.Modes}, {"borders", s.Borders}} {
		seen := map[string]bool{}
		for _, v := range axis.vals {
			if seen[v] {
				return fmt.Errorf("serve: sweep %s lists %q twice", axis.name, v)
			}
			seen[v] = true
		}
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

func designKnown(name string) bool {
	for _, d := range core.Designs() {
		if d == name {
			return true
		}
	}
	return false
}

// plan generates and hashes the sweep's traces, once per job; the run
// executes the planned cells.
func (s *SweepSpec) plan() ([]string, runFunc, error) {
	cells, hashes, err := s.cells(true)
	if err != nil {
		return nil, nil, err
	}
	return hashes, func(ctx context.Context, env jobEnv) (string, stats.Snapshot, error) {
		workers := s.Workers
		if workers == 0 {
			workers = env.workers
		}
		if workers < 0 {
			workers = 0
		}
		env.note("sweep: %d cells, workers=%d", len(cells), workers)
		rows, err := SweepFanout(ctx, cells, FanoutConfig{
			Workers: workers, Jobs: env.jobs, Progress: env.progress, pool: env.pool,
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

// AdversarySpec runs seeded sandbox-escape campaigns — the daemon's
// `bctool adversary`. A breached sandbox fails the job; the report is the
// artifact either way.
type AdversarySpec struct {
	Seed      int64    `json:"seed,omitempty"`
	Campaigns int      `json:"campaigns,omitempty"`
	Attacks   []string `json:"attacks,omitempty"`
	Border    string   `json:"border,omitempty"`
}

func (s *AdversarySpec) validate() error {
	if s.Campaigns < 0 {
		return fmt.Errorf("serve: negative campaigns")
	}
	if s.Border != "" && !designKnown(s.Border) {
		return fmt.Errorf("serve: unknown border design %q (have %v)", s.Border, core.Designs())
	}
	known := map[string]bool{}
	for _, a := range adversary.AttackNames() {
		known[a] = true
	}
	for _, a := range s.Attacks {
		if !known[a] {
			return fmt.Errorf("serve: unknown attack %q (have %v)", a, adversary.AttackNames())
		}
	}
	return nil
}

func (s *AdversarySpec) run(ctx context.Context, env jobEnv) (string, stats.Snapshot, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	campaigns := s.Campaigns
	if campaigns == 0 {
		campaigns = 4
	}
	p := harness.DefaultParams()
	if s.Border != "" {
		p.Border = s.Border
	}
	env.note("adversary: seed=%d campaigns=%d", seed, campaigns)
	rep, err := harness.AdversaryReport(ctx, harness.Exec{Jobs: env.jobs}, p, seed, campaigns, s.Attacks)
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	art := adversary.Render(rep)
	if rep.Failed() {
		return art, rep.Stats(), fmt.Errorf("serve: sandbox breached — see the reproducing seeds in the artifact")
	}
	return art, rep.Stats(), nil
}

// FleetSpec runs a multi-tenant fleet on the sharded engine — the
// daemon's `bctool fleet`.
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

func (s *FleetSpec) validate() error {
	if s.Workload != "" {
		if _, ok := workload.ByName(s.Workload); !ok {
			return fmt.Errorf("serve: unknown workload %q (have %v)", s.Workload, workload.Names())
		}
	}
	if s.Mode != "" {
		if _, err := harness.ParseModeSlug(s.Mode); err != nil {
			return err
		}
	}
	if s.Class != "" {
		if _, err := harness.ParseClassSlug(s.Class); err != nil {
			return err
		}
	}
	if s.Tenants < 0 || s.Shards < 0 || s.Scale < 0 {
		return fmt.Errorf("serve: fleet spec has negative knobs")
	}
	return nil
}

func (s *FleetSpec) run(ctx context.Context, env jobEnv) (string, stats.Snapshot, error) {
	fp := harness.DefaultFleetParams()
	if s.Tenants > 0 {
		fp.Tenants = s.Tenants
	}
	if s.Mode != "" {
		m, err := harness.ParseModeSlug(s.Mode)
		if err != nil {
			return "", stats.Snapshot{}, err
		}
		fp.Mode = m
	}
	if s.Class != "" {
		c, err := harness.ParseClassSlug(s.Class)
		if err != nil {
			return "", stats.Snapshot{}, err
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
	name := s.Workload
	if name == "" {
		name = "pathfinder"
	}
	sw, _ := workload.ByName(name)
	p := harness.DefaultParams()
	if s.Scale > 0 {
		p.Scale = s.Scale
	}
	env.note("fleet: %d tenants x %s", fp.Tenants, name)
	res, err := harness.RunFleetCtx(ctx, p, fp, sw)
	if err != nil {
		return "", stats.Snapshot{}, err
	}
	art := res.Render()
	if res.Verified != res.Tenants {
		return art, res.Stats, fmt.Errorf("serve: %d of %d tenants produced INCORRECT results", res.Tenants-res.Verified, res.Tenants)
	}
	return art, res.Stats, nil
}
