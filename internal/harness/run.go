package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/workload"
)

// RunError identifies which simulation of a sweep failed and why, so a
// parallel failure report names the job: workload, configuration, GPU
// class, and the stage that failed. It wraps the underlying cause (for a
// GPU abort, the border-violation detail from sys.GPU.Err()).
type RunError struct {
	Workload string
	Mode     Mode
	Class    GPUClass
	// Stage is where the run failed: "build", "start", "launch",
	// "interrupted", "hang", "abort".
	Stage string
	Err   error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("harness: %s on %v (%v): %s: %v", e.Workload, e.Mode, e.Class, e.Stage, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// RunOptions tune a single workload execution.
type RunOptions struct {
	// DowngradesPerSec injects synthetic permission downgrades (RW -> R,
	// then restore) at this rate of simulated time, round-robin over the
	// process's writable pages — the Figure 7 experiment. Zero disables
	// injection.
	DowngradesPerSec float64
	// FixedDowngrades, when positive, overrides DowngradesPerSec and
	// injects this many downgrades spread evenly over SpreadOver of
	// simulated time (normally the workload's baseline runtime). Used to
	// measure the per-downgrade cost densely on short kernels.
	FixedDowngrades int
	// SpreadOver is the window FixedDowngrades are spread across.
	SpreadOver sim.Time
	// SkipVerify skips the functional output check (used by sweeps that
	// deliberately perturb timing only).
	SkipVerify bool
	// Tracer, when non-nil, records the run's timeline (engine, border,
	// and GPU events) in Chrome trace-event form. Pure observation: a run
	// with a tracer attached produces identical results to one without.
	Tracer *trace.Tracer
	// Profiler, when non-nil, accumulates simulated-time attribution for
	// the run (component-stack samples for folded/pprof output). Pure
	// observation, like Tracer.
	Profiler *prof.Profiler
	// Shards, when positive, executes the run on the sharded
	// conservative-parallel engine with that many worker goroutines
	// available. A single-accelerator run is one determinism domain (one
	// logical shard), so this changes execution machinery only: results —
	// every simulated time, count and snapshot — are bit-identical to the
	// default direct engine at any setting. It is the figure-level proof
	// that sharded execution is residue-free; fleets (RunFleetCtx) are
	// where extra workers buy wall-clock time.
	Shards int
}

// HostStats is the host-side self-measurement of one run: how long the
// simulation took in wall-clock terms and how fast the engine processed
// events. It feeds `bctool bench`.
type HostStats struct {
	// Wall is the host wall-clock duration of the Engine.Run call.
	Wall time.Duration
	// Events is how many discrete events the engine fired.
	Events uint64
	// EventsPerSec is Events divided by Wall.
	EventsPerSec float64
}

// RunResult reports one workload execution on one system configuration.
type RunResult struct {
	Workload string
	Mode     Mode
	Class    GPUClass

	// Runtime is the kernel's simulated duration, including the final
	// cache drain; Cycles is the same in GPU cycles — the paper's runtime
	// metric.
	Runtime sim.Time
	Cycles  uint64
	// Ops is the number of memory operations the GPU completed.
	Ops uint64

	// BCChecks is the number of requests checked at the border (BC modes).
	BCChecks uint64
	// BCCMissRatio is the BCC check miss ratio (BCBCC mode).
	BCCMissRatio float64
	// Downgrades counts injected permission downgrades.
	Downgrades uint64
	// DRAMUtilization is mean channel utilization over the run.
	DRAMUtilization float64

	// Cache-hierarchy statistics (sandboxed configurations only; zero for
	// the full-IOMMU path, which has no accelerator caches).
	L1MissRatio  float64
	L2MissRatio  float64
	TLBMissRatio float64
	// Translations is the number of ATS requests (accelerator TLB misses,
	// or every access under the full IOMMU).
	Translations uint64
	// PageWalks is how many of those missed the trusted L2 TLB.
	PageWalks uint64

	// VerifyErr reports a functional-output mismatch (nil when correct).
	VerifyErr error

	// Stats is the full hierarchical metrics snapshot of the run's System
	// — every registered counter and ratio under its dotted path. The
	// scalar fields above remain as the rendered tables' inputs; new
	// consumers should read Stats.
	Stats stats.Snapshot

	// Host is the host-side self-measurement of this run.
	Host HostStats
}

// RequestsPerCycle returns border checks per GPU cycle (Figure 5).
func (r RunResult) RequestsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.BCChecks) / float64(r.Cycles)
}

// Render returns the `bctool run` report: the run's identity, timing and
// border statistics, one per line. It stops short of the verification
// line, which each caller prints where its output order needs it.
func (r RunResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload      %s\n", r.Workload)
	fmt.Fprintf(&b, "mode          %v\n", r.Mode)
	fmt.Fprintf(&b, "class         %v\n", r.Class)
	fmt.Fprintf(&b, "GPU cycles    %d\n", r.Cycles)
	fmt.Fprintf(&b, "runtime       %.3f ms\n", float64(r.Runtime)/1e9)
	fmt.Fprintf(&b, "memory ops    %d\n", r.Ops)
	fmt.Fprintf(&b, "DRAM util     %.1f%%\n", r.DRAMUtilization*100)
	if r.L1MissRatio > 0 || r.L2MissRatio > 0 {
		fmt.Fprintf(&b, "L1 miss       %.3f\n", r.L1MissRatio)
		fmt.Fprintf(&b, "L2 miss       %.3f\n", r.L2MissRatio)
		fmt.Fprintf(&b, "L1 TLB miss   %.4f\n", r.TLBMissRatio)
	}
	fmt.Fprintf(&b, "translations  %d (%d page walks)\n", r.Translations, r.PageWalks)
	if r.Mode == BCNoBCC || r.Mode == BCBCC {
		fmt.Fprintf(&b, "BC checks     %d (%.3f/cycle)\n", r.BCChecks, r.RequestsPerCycle())
		fmt.Fprintf(&b, "BCC miss      %.4f\n", r.BCCMissRatio)
	}
	if r.Downgrades > 0 {
		fmt.Fprintf(&b, "downgrades    %d\n", r.Downgrades)
	}
	return b.String()
}

// RunCtx executes one workload on a fresh system in the given
// configuration. The simulation engine polls ctx between events, so a
// cancelled or timed-out run aborts promptly and fails with a *RunError
// wrapping ctx.Err(). Every failure path that names a specific run returns
// a *RunError, so parallel sweeps report exactly which job broke.
func RunCtx(ctx context.Context, mode Mode, class GPUClass, spec workload.Spec, p Params, opts RunOptions) (RunResult, error) {
	return runSpec{Mode: mode, Class: class, Spec: spec, Opts: opts}.run(ctx, p)
}

// run executes the spec's simulation on a fresh System under p, through
// the Figure 3 lifecycle; the caller resolves the spec's own P (see
// params).
func (s runSpec) run(ctx context.Context, p Params) (RunResult, error) {
	spec, opts := s.Spec, s.Opts
	fail := func(stage string, err error) (RunResult, error) {
		return RunResult{}, &RunError{Workload: spec.Name, Mode: s.Mode, Class: s.Class, Stage: stage, Err: err}
	}
	m, err := newMachine(s.Mode, s.Class, p, opts.Shards)
	if err != nil {
		return RunResult{}, err
	}
	sys := m.System
	if s.attach != nil {
		s.attach(sys)
	}
	pr, stage, err := startProcess(sys, spec.Name, func(proc *hostos.Process) (*accel.Program, error) {
		return spec.Build(proc, p.Scale)
	})
	if err != nil {
		return fail(stage, err)
	}
	if err := pr.launch(); err != nil {
		return fail("launch", err)
	}

	var dg *downgrader
	switch {
	case opts.FixedDowngrades > 0 && opts.SpreadOver > 0:
		dg = newDowngrader(sys, pr.proc)
		dg.every(sys, opts.SpreadOver/sim.Time(opts.FixedDowngrades+1), opts.FixedDowngrades)
	case opts.DowngradesPerSec > 0:
		dg = newDowngrader(sys, pr.proc)
		dg.every(sys, sim.Time(float64(sim.Second)/opts.DowngradesPerSec), 0)
	}
	if opts.Tracer != nil {
		sys.AttachTracer(opts.Tracer)
	}
	if opts.Profiler != nil {
		sys.AttachProfiler(opts.Profiler)
	}
	wall := m.run(ctx)
	if stage, err := pr.drained(ctx); err != nil {
		return fail(stage, err)
	}

	res := RunResult{
		Workload:        spec.Name,
		Mode:            s.Mode,
		Class:           s.Class,
		Runtime:         sys.GPU.Runtime(),
		Cycles:          sys.GPU.Cycles(),
		Ops:             sys.GPU.OpsDone.Value(),
		DRAMUtilization: sys.DRAM.Utilization(sys.GPU.Runtime()),
		Translations:    sys.ATS.Translation.Value(),
		PageWalks:       sys.ATS.Walks.Value(),
	}
	if h, ok := sys.Hier.(*accel.Sandboxed); ok {
		var l1h, l1m, tlbh, tlbm uint64
		for cu := 0; cu < sys.GPU.Config().CUs; cu++ {
			l1h += h.L1(cu).HitMiss.Hits.Value()
			l1m += h.L1(cu).HitMiss.Misses.Value()
			tlbh += h.L1TLB(cu).HitMiss.Hits.Value()
			tlbm += h.L1TLB(cu).HitMiss.Misses.Value()
		}
		if l1h+l1m > 0 {
			res.L1MissRatio = float64(l1m) / float64(l1h+l1m)
		}
		if tlbh+tlbm > 0 {
			res.TLBMissRatio = float64(tlbm) / float64(tlbh+tlbm)
		}
		res.L2MissRatio = h.L2().HitMiss.MissRatio()
	}
	if dg != nil {
		if err := dg.failure(); err != nil {
			return fail("downgrade", err)
		}
		res.Downgrades = dg.count
	}
	res.BCChecks, res.BCCMissRatio = sys.borderStats()
	res.Stats = sys.Metrics.Snapshot()
	res.Host = hostStats(wall, sys.Eng.Fired())
	res.VerifyErr = pr.complete(!opts.SkipVerify)
	return res, nil
}
