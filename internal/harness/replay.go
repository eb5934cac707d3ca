package harness

import (
	"context"
	"fmt"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
)

// SegmentResult reports one process segment of a trace run.
type SegmentResult struct {
	Name string
	// ASID is the identity the OS assigned the segment's process. The OS
	// never reuses a live ASID; churn scenarios assert uniqueness across
	// the whole run.
	ASID arch.ASID
	// Runtime is the segment's simulated kernel duration.
	Runtime sim.Time
	// Ops is the number of memory operations the segment completed.
	Ops uint64
	// ProbesGranted / ProbesDenied count the segment's adversarial border
	// crossings by outcome. Safe modes must deny all of them.
	ProbesGranted uint64
	ProbesDenied  uint64
	// VerifyErr reports an image mismatch (nil when correct, or when the
	// segment carries no image).
	VerifyErr error
}

// TraceRunResult reports a whole trace execution: every segment in order,
// plus run-wide totals matching RunResult's vocabulary.
type TraceRunResult struct {
	Workload string
	Mode     Mode
	Class    GPUClass

	Segments []SegmentResult

	// SimTime is the total simulated time the run consumed (the engine
	// clock after the last segment drained).
	SimTime sim.Time
	// Ops is the total memory-operation count.
	Ops uint64
	// BCChecks / BCCMissRatio as in RunResult.
	BCChecks     uint64
	BCCMissRatio float64

	// Stats is the system's full metrics snapshot after the last segment.
	Stats stats.Snapshot
	// Host is the host-side self-measurement (whole run).
	Host HostStats
}

// RunTraceCtx replays every segment of tr through one simulated machine,
// in order: fresh process, replayed address space, process start on the
// accelerator, kernel launch, adversarial probes at their recorded times,
// process completion, exit. Multi-segment traces exercise exactly the
// lifecycle the paper's Figure 3 walks through — thousands of short-lived
// ASIDs hammering ProcessStart/ProcessComplete and the exit-time
// downgrade flush — without a generator in the loop.
//
// Determinism contract: for a given (trace, mode, class, params), the
// result — every simulated time, count, and stats snapshot — is
// bit-identical at any opts.Shards setting and any worker count.
func RunTraceCtx(ctx context.Context, mode Mode, class GPUClass, tr *tracerec.Trace, p Params, opts RunOptions) (TraceRunResult, error) {
	m, err := newMachine(mode, class, p, opts.Shards)
	if err != nil {
		return TraceRunResult{}, err
	}
	sys, eng := m.System, m.Eng
	// Probed segments frame their own process for the violation; the run
	// must survive the report to keep churning through segments.
	sys.OS.KeepProcessOnViolation = true
	if opts.Tracer != nil {
		sys.AttachTracer(opts.Tracer)
	}
	if opts.Profiler != nil {
		sys.AttachProfiler(opts.Profiler)
	}

	res := TraceRunResult{Workload: tr.Workload, Mode: mode, Class: class}
	var wall time.Duration
	for si := range tr.Segments {
		seg := &tr.Segments[si]
		fail := func(stage string, err error) (TraceRunResult, error) {
			return TraceRunResult{}, &RunError{Workload: tr.Workload, Mode: mode, Class: class, Stage: stage,
				Err: fmt.Errorf("segment %d (%s): %w", si, seg.Name, err)}
		}
		pr, stage, err := startProcess(sys, seg.Name, func(proc *hostos.Process) (*accel.Program, error) {
			return tracerec.BuildSegment(proc, seg)
		})
		if err != nil {
			return fail(stage, err)
		}
		if err := pr.launch(); err != nil {
			return fail("launch", err)
		}

		sres := SegmentResult{Name: seg.Name, ASID: pr.proc.ASID()}
		opsBefore := sys.GPU.OpsDone.Value()
		segStart := eng.Now()
		if len(seg.Probes) > 0 {
			// The adversary fabricates physical requests at the recorded
			// offsets from this segment's launch, claiming the segment's
			// own identity (attribution, never authority).
			trojan := accel.NewTrojan(sys.Port)
			trojan.ASID = pr.proc.ASID()
			for _, probe := range seg.Probes {
				probe := probe
				eng.At(segStart+probe.At, func() {
					granted := false
					if probe.Kind == arch.Write {
						granted = trojan.TryWrite(eng.Now(), probe.Addr, [arch.BlockSize]byte{})
					} else {
						_, granted = trojan.TryRead(eng.Now(), probe.Addr)
					}
					if granted {
						sres.ProbesGranted++
					} else {
						sres.ProbesDenied++
					}
				})
			}
		}

		wall += m.run(ctx)
		if stage, err := pr.drained(ctx); err != nil {
			return fail(stage, err)
		}
		sres.Runtime = sys.GPU.Runtime()
		sres.Ops = sys.GPU.OpsDone.Value() - opsBefore
		sres.VerifyErr = pr.complete(!opts.SkipVerify)
		// Exit tears the address space down: permission downgrades broadcast
		// to the accelerator (the flush path churn is designed to hammer)
		// and every frame returns to the allocator in deterministic order.
		sys.OS.Exit(pr.proc)
		res.Segments = append(res.Segments, sres)
		res.Ops += sres.Ops
	}

	res.SimTime = eng.Now()
	res.BCChecks, res.BCCMissRatio = sys.borderStats()
	res.Stats = sys.Metrics.Snapshot()
	res.Host = hostStats(wall, eng.Fired())
	return res, nil
}
