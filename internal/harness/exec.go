package harness

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/workload"
)

// Exec configures how a sweep's independent simulations execute. The zero
// Exec runs on all cores with no per-job timeout and no progress output —
// safe defaults for library callers, because ordered result collection
// makes parallel artifacts byte-identical to serial ones.
type Exec struct {
	// Jobs bounds concurrent simulations: 0 = GOMAXPROCS, 1 = serial.
	Jobs int
	// Timeout, when positive, bounds each simulation; an overrunning job
	// fails with context.DeadlineExceeded instead of stalling the sweep.
	Timeout time.Duration
	// Progress, when non-nil, receives each finished job in completion
	// order (calls are serialized).
	Progress func(exp.Result)
	// Trace, when non-nil, collects a per-job timeline for every
	// simulation of the sweep into one merged Chrome trace (one Perfetto
	// process per job, labelled by the job name). Tracing is pure
	// observation: rendered artifacts are byte-identical with it on.
	Trace *trace.Multi
	// Shards, when positive, executes every simulation of the sweep on
	// the sharded engine with that many workers (see RunOptions.Shards).
	// Artifacts are byte-identical at any setting.
	Shards int
}

func (e Exec) runner() *exp.Runner {
	return &exp.Runner{Workers: e.Jobs, Timeout: e.Timeout, OnDone: e.Progress}
}

// runSpec names one simulation of a sweep: the experiment-space coordinate
// plus a label for progress reporting.
type runSpec struct {
	Label string
	Mode  Mode
	Class GPUClass
	Spec  workload.Spec
	Opts  RunOptions
	// P, when non-nil, overrides the sweep-wide Params for this run only
	// (FigureBorders varies Params.Border across the jobs of one sweep).
	P *Params
	// attach, when non-nil, is called with the freshly assembled System
	// before the process starts: the hook Figure 6 hangs its border event
	// sink on.
	attach func(*System)
}

// params returns the Params this run uses: its override, else the
// sweep-wide p.
func (s runSpec) params(p Params) Params {
	if s.P != nil {
		return *s.P
	}
	return p
}

// stream is one reference stream of a job list — a workload generator at
// one problem scale — shared by every cell that runs it. Only the stream
// matters to timing and a replayed recording is bit-identical to a live
// run (DESIGN.md §15), so the list records each stream once and its cells
// replay the recording instead of re-running the generator. The first cell
// to need the stream records it, concurrent cells of the stream wait for
// that recording, and the last cell to finish drops it.
type stream struct {
	spec  workload.Spec
	scale int

	once   sync.Once
	replay workload.Spec // valid after once, unless err
	err    error

	// left counts the list's cells of this stream that have not finished.
	left atomic.Int64
}

// get records the stream on first use and returns its replay spec.
func (st *stream) get() (workload.Spec, error) {
	st.once.Do(func() {
		tr, err := tracerec.Record(st.spec, st.scale)
		if err == nil {
			st.replay, err = tracerec.ReplaySpec(tr)
		}
		st.err = err
	})
	return st.replay, st.err
}

// done retires one cell of the stream; the last one drops the recording.
func (st *stream) done() {
	if st.left.Add(-1) == 0 {
		st.replay = workload.Spec{}
	}
}

// cell is one run of a job list with the stream it replays.
type cell struct {
	runSpec
	st *stream
}

// planStreams pairs every run with its stream, keyed by workload name and
// Params.Scale, and returns the start order for a pool of workers. Runs are
// grouped by stream, streams in order of first appearance, caller order
// within a stream. The first run of each stream records it, and that
// recording run starts workers-1 streams ahead of the other runs of the
// earlier streams: while the pool works through one stream's runs, the
// next streams are already being recorded, so no worker idles waiting for
// a recording. With one worker that is plain grouped order.
//
// Grouped starts keep only the streams of the runs in flight alive, about
// two recordings per worker; a list that interleaves streams (Figure 7's
// waves) would otherwise hold every recording for the whole list.
func planStreams(p Params, specs []runSpec, workers int) ([]cell, []int) {
	type key struct {
		workload string
		scale    int
	}
	cells := make([]cell, len(specs))
	var groups [][]int  // each stream's runs, by first appearance
	var recording []int // each stream's first run, which records it
	first := map[key]int{}
	for i, s := range specs {
		cells[i].runSpec = s
		scale := s.params(p).Scale
		k := key{s.Spec.Name, scale}
		g, ok := first[k]
		if !ok {
			g, first[k] = len(groups), len(groups)
			groups = append(groups, nil)
			recording = append(recording, i)
			cells[i].st = &stream{spec: s.Spec, scale: scale}
		}
		st := cells[recording[g]].st
		st.left.Add(1)
		cells[i].st = st
		groups[g] = append(groups[g], i)
	}
	lead := max(workers, 1) - 1
	order := make([]int, 0, len(specs))
	started := 0 // streams whose recording run is in order
	for g, runs := range groups {
		for ; started < len(recording) && started <= g+lead; started++ {
			order = append(order, recording[started])
		}
		order = append(order, runs[1:]...)
	}
	return cells, order
}

// runAll executes the specs — each on a fresh System — through the
// experiment runner and returns their results in submission order, so
// callers can assemble artifacts exactly as a serial loop would have. The
// first error in submission order (the one a serial sweep would have
// stopped at) fails the whole sweep. Each reference stream is recorded
// once per call and replayed into every run of it (see stream); a failed
// recording fails each run that needed it with a build-stage *RunError.
func runAll(ctx context.Context, ex Exec, p Params, specs []runSpec) ([]RunResult, error) {
	runner := ex.runner()
	cells, order := planStreams(p, specs, runner.PoolSize())
	return exp.MapOrder(ctx, runner, cells, order,
		func(_ int, c cell) string { return c.Label },
		func(ctx context.Context, c cell) (RunResult, error) {
			defer c.st.done()
			replay, err := c.st.get()
			if err != nil {
				return RunResult{}, &RunError{Workload: c.Spec.Name, Mode: c.Mode, Class: c.Class, Stage: "build", Err: err}
			}
			s := c.runSpec
			s.Spec = replay
			if ex.Trace != nil {
				s.Opts.Tracer = ex.Trace.New(c.Label)
			}
			if s.Opts.Shards == 0 {
				s.Opts.Shards = ex.Shards
			}
			return s.run(ctx, s.params(p))
		})
}

// sweepStats aggregates the per-run snapshots of a sweep (see stats.Merge:
// counters sum, ratio gauges average).
func sweepStats(runs []RunResult) stats.Snapshot {
	snaps := make([]stats.Snapshot, 0, len(runs))
	for _, r := range runs {
		snaps = append(snaps, r.Stats)
	}
	return stats.Merge(snaps...)
}

// classShort is a compact GPU-class label for job names.
func classShort(c GPUClass) string {
	if c == ModeratelyThreaded {
		return "mod"
	}
	return "high"
}
