package accel

import (
	"fmt"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
)

// GPUConfig sets the compute side of the accelerator: how many compute
// units, and how many wavefront contexts each can keep in flight. The
// paper's two proxies are 8 CUs (highly threaded, latency tolerant) and 1
// CU with few contexts (moderately threaded, latency sensitive).
type GPUConfig struct {
	Name       string
	Clock      sim.Clock
	CUs        int
	WavesPerCU int
}

// GPU executes Programs: each phase's traces are dispatched dynamically to
// wavefront slots, each wavefront replays its trace in order (one
// outstanding access at a time — latency tolerance comes from the number of
// wavefronts), and phases are separated by a full barrier, like kernel
// launches.
type GPU struct {
	cfg  GPUConfig
	eng  *sim.Engine
	hier Hierarchy

	asid     arch.ASID
	prog     *Program
	phaseIdx int
	data     []byte // the running phase's payload arena
	queue    []Trace
	running  int
	nextSlot int

	// waves are the in-flight wavefront contexts, recycled through
	// freeWaves; stepFn is the pre-bound continuation callback whose payload
	// is a wave index. Together they keep the per-memory-op event
	// (the simulator's hottest path) free of closure allocation.
	waves     []wave
	freeWaves []int32
	stepFn    sim.EventFunc

	// issue serializes memory-op issue per CU: one operation per GPU cycle,
	// the LSU port limit that makes throughput (not just latency) a first-
	// class constraint.
	issue []*sim.Resource

	launched bool
	finished bool
	start    sim.Time
	finish   sim.Time
	err      error

	// OnFinish, when non-nil, fires once per launched program as it
	// completes (or aborts), with the completion time — after the final
	// cache drain. In a sharded fleet it is the hook that raises the
	// completion interrupt back to the host coordinator shard. Set it
	// before Launch; it runs inside the simulation, so it may schedule.
	OnFinish func(at sim.Time)

	// tr receives per-phase and per-kernel spans under the "gpu" category.
	tr         *trace.Tracer
	phaseStart sim.Time

	// OpsDone counts completed memory operations.
	OpsDone stats.Counter
}

// NewGPU returns a GPU over the given hierarchy.
func NewGPU(cfg GPUConfig, eng *sim.Engine, hier Hierarchy) (*GPU, error) {
	if cfg.CUs <= 0 || cfg.WavesPerCU <= 0 {
		return nil, fmt.Errorf("accel: bad GPU geometry CUs=%d waves/CU=%d", cfg.CUs, cfg.WavesPerCU)
	}
	g := &GPU{cfg: cfg, eng: eng, hier: hier}
	for i := 0; i < cfg.CUs; i++ {
		g.issue = append(g.issue, sim.NewResource(cfg.Clock.Cycles(1)))
	}
	g.stepFn = g.stepEvent
	return g, nil
}

// wave is one in-flight wavefront: which CU it issues on, its trace, and
// the next position to execute.
type wave struct {
	cu    int32
	pos   int32
	trace Trace
}

// Config returns the GPU configuration.
func (g *GPU) Config() GPUConfig { return g.cfg }

// SetTracer attaches (or, with nil, detaches) a timeline tracer; the GPU
// emits one span per phase and one per kernel under the "gpu" category.
func (g *GPU) SetTracer(t *trace.Tracer) { g.tr = t }

// RegisterMetrics publishes the GPU's counters under s ("gpu.ops",
// "gpu.cycles").
func (g *GPU) RegisterMetrics(s stats.Scope) {
	s.Counter("ops", &g.OpsDone)
	s.CounterFunc("cycles", g.Cycles)
}

// Hierarchy returns the memory hierarchy.
func (g *GPU) Hierarchy() Hierarchy { return g.hier }

// Slots returns the number of concurrent wavefront contexts.
func (g *GPU) Slots() int { return g.cfg.CUs * g.cfg.WavesPerCU }

// Launch schedules prog to run as process asid, starting now. Call
// Engine.Run (or RunUntil) afterwards to execute it.
func (g *GPU) Launch(prog *Program, asid arch.ASID) error {
	if g.launched && !g.finished {
		return fmt.Errorf("accel: GPU %s already running %q", g.cfg.Name, g.prog.Name)
	}
	g.prog = prog
	g.asid = asid
	g.phaseIdx = -1
	g.launched = true
	g.finished = false
	g.err = nil
	g.start = g.eng.Now()
	g.nextPhase(g.eng.Now())
	return nil
}

// Finished reports whether the launched program has completed (or aborted).
func (g *GPU) Finished() bool { return g.finished }

// Err returns the abort cause, if the program did not complete cleanly.
func (g *GPU) Err() error { return g.err }

// FinishTime returns when the program (including its final cache drain)
// completed.
func (g *GPU) FinishTime() sim.Time { return g.finish }

// Runtime returns the program's duration in simulated time.
func (g *GPU) Runtime() sim.Time { return g.finish - g.start }

// Cycles returns the program's duration in GPU cycles.
func (g *GPU) Cycles() uint64 { return g.cfg.Clock.CyclesAt(g.Runtime()) }

func (g *GPU) nextPhase(at sim.Time) {
	if g.tr != nil && g.phaseIdx >= 0 && g.phaseIdx < len(g.prog.Phases) {
		g.tr.Complete("gpu", g.prog.Phases[g.phaseIdx].Name, uint64(g.phaseStart), uint64(at-g.phaseStart))
	}
	g.phaseIdx++
	g.phaseStart = at
	if g.err != nil || g.phaseIdx >= len(g.prog.Phases) {
		done := g.hier.Drain(at)
		g.finished = true
		g.finish = done
		if g.tr != nil {
			g.tr.Complete("gpu", "kernel "+g.prog.Name, uint64(g.start), uint64(done-g.start))
		}
		if g.OnFinish != nil {
			g.OnFinish(done)
		}
		return
	}
	ph := &g.prog.Phases[g.phaseIdx]
	g.data = ph.Data
	g.queue = append(g.queue[:0], ph.Traces...)
	if len(g.queue) == 0 {
		g.nextPhase(at)
		return
	}
	g.nextSlot = 0
	slots := g.Slots()
	for s := 0; s < slots && len(g.queue) > 0; s++ {
		g.dispatch(at, s%g.cfg.CUs)
	}
}

// dispatch starts the next queued trace on compute unit cu, in a wave
// context drawn from the pool.
func (g *GPU) dispatch(at sim.Time, cu int) {
	t := g.queue[0]
	g.queue = g.queue[1:]
	g.running++
	var w int32
	if n := len(g.freeWaves); n > 0 {
		w = g.freeWaves[n-1]
		g.freeWaves = g.freeWaves[:n-1]
	} else {
		g.waves = append(g.waves, wave{})
		w = int32(len(g.waves) - 1)
	}
	g.waves[w] = wave{cu: int32(cu), trace: t}
	g.step(at, w)
}

// stepEvent is the engine-facing continuation: arg is a wave index.
func (g *GPU) stepEvent(now sim.Time, arg uint64) { g.step(now, int32(arg)) }

// step executes wave w's next trace position at the given time and
// schedules the continuation.
func (g *GPU) step(at sim.Time, w int32) {
	wv := &g.waves[w]
	if g.err != nil || int(wv.pos) >= len(wv.trace) {
		g.release(w)
		g.retire(at)
		return
	}
	op := wv.trace[wv.pos]
	wv.pos++
	cu := int(wv.cu)
	at += g.cfg.Clock.Cycles(uint64(op.Compute))
	at = g.issue[cu].Claim(at) // LSU port: one memory op per CU per cycle
	var data []byte
	if op.Kind == arch.Write {
		data = opBytes(&op, g.data)
	}
	done, err := g.hier.Access(at, cu, g.asid, op, data)
	if err != nil {
		g.err = err
		g.release(w)
		g.retire(done)
		return
	}
	g.OpsDone.Inc()
	g.eng.ScheduleInto(done, g.stepFn, uint64(w))
}

// release returns a wave context to the pool, dropping its trace reference.
func (g *GPU) release(w int32) {
	g.waves[w] = wave{}
	g.freeWaves = append(g.freeWaves, w)
}

// retire ends one wavefront's trace: pick up more work, or close the phase.
func (g *GPU) retire(at sim.Time) {
	g.running--
	if g.err == nil && len(g.queue) > 0 {
		cu := g.nextSlot % g.cfg.CUs
		g.nextSlot++
		g.dispatch(at, cu)
		return
	}
	if g.running == 0 {
		g.nextPhase(at)
	}
}
