package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/sim"
)

// The accelerator-process lifecycle of paper Figure 3, written once:
// every simulation — a generator or recording (RunCtx), a trace segment
// (RunTraceCtx), a fleet tenant (RunFleetCtx) — assembles its machine,
// starts its process, launches it, drains the engine, reads the drain
// verdict and completes the process through these steps. Each step that
// can fail names its stage; the caller wraps it in the *RunError naming
// its job.

// machine is one assembled System on the engine that runs it: the direct
// engine, or shard 0 of a one-shard ShardedEngine (see RunOptions.Shards).
type machine struct {
	*System
	se *sim.ShardedEngine // nil on the direct engine
}

// newMachine assembles a System for mode and class. With shards > 0 it
// sits on the only shard of a sharded engine with that many workers; the
// window width is irrelevant with no cross-shard traffic, any positive
// lookahead does.
func newMachine(mode Mode, class GPUClass, p Params, shards int) (machine, error) {
	var se *sim.ShardedEngine
	eng := &sim.Engine{}
	if shards > 0 {
		se = sim.NewShardedEngine(1, sim.Microsecond)
		se.Workers = shards
		eng = se.Shard(0)
	}
	sys, err := NewSystemWithEngine(eng, mode, class, p)
	return machine{System: sys, se: se}, err
}

// run drains the machine's engine, stopping early once ctx is done, and
// returns the host wall time it took.
func (m machine) run(ctx context.Context) time.Duration {
	start := time.Now()
	if m.se != nil {
		m.se.Interrupt = interrupt(ctx)
		m.se.Run()
	} else {
		m.Eng.Interrupt = interrupt(ctx)
		m.Eng.Run()
	}
	return time.Since(start)
}

// interrupt is the engine poll that stops a simulation once ctx is done
// (nil when ctx can never be done).
func interrupt(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// process is one accelerator process taken through the Figure 3 protocol
// on a System: started (3a), launched, drained and completed (3e).
type process struct {
	sys  *System
	proc *hostos.Process
	prog *accel.Program
}

// startProcess creates the named process, builds its program, and
// initializes it on the accelerator (Figure 3a: ATS activation, then the
// border's process start). A failure names its stage, "start" or "build".
func startProcess(sys *System, name string, build func(*hostos.Process) (*accel.Program, error)) (process, string, error) {
	proc, err := sys.OS.NewProcess(name)
	if err != nil {
		return process{}, "start", err
	}
	prog, err := build(proc)
	if err != nil {
		return process{}, "build", err
	}
	sys.ATS.Activate(sys.Name, proc.ASID())
	if sys.BC != nil {
		if err := sys.BC.ProcessStart(proc.ASID()); err != nil {
			return process{}, "start", err
		}
	}
	return process{sys: sys, proc: proc, prog: prog}, "", nil
}

// launch starts the process's kernel on the GPU now.
func (pr process) launch() error { return pr.sys.GPU.Launch(pr.prog, pr.proc.ASID()) }

// drained is the verdict on the kernel once the engine has drained: an
// unfinished kernel was "interrupted" when ctx is done and is a "hang"
// otherwise; a kernel the GPU aborted (a border violation) is an "abort".
func (pr process) drained(ctx context.Context) (string, error) {
	if !pr.sys.GPU.Finished() {
		// Distinguish an external interruption (cancellation, timeout) from
		// a genuinely stuck simulation.
		if err := ctx.Err(); err != nil {
			return "interrupted", err
		}
		return "hang", errors.New("simulation drained with the kernel incomplete")
	}
	if gerr := pr.sys.GPU.Err(); gerr != nil {
		return "abort", gerr
	}
	return "", nil
}

// complete retires the process from the accelerator (Figure 3e: the
// border's process completion, then ATS deactivation) and, when verify is
// set, returns the program's check of the results it left in memory.
func (pr process) complete(verify bool) error {
	sys := pr.sys
	if sys.BC != nil {
		sys.BC.ProcessComplete(sys.GPU.FinishTime(), pr.proc.ASID())
	}
	sys.ATS.Deactivate(sys.Name, pr.proc.ASID())
	if verify && pr.prog.Verify != nil {
		return pr.prog.Verify(pr.proc)
	}
	return nil
}

// downgrader injects permission downgrades into a running process, round
// robin over its writable pages (the Figure 7 experiment, and fleet
// churn). count is the number of downgrades that landed; restoreErrs and
// err record failed restores. A failed restore strands the workload on
// read-only pages, so the run must fail rather than report results as if
// nothing happened (see failure).
type downgrader struct {
	os    *hostos.OS
	proc  *hostos.Process
	pages []arch.Virt

	count       uint64
	restoreErrs uint64
	err         error
}

// newDowngrader snapshots the process's writable pages in address order,
// so the injection round-robin — and therefore Figure 7 and fleet churn —
// is identical on every run.
func newDowngrader(sys *System, proc *hostos.Process) *downgrader {
	d := &downgrader{os: sys.OS, proc: proc}
	proc.ForEachMapped(func(vpn arch.VPN, _ arch.PPN, perm arch.Perm) {
		if perm.CanWrite() {
			d.pages = append(d.pages, vpn.Base())
		}
	})
	return d
}

// injectOnce runs one downgrade/restore round on the idx'th page of the
// round-robin: downgrade RW -> R (shootdown + border flush), then restore
// so the workload can continue; the restore is an upgrade and incurs no
// shootdown (paper §3.2.4).
func (d *downgrader) injectOnce(idx uint64) {
	v := d.pages[idx%uint64(len(d.pages))]
	if _, err := d.os.Protect(d.proc, v, arch.PageSize, arch.PermRead); err == nil {
		d.count++
	}
	if _, err := d.os.Protect(d.proc, v, arch.PageSize, arch.PermRW); err != nil {
		d.restoreErrs++
		if d.err == nil {
			d.err = fmt.Errorf("restore %#x to RW: %w", uint64(v), err)
		}
	}
}

// failure reports the restore failures, if any, as the run's
// "downgrade"-stage cause.
func (d *downgrader) failure() error {
	if d.err == nil {
		return nil
	}
	return fmt.Errorf("%d restore(s) failed; first: %w", d.restoreErrs, d.err)
}

// every arms injection on the system's engine: a round every interval of
// simulated time while the kernel runs, at most max rounds (0 = until it
// finishes). One pre-bound callback reschedules itself with the
// round-robin page index as its payload, so injection runs allocation-free
// however many downgrades fire.
func (d *downgrader) every(sys *System, interval sim.Time, max int) {
	if len(d.pages) == 0 {
		return
	}
	if interval == 0 {
		interval = 1
	}
	var tick sim.EventFunc
	tick = func(_ sim.Time, idx uint64) {
		if sys.GPU.Finished() || (max > 0 && d.count >= uint64(max)) {
			return
		}
		d.injectOnce(idx)
		sys.Eng.ScheduleIntoAfter(interval, tick, idx+1)
	}
	sys.Eng.ScheduleIntoAfter(interval, tick, 0)
}

// hostStats is the host-side self-measurement of events fired in wall.
func hostStats(wall time.Duration, events uint64) HostStats {
	h := HostStats{Wall: wall, Events: events}
	if s := wall.Seconds(); s > 0 {
		h.EventsPerSec = float64(events) / s
	}
	return h
}

// borderStats returns the border's crossing-check count and BCC check miss
// ratio (zero without a border, or without a BCC).
func (sys *System) borderStats() (checks uint64, bccMiss float64) {
	if sys.BC == nil {
		return 0, 0
	}
	if bcc := sys.BC.Cache(); bcc != nil {
		bccMiss = bcc.CheckHitMiss.MissRatio()
	}
	return sys.BC.CrossingChecks(), bccMiss
}
