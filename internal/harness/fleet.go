package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/workload"
)

// FleetParams configures a fleet-scale scenario: many tenant accelerators —
// each a fully assembled System (its own OS, ASID, IOMMU/ATS, border and
// cache hierarchy) — on one sharded simulation, coordinated by a host
// shard. Border crossings between the host and the accelerators (launch
// doorbells, completion interrupts, downgrade commands) are the cross-shard
// messages, each paying the Lookahead latency; everything else is
// shard-local. See DESIGN.md §13.
type FleetParams struct {
	// Tenants is the number of accelerator sandboxes (one shard each, plus
	// the host coordinator shard).
	Tenants int
	// Mode is the safety configuration every tenant runs under.
	Mode Mode
	// Class is the GPU proxy every tenant instantiates.
	Class GPUClass
	// Lookahead is the host<->accelerator crossing latency — doorbell
	// writes, completion interrupts and downgrade commands all pay it —
	// and therefore the conservative synchronization window.
	Lookahead sim.Time
	// LaunchSpread staggers tenant kernel launches over this much
	// simulated time (seeded jitter), modeling job arrival.
	LaunchSpread sim.Time
	// DowngradeEvery, when non-zero, has the host coordinator command a
	// permission downgrade (RW -> R, then restore) on a seeded random
	// running tenant at this cadence — fleet-scale churn on the
	// shootdown/flush paths (the Figure 7 experiment, many sandboxes at
	// once).
	DowngradeEvery sim.Time
	// Seed drives launch jitter and churn targeting.
	Seed int64
	// Workers bounds how many shards execute concurrently (the bctool
	// -shards flag): 0 = GOMAXPROCS, 1 = serial. Execution policy only —
	// every simulated outcome is bit-identical at any setting.
	Workers int
}

// DefaultFleetParams returns a fleet that exercises every protocol path at
// a size quick enough for smoke tests; scale Tenants up for real runs.
func DefaultFleetParams() FleetParams {
	return FleetParams{
		Tenants:        16,
		Mode:           BCBCC,
		Class:          ModeratelyThreaded,
		Lookahead:      sim.Microsecond,
		LaunchSpread:   50 * sim.Microsecond,
		DowngradeEvery: 20 * sim.Microsecond,
		Seed:           1,
	}
}

// Validate rejects unusable fleet parameters.
func (fp FleetParams) Validate() error {
	if fp.Tenants < 1 {
		return fmt.Errorf("harness: FleetParams.Tenants must be >= 1, got %d", fp.Tenants)
	}
	if fp.Lookahead <= 0 {
		return fmt.Errorf("harness: FleetParams.Lookahead must be positive (it is the host<->accelerator crossing latency)")
	}
	return nil
}

// FleetResult reports one fleet run. Every field except Host is a pure
// function of the inputs — byte-identical at any Workers setting.
type FleetResult struct {
	Workload string
	Mode     Mode
	Class    GPUClass
	Tenants  int

	// Completed counts tenants whose kernel finished; Verified counts
	// those whose output checked correct.
	Completed int
	Verified  int

	// SimTime is the fleet's total simulated duration (the last event
	// anywhere, including the final completion interrupt). FirstDone and
	// LastDone are the host-observed completion interrupt times.
	SimTime   sim.Time
	FirstDone sim.Time
	LastDone  sim.Time

	// Engine aggregates: total events fired across shards, conservative
	// windows executed, cross-shard border messages delivered, and the
	// widest clock skew the lookahead window admitted between shards.
	Events   uint64
	Windows  uint64
	Messages uint64
	MaxSkew  sim.Time

	// Downgrades counts churn commands that landed (performed a real
	// RW -> R downgrade on a running tenant); Ops and BCChecks sum the
	// tenants' memory operations and border checks.
	Downgrades uint64
	Ops        uint64
	BCChecks   uint64

	// Stats merges every tenant system's snapshot with the fleet
	// coordinator's scope ("fleet.windows", "fleet.messages", ...), so
	// counters sum across the fleet.
	Stats stats.Snapshot

	// Host is the host-side self-measurement of the sharded run.
	Host HostStats
}

// Render returns the deterministic fleet report (no wall-clock content).
func (r FleetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet: %d tenants x %s on %v (%v), %d shards\n",
		r.Tenants, r.Workload, r.Mode, r.Class, r.Tenants+1)
	fmt.Fprintf(&b, "  completed %d/%d, verified %d correct\n", r.Completed, r.Tenants, r.Verified)
	fmt.Fprintf(&b, "  sim time %.3f ms; completions %.3f - %.3f ms\n",
		float64(r.SimTime)/1e9, float64(r.FirstDone)/1e9, float64(r.LastDone)/1e9)
	fmt.Fprintf(&b, "  events %d in %d windows; %d border messages; max shard skew %d ps\n",
		r.Events, r.Windows, r.Messages, uint64(r.MaxSkew))
	fmt.Fprintf(&b, "  ops %d, BC checks %d, downgrades %d\n", r.Ops, r.BCChecks, r.Downgrades)
	return b.String()
}

// fleetTenant is one accelerator sandbox bound to its shard: its process,
// and the churn downgrader over its writable pages.
type fleetTenant struct {
	process
	churn *downgrader
	// page is the host-side round-robin cursor into churn's pages.
	page uint64

	// done/doneAt are host-shard state, written only by the completion
	// interrupt handler on shard 0; churn's counts are tenant-shard state,
	// written only by commands executing on this tenant's shard.
	done   bool
	doneAt sim.Time
}

// splitmix64 is the seeded jitter generator behind launch staggering and
// churn targeting — deterministic and stateless per call.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunFleetCtx assembles and executes a fleet: fp.Tenants accelerator
// systems on shards 1..N, a host coordinator on shard 0, and the launch /
// completion / downgrade border traffic between them as conservative
// cross-shard messages. Every tenant runs the same reference stream, so
// the workload is recorded once and replayed into each tenant's process.
// Cancellation is cooperative via ctx and stops every shard promptly.
func RunFleetCtx(ctx context.Context, p Params, fp FleetParams, spec workload.Spec) (FleetResult, error) {
	if err := fp.Validate(); err != nil {
		return FleetResult{}, err
	}
	fail := func(tenant int, stage string, err error) (FleetResult, error) {
		return FleetResult{}, &RunError{
			Workload: fmt.Sprintf("fleet/%s#%d", spec.Name, tenant),
			Mode:     fp.Mode, Class: fp.Class, Stage: stage, Err: err,
		}
	}
	tr, err := tracerec.Record(spec, p.Scale)
	if err != nil {
		return FleetResult{}, &RunError{Workload: "fleet/" + spec.Name, Mode: fp.Mode, Class: fp.Class, Stage: "build", Err: err}
	}
	seg := &tr.Segments[0]

	se := sim.NewShardedEngine(fp.Tenants+1, fp.Lookahead)
	se.Workers = fp.Workers
	host := se.Shard(0)

	// Assemble every tenant on its shard: system, process, program. The
	// GPU launch itself waits for the host's doorbell message, so shard
	// clocks only diverge once the simulation runs.
	tenants := make([]*fleetTenant, fp.Tenants)
	for i := range tenants {
		sys, err := NewSystemWithEngine(se.Shard(i+1), fp.Mode, fp.Class, p)
		if err != nil {
			return FleetResult{}, err
		}
		pr, stage, err := startProcess(sys, fmt.Sprintf("%s#%d", spec.Name, i), func(proc *hostos.Process) (*accel.Program, error) {
			return tracerec.BuildSegment(proc, seg)
		})
		if err != nil {
			return fail(i, stage, err)
		}
		te := &fleetTenant{process: pr, churn: newDowngrader(sys, pr.proc)}

		// Launch doorbell: host -> tenant at a seeded arrival time; the
		// callback runs on the tenant shard.
		launchAt := sim.Time(1)
		if fp.LaunchSpread > 0 {
			launchAt += sim.Time(splitmix64(uint64(fp.Seed)+uint64(i)) % uint64(fp.LaunchSpread))
		}
		host.Send(sim.ShardID(i+1), launchAt+fp.Lookahead, func(_ sim.Time, _ uint64) {
			if err := te.launch(); err != nil {
				// Launching on a fresh system cannot fail; if it does, the
				// fleet wiring is broken and must be loud.
				panic(err)
			}
		}, 0)

		// Completion interrupt: tenant -> host when the kernel (and its
		// final cache drain) retires.
		tenantEng := sys.Eng
		sys.GPU.OnFinish = func(at sim.Time) {
			tenantEng.Send(0, at+fp.Lookahead, func(now sim.Time, arg uint64) {
				t := tenants[arg]
				if !t.done {
					t.done = true
					t.doneAt = now
				}
			}, uint64(i))
		}
		tenants[i] = te
	}

	// Host-driven churn: on a fixed cadence, command a seeded tenant to
	// downgrade (and restore) one of its writable pages. The downgrade
	// itself — shootdown, cache drain, border flush — runs entirely on
	// the tenant's shard; only the command crosses.
	var churnSeq uint64
	if fp.DowngradeEvery > 0 {
		var tick sim.EventFunc
		tick = func(now sim.Time, _ uint64) {
			live := false
			for _, te := range tenants {
				if !te.done {
					live = true
					break
				}
			}
			if !live {
				return
			}
			churnSeq++
			target := int(splitmix64(uint64(fp.Seed)^(churnSeq*0x100000001b3)) % uint64(fp.Tenants))
			if te := tenants[target]; !te.done && len(te.churn.pages) > 0 {
				host.Send(sim.ShardID(target+1), now+fp.Lookahead, func(_ sim.Time, pi uint64) {
					if !te.sys.GPU.Finished() {
						te.churn.injectOnce(pi)
					}
				}, te.page)
				te.page++
			}
			host.ScheduleInto(now+fp.DowngradeEvery, tick, 0)
		}
		host.ScheduleInto(fp.DowngradeEvery, tick, 0)
	}

	se.Interrupt = interrupt(ctx)
	wallStart := time.Now()
	se.Run()
	wall := time.Since(wallStart)

	// Distinguish an external interruption from a genuinely stuck fleet
	// before touching any results.
	for i, te := range tenants {
		if stage, err := te.drained(ctx); err != nil {
			return fail(i, stage, err)
		}
		if err := te.churn.failure(); err != nil {
			return fail(i, "downgrade", err)
		}
	}

	res := FleetResult{
		Workload: spec.Name,
		Mode:     fp.Mode,
		Class:    fp.Class,
		Tenants:  fp.Tenants,
		SimTime:  se.Now(),
		Events:   se.Fired(),
		Windows:  se.Windows(),
		Messages: se.Delivered(),
		MaxSkew:  se.MaxSkew(),
		Host:     hostStats(wall, se.Fired()),
	}

	// Completion (paper Figure 3e) and output verification, per tenant in
	// index order — deterministic, and after the engines have drained.
	fleetReg := stats.NewRegistry()
	se.RegisterMetrics(fleetReg.Scope("fleet"))
	snaps := []stats.Snapshot{fleetReg.Snapshot()}
	for _, te := range tenants {
		res.Completed++
		if res.FirstDone == 0 || te.doneAt < res.FirstDone {
			res.FirstDone = te.doneAt
		}
		if te.doneAt > res.LastDone {
			res.LastDone = te.doneAt
		}
		res.Downgrades += te.churn.count
		res.Ops += te.sys.GPU.OpsDone.Value()
		checks, _ := te.sys.borderStats()
		res.BCChecks += checks
		if te.complete(true) == nil {
			res.Verified++
		}
		snaps = append(snaps, te.sys.Metrics.Snapshot())
	}
	res.Stats = stats.Merge(snaps...)
	return res, nil
}
