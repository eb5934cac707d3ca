package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"bordercontrol/internal/harness"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/workload"
)

// fleet runs harness.RunFleetCtx with DefaultFleetParams (16 BC-BCC
// tenants running pathfinder, as `bctool fleet` does) on nproc shard
// workers: the only workload on sim.ShardedEngine windows, barrier merges,
// cross-shard messages and downgrade churn. One fleet run is one job.
type fleet struct {
	cfg  config
	p    harness.Params
	fp   harness.FleetParams
	spec workload.Spec
	// runs numbers the traced fleet runs.
	runs int
}

func (f *fleet) close() {}

func (f *fleet) setup(context.Context) error {
	f.p = harness.DefaultParams()
	f.fp = harness.DefaultFleetParams()
	f.fp.Seed = f.cfg.seed
	f.fp.Workers = f.cfg.jobs
	spec, ok := workload.ByName("pathfinder")
	if !ok {
		return fmt.Errorf("workload pathfinder is not registered")
	}
	f.spec = spec
	return f.fp.Validate()
}

func (f *fleet) batch(ctx context.Context, sp *spans) (batch, error) {
	var b batch
	var t *track
	if sp != nil {
		// Tenant assembly, the sharded run, verification and the stats
		// merge all happen inside RunFleetCtx, so the span covers the call.
		f.runs++
		t = sp.track(fmt.Sprintf("fleet/%04d", f.runs))
		t.begin("harness.fleet")
	}
	start := time.Now()
	res, err := harness.RunFleetCtx(ctx, f.p, f.fp, f.spec)
	b.wall = time.Since(start)
	if t != nil {
		t.end()
	}
	b.jobs = []time.Duration{b.wall}
	b.attempted = f.fp.Tenants
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		b.failed = f.fp.Tenants
		return b, nil
	}
	// Output check: every tenant completes and verifies.
	b.failed = f.fp.Tenants - min(res.Completed, res.Verified)
	b.events = res.Events
	model, err := fleetModel(res)
	if err != nil {
		return b, err
	}
	b.model = model
	b.layers = map[string]float64{}
	for _, mc := range modelCounters {
		b.layers[mc.metric] = float64(res.Stats.Counter(mc.counter))
	}
	b.layers["sim.events"] = float64(res.Events)
	b.layers["sim.fleet_run_s"] = res.Host.Wall.Seconds()
	// What RunFleetCtx does outside its engine run: tenant assembly
	// (system, process, program build), verification and the stats merge.
	b.layers["harness.fleet_build_s"] = (b.wall - res.Host.Wall).Seconds()
	b.layers["sim.windows"] = float64(res.Windows)
	b.layers["sim.messages"] = float64(res.Messages)
	return b, nil
}

// fleetModel is a fleet run's deterministic output: the rendered report
// and the merged stats snapshot.
func fleetModel(res harness.FleetResult) (string, error) {
	blob, err := json.Marshal(res.Stats)
	if err != nil {
		return "", err
	}
	return res.Render() + string(blob), nil
}

// ops builds the fleet's tenant programs as RunFleetCtx does — system,
// process and program per tenant on its shard — and returns their op
// count. It runs once, untimed, after the measured batches.
func (f *fleet) ops() (uint64, error) {
	se := sim.NewShardedEngine(f.fp.Tenants+1, f.fp.Lookahead)
	var ops uint64
	for i := 0; i < f.fp.Tenants; i++ {
		sys, err := harness.NewSystemWithEngine(se.Shard(i+1), f.fp.Mode, f.fp.Class, f.p)
		if err != nil {
			return 0, err
		}
		proc, err := sys.OS.NewProcess(fmt.Sprintf("%s#%d", f.spec.Name, i))
		if err != nil {
			return 0, err
		}
		prog, err := f.spec.Build(proc, f.p.Scale)
		if err != nil {
			return 0, err
		}
		ops += prog.Ops()
	}
	return ops, nil
}

// finish checks that the fleet's report is byte-identical at one worker,
// and measures the shard speed-up against that serial run.
func (f *fleet) finish(ctx context.Context, st *runState) error {
	fp := f.fp
	fp.Workers = 1
	res, err := harness.RunFleetCtx(ctx, f.p, fp, f.spec)
	st.extraAttempted += fp.Tenants
	ok := err == nil && res.Verified == fp.Tenants
	if ok {
		var model string
		if model, err = fleetModel(res); err != nil {
			return err
		}
		ok = len(st.base) > 0 && model == st.base[0].model
	}
	if !ok {
		st.extraFailed += fp.Tenants
	}
	st.check(fmt.Sprintf("fleet report identical at 1 and %d workers, all tenants verified", f.cfg.jobs), ok,
		fmt.Sprintf("verified %d/%d at 1 worker", res.Verified, fp.Tenants))
	if st.cfg.traced && err == nil {
		var walls []float64
		for _, b := range st.traced {
			walls = append(walls, b.layers["sim.fleet_run_s"])
		}
		st.layers["sim.shard_speedup"] = res.Host.Wall.Seconds() / median(walls)
	}
	if st.cfg.traced {
		ops, err := f.ops()
		if err != nil {
			return err
		}
		st.layers["workload.ops"] = float64(ops)
	}
	return nil
}
