// Command bctool regenerates the evaluation artifacts of "Border Control:
// Sandboxing Accelerators" (MICRO-48, 2015): every table and figure of the
// paper's evaluation section, plus single-run inspection of any workload
// under any safety configuration.
//
// Sweeps run on the parallel experiment-execution layer: independent
// simulations spread over all cores (bounded by -jobs) with results
// collected in submission order, so the output is byte-identical at any
// parallelism. Progress lines go to stderr; artifacts go to stdout.
//
// Usage:
//
//	bctool table1|table2|table3            print a paper table
//	bctool fig4|fig5|fig6|fig7 [csv]       regenerate a paper figure
//	bctool borders [csv]                   compare the registered border
//	                                       designs (flat, range, sparta) on
//	                                       the Figure-4 sweep, both classes
//	bctool all                             everything above + security matrix
//	bctool security                        run the threat-model probe matrix
//	bctool adversary [-seed N] [-campaigns N] [-attacks a,b]
//	                                       seeded sandbox-escape campaigns
//	                                       with the shadow-memory oracle
//	bctool run -mode bc-bcc -class high -workload bfs [-downgrades N]
//	bctool record -workload bfs|all | -traffic churn [-seed N] [-o DIR]
//	                                       capture reference traces (workload
//	                                       generators or synthetic traffic)
//	                                       as versioned .bctrace files
//	bctool replay [run flags] FILE.bctrace re-run a recording through any
//	                                       mode/border/class/shards cell; a
//	                                       workload recording prints stdout
//	                                       byte-identical to `bctool run`
//	bctool sweep [-traffic all] [-seeds N] [-traces f,..] [-modes ..]
//	       [-borders ..] [-classes both]   replay a grid of traces across
//	                                       mode/border/class cells with
//	                                       border-check latency tails
//	                                       (p50/p99/p999) per cell
//	bctool fleet [-tenants N] [-shards N] [-workload W] [-churn-ps N]
//	                                       many tenant sandboxes on one
//	                                       sharded conservative-parallel
//	                                       simulation (host shard + one
//	                                       shard per tenant)
//	bctool serve [-addr HOST:PORT] [-workers N] [-jobs N] [-queue N]
//	                                       run the experiment service: an
//	                                       HTTP job queue with an artifact
//	                                       cache; sweep grids fan out over
//	                                       `bctool worker` subprocesses with
//	                                       byte-identical artifacts at any
//	                                       worker count
//	bctool submit [-addr URL] [-wait D] run|sweep|adversary|fleet [flags]
//	                                       submit a job to a running service,
//	                                       stream its progress to stderr and
//	                                       print the artifact to stdout
//	bctool top [-addr URL] [-interval D] [-once|-raw|-require a,b]
//	                                       live dashboard over a running
//	                                       service: jobs table, queue/cache
//	                                       gauges, per-job activity from the
//	                                       /v1/watch firehose; -require
//	                                       asserts metric families exist and
//	                                       /v1/metrics parses
//	bctool sweepdiff [-rel F] [-tol m=f,..] [-stats] OLD NEW
//	                                       compare two sweep CSV (or two
//	                                       -stats-json) artifacts cell-by-
//	                                       cell under relative-drift
//	                                       thresholds; exits non-zero on any
//	                                       drift or missing cell
//	bctool worker                          internal: sweep-cell executor
//	                                       spawned by serve (cells on stdin,
//	                                       rows on stdout)
//	bctool profile [-folded FILE] [-pprof FILE]
//	                                       simulated-time profile of the
//	                                       bench matrix (folded stacks or a
//	                                       pprof protobuf for `go tool pprof`)
//	bctool bench [-json|-compare FILE]     host-side self-measurement
//	bctool tracecheck [-stats] FILE        validate a Chrome trace file, or
//	                                       a -stats-json document's schema
//	bctool list                            list workloads and modes
//
// Figure, security and all accept -jobs N (0 = all cores, 1 = serial),
// -timeout D (per simulation) and -quiet (suppress progress lines). Any
// failed job makes bctool exit non-zero.
//
// run, figures, adversary and bench accept -border NAME, selecting the
// protection architecture the BC modes use (`bctool list` names them; the
// default is the paper's flat Protection Table). `bctool borders` sweeps
// every registered design regardless.
//
// Figures, run, adversary and fleet also accept -shards N, which executes
// each simulation on the sharded conservative-parallel engine with N
// worker goroutines. Sharding is execution machinery, not model input:
// every artifact is byte-identical between -shards=1 and -shards=4 (and
// the direct engine). Fleets are where extra workers buy wall-clock time;
// single-accelerator runs are one determinism domain and use it as a
// residue-freedom proof.
//
// Observability (run, figures and all):
//
//	-stats-json FILE   write the sweep's merged metrics snapshot as JSON
//	-hist              print the latency histograms (count/p50/p90/p99/max
//	                   in simulated picoseconds) to stderr
//	-trace FILE        record a Chrome trace (open in Perfetto)
//	-trace-cats LIST   trace categories (default "engine,gpu,border"; a
//	                   parent enables its children, so border includes the
//	                   per-check border.check events)
//	-metrics           print the metrics snapshot to stderr
//
// adversary additionally accepts -stats-json and -metrics to surface the
// campaign's aggregate counters (attacks run, crossings audited, oracle
// assertions, breaches); its report text is unchanged by those flags.
//
// Everything here is pure observation of a deterministic simulator: with
// the flags off, every artifact is byte-identical to a run without them,
// and profiles/histograms themselves are byte-identical across runs and
// across -jobs settings.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	bc "bordercontrol"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "table1":
		fmt.Print(bc.RenderTable1())
	case "table2":
		fmt.Print(bc.RenderTable2())
	case "table3":
		fmt.Print(bc.RenderTable3(bc.DefaultParams()))
	case "fig4", "fig5", "fig6", "fig7", "borders", "security":
		err = sweep(ctx, cmd, args)
	case "adversary":
		err = adversaryCmd(ctx, args)
	case "all":
		err = all(ctx, args)
	case "run":
		err = runOne(ctx, args, false)
	case "record":
		err = recordCmd(args)
	case "replay":
		err = runOne(ctx, args, true)
	case "sweep":
		err = sweepReplay(ctx, args)
	case "fleet":
		err = fleetCmd(ctx, args)
	case "serve":
		err = serveCmd(ctx, args)
	case "worker":
		err = workerCmd(ctx)
	case "submit":
		err = submitCmd(ctx, args)
	case "top":
		err = topCmd(ctx, args)
	case "sweepdiff":
		err = sweepdiffCmd(ctx, args)
	case "profile":
		err = profileCmd(ctx, args)
	case "bench":
		err = bench(ctx, args)
	case "tracecheck":
		err = traceCheck(args)
	case "list":
		fmt.Println("workloads:", strings.Join(bc.Workloads(), " "))
		fmt.Println("modes:     ats-only full-iommu capi bc-nobcc bc-bcc")
		fmt.Println("classes:   high moderate")
		fmt.Println("borders:  ", strings.Join(bc.BorderDesigns(), " "))
		fmt.Println("traffic:  ", strings.Join(bc.TrafficShapes(), " "))
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		// A SIGINT/SIGTERM arrives as context cancellation; report it as an
		// interruption (exit 130, the shell convention) rather than a
		// failure of the tool itself.
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "bctool: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "bctool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bctool <table1|table2|table3|fig4|fig5|fig6|fig7|borders|security|adversary|all|run|record|replay|sweep|fleet|serve|worker|submit|top|sweepdiff|profile|bench|tracecheck|list> [csv]
	[-border NAME] [-jobs N] [-shards N] [-timeout D] [-quiet] [-stats-json FILE] [-hist] [-trace FILE] [-trace-cats LIST] [-metrics]
	serve:     run the experiment service (-addr, -workers, -jobs, -queue, -cache-size, -watch-buffer, -log-level)
	submit:    send a job to a running service and stream it (-addr, -wait, -ping, then run|sweep|adversary|fleet + flags)
	top:       live dashboard over a running service (-addr, -interval, -once, -raw, -require FAMILIES)
	sweepdiff: compare two sweep CSV/stats artifacts (-rel FRAC, -tol m=f,.., -stats OLD NEW); non-zero exit on drift
	worker:    internal — sweep-cell executor spawned by serve`)
}

// obsFlags are the observability knobs shared by run and the sweeps.
type obsFlags struct {
	statsJSON string
	tracePath string
	traceCats string
	metrics   bool
	hist      bool
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.statsJSON, "stats-json", "", "write the metrics snapshot as JSON to this file (- = stdout)")
	fs.StringVar(&o.tracePath, "trace", "", "record a Chrome trace-event file (open in Perfetto)")
	fs.StringVar(&o.traceCats, "trace-cats", "engine,gpu,border",
		"comma-separated trace categories; a parent enables its children (border includes border.check)")
	fs.BoolVar(&o.metrics, "metrics", false, "print the metrics snapshot to stderr")
	fs.BoolVar(&o.hist, "hist", false, "print the latency histograms (simulated ps) to stderr")
}

// emitStats writes/prints the snapshot per the -stats-json, -metrics and
// -hist flags.
func (o *obsFlags) emitStats(snap bc.Snapshot) error {
	if o.metrics {
		fmt.Fprint(os.Stderr, snap.String())
	}
	if o.hist {
		printHistograms(snap)
	}
	if o.statsJSON == "" {
		return nil
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if o.statsJSON == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(o.statsJSON, blob, 0o644)
}

// printHistograms renders every histogram sample of the snapshot as a
// percentile table on stderr. Latencies are simulated picoseconds;
// engine.queue_depth is an event count.
func printHistograms(snap bc.Snapshot) {
	fmt.Fprintf(os.Stderr, "%-36s %10s %10s %10s %10s %10s\n",
		"histogram", "count", "p50", "p90", "p99", "max")
	for _, smp := range snap.Samples {
		if smp.Kind != bc.KindHistogram {
			continue
		}
		h := smp.Hist
		fmt.Fprintf(os.Stderr, "%-36s %10d %10d %10d %10d %10d\n",
			smp.Name, h.Count, h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Max)
	}
}

// writeTrace writes any recorded trace to -trace.
func writeTrace(path string, w interface{ WriteJSON(io.Writer) error }) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	return nil
}

// execFlags are the execution-layer knobs shared by every sweep command.
type execFlags struct {
	jobs    int
	shards  int
	timeout time.Duration
	quiet   bool
	csv     bool
	border  string
	obs     obsFlags
}

// parseExec parses sweep flags; a leading "csv" operand is accepted for
// backward compatibility with `bctool fig4 csv`.
func parseExec(name string, args []string) (execFlags, error) {
	var f execFlags
	if len(args) > 0 && args[0] == "csv" {
		f.csv = true
		args = args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.IntVar(&f.jobs, "jobs", 0, "concurrent simulations (0 = all cores, 1 = serial)")
	fs.IntVar(&f.shards, "shards", 0, "run each simulation on the sharded engine with this many workers (0 = direct engine); artifacts are byte-identical at any setting")
	fs.DurationVar(&f.timeout, "timeout", 0, "per-simulation timeout (0 = none)")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress per-job progress lines on stderr")
	fs.BoolVar(&f.csv, "csv", f.csv, "emit CSV instead of a text table")
	fs.StringVar(&f.border, "border", "", "border design for the BC modes (see bctool list; default "+bc.DefaultBorderDesign+"); borders sweeps every design regardless")
	f.obs.register(fs)
	err := fs.Parse(args)
	return f, err
}

// workers reports the effective worker count for the summary line.
func (f execFlags) workers() int {
	if f.jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return f.jobs
}

// tracker accumulates per-job statistics and prints progress to stderr.
type tracker struct {
	quiet  bool
	jobs   int
	failed int
	busy   time.Duration // summed per-job wall-clock across all workers
}

func (t *tracker) done(r bc.JobResult) {
	t.jobs++
	t.busy += r.Elapsed
	status := "ok"
	if r.Err != nil {
		t.failed++
		status = "FAILED: " + r.Err.Error()
	}
	if !t.quiet {
		fmt.Fprintf(os.Stderr, "%-44s %9s  %s\n", r.Name, fmtDur(r.Elapsed), status)
	}
}

func (f execFlags) exec(t *tracker) bc.Exec {
	t.quiet = f.quiet
	ex := bc.Exec{Jobs: f.jobs, Timeout: f.timeout, Progress: t.done, Shards: f.shards}
	if f.obs.tracePath != "" {
		ex.Trace = bc.NewTraceSet(f.obs.traceCats)
	}
	return ex
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// finishObs emits the sweep's stats and trace after the artifact printed.
func (f execFlags) finishObs(ex bc.Exec, snap bc.Snapshot) error {
	if err := f.obs.emitStats(snap); err != nil {
		return err
	}
	if ex.Trace != nil {
		return writeTrace(f.obs.tracePath, ex.Trace)
	}
	return nil
}

// sweep runs one figure or the security matrix on the execution layer.
func sweep(ctx context.Context, cmd string, args []string) error {
	f, err := parseExec(cmd, args)
	if err != nil {
		return err
	}
	var t tracker
	ex := f.exec(&t)
	p := bc.DefaultParams()
	if f.border != "" {
		p.Border = f.border
	}
	var snap bc.Snapshot
	switch cmd {
	case "fig4":
		var snaps []bc.Snapshot
		for _, class := range []bc.GPUClass{bc.HighlyThreaded, bc.ModeratelyThreaded} {
			res, err := bc.Figure4(ctx, ex, class, p)
			if err != nil {
				return err
			}
			snaps = append(snaps, res.Stats)
			if f.csv {
				fmt.Print(res.CSV())
			} else {
				fmt.Println(res.Render())
			}
		}
		snap = bc.MergeSnapshots(snaps...)
	case "fig5":
		res, err := bc.Figure5(ctx, ex, p)
		if err != nil {
			return err
		}
		snap = res.Stats
		if f.csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Render())
		}
	case "fig6":
		res, err := bc.Figure6(ctx, ex, p)
		if err != nil {
			return err
		}
		snap = res.Stats
		if f.csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Render())
		}
	case "fig7":
		res, err := bc.Figure7(ctx, ex, p)
		if err != nil {
			return err
		}
		snap = res.Stats
		if f.csv {
			fmt.Print(res.CSV())
		} else {
			fmt.Println(res.Render())
		}
	case "borders":
		var snaps []bc.Snapshot
		for _, class := range []bc.GPUClass{bc.HighlyThreaded, bc.ModeratelyThreaded} {
			res, err := bc.FigureBorders(ctx, ex, class, p)
			if err != nil {
				return err
			}
			snaps = append(snaps, res.Stats)
			if f.csv {
				fmt.Print(res.CSV())
			} else {
				fmt.Println(res.Render())
			}
		}
		snap = bc.MergeSnapshots(snaps...)
	case "security":
		results, err := bc.SecurityMatrix(ctx, ex, p)
		if err != nil {
			return err
		}
		fmt.Print(bc.RenderSecurityMatrix(results))
	}
	return f.finishObs(ex, snap)
}

// adversaryCmd runs the seeded sandbox-escape campaigns. The report is a
// pure function of -seed/-campaigns/-attacks: the same flags render
// byte-identically at any parallelism. A breached invariant exits non-zero
// after printing one reproducing command per failing attack.
func adversaryCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("adversary", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "base campaign seed (campaign i uses seed+i)")
	campaigns := fs.Int("campaigns", 4, "number of campaigns (each rotates the protocol variant)")
	attacks := fs.String("attacks", "", "comma-separated attack names (empty = all: "+strings.Join(bc.AdversaryAttacks(), ",")+")")
	border := fs.String("border", "", "border design under attack (see bctool list; default "+bc.DefaultBorderDesign+")")
	jobs := fs.Int("jobs", 0, "concurrent attack runs (0 = all cores, 1 = serial)")
	shards := fs.Int("shards", 0, "assemble each campaign system on the sharded engine (0 = direct engine); reports are byte-identical either way")
	timeout := fs.Duration("timeout", 0, "per-run timeout (0 = none)")
	quiet := fs.Bool("quiet", false, "suppress per-run progress lines on stderr")
	statsJSON := fs.String("stats-json", "", "write the campaign's aggregate counters as JSON to this file (- = stdout)")
	metrics := fs.Bool("metrics", false, "print the campaign's aggregate counters to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var names []string
	if *attacks != "" {
		for _, a := range strings.Split(*attacks, ",") {
			if a = strings.TrimSpace(a); a != "" {
				names = append(names, a)
			}
		}
	}
	var t tracker
	t.quiet = *quiet
	ex := bc.Exec{Jobs: *jobs, Timeout: *timeout, Progress: t.done, Shards: *shards}
	p := bc.DefaultParams()
	if *border != "" {
		p.Border = *border
	}
	rep, err := bc.RunAdversary(ctx, ex, p, *seed, *campaigns, names)
	if err != nil {
		return err
	}
	fmt.Print(bc.RenderAdversaryReport(rep))
	obs := obsFlags{statsJSON: *statsJSON, metrics: *metrics}
	if err := obs.emitStats(rep.Stats()); err != nil {
		return err
	}
	if rep.Failed() {
		return fmt.Errorf("sandbox breached — see the reproducing seeds above")
	}
	return nil
}

// all regenerates every artifact and prints a per-artifact wall-clock and
// effective-parallelism summary to stderr.
func all(ctx context.Context, args []string) error {
	f, err := parseExec("all", args)
	if err != nil {
		return err
	}
	var t tracker
	ex := f.exec(&t)
	start := time.Now()
	artifacts, err := bc.RunAll(ctx, bc.Config{Exec: ex})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var snaps []bc.Snapshot
	for _, a := range artifacts {
		fmt.Print(a.Text)
		snaps = append(snaps, a.Stats)
	}

	fmt.Fprintf(os.Stderr, "\n%-10s %10s\n", "artifact", "wall")
	for _, a := range artifacts {
		fmt.Fprintf(os.Stderr, "%-10s %10s\n", a.Name, fmtDur(a.Elapsed))
	}
	parallelism := 0.0
	if wall > 0 {
		parallelism = float64(t.busy) / float64(wall)
	}
	fmt.Fprintf(os.Stderr, "\n%d simulations in %s wall (%s of simulation time, %d workers): effective parallelism %.2fx\n",
		t.jobs, fmtDur(wall), fmtDur(t.busy), f.workers(), parallelism)
	if t.failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", t.failed, t.jobs)
	}
	return f.finishObs(ex, bc.MergeSnapshots(snaps...))
}

// runOne executes one workload (`bctool run`) or replays one recording
// (`bctool replay [flags] FILE`). The two share every flag and every line
// of output: replaying a workload's recording prints byte-identical stdout
// to running the workload live — `make replay-smoke` diffs exactly that.
// Replaying a multi-segment or probed recording (synthetic traffic) prints
// the trace-run report instead.
func runOne(ctx context.Context, args []string, replay bool) error {
	cmdName := "run"
	if replay {
		cmdName = "replay"
	}
	fs := flag.NewFlagSet(cmdName, flag.ContinueOnError)
	mode := fs.String("mode", "bc-bcc", "safety configuration (see bctool list)")
	class := fs.String("class", "high", "GPU class: high or moderate")
	name := fs.String("workload", "bfs", "workload name")
	border := fs.String("border", "", "border design for the BC modes (see bctool list; default "+bc.DefaultBorderDesign+")")
	downgrades := fs.Float64("downgrades", 0, "permission downgrades per second to inject")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	shards := fs.Int("shards", 0, "run on the sharded engine with this many workers (0 = direct engine); results are bit-identical either way")
	timeout := fs.Duration("timeout", 0, "abort the simulation after this long (0 = none)")
	var obs obsFlags
	obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := bc.ParseMode(*mode)
	if err != nil {
		return err
	}
	cl, err := bc.ParseClass(*class)
	if err != nil {
		return err
	}
	p := bc.DefaultParams()
	p.Scale = *scale
	if *border != "" {
		p.Border = *border
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := bc.RunOptions{DowngradesPerSec: *downgrades, Shards: *shards}
	var tr *bc.Tracer
	if obs.tracePath != "" {
		tr = bc.NewTracer(obs.traceCats)
		opts.Tracer = tr
	}
	var res bc.Result
	if replay {
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: bctool replay [flags] FILE.bctrace")
		}
		var rec *bc.RefTrace
		if rec, err = bc.ReadTraceFile(fs.Arg(0)); err != nil {
			return err
		}
		// A single benign segment of a known workload replays through the
		// exact same path (and printer) as `bctool run`; anything else —
		// multi-tenant churn, probed mixes — goes through the trace runner.
		single := len(rec.Segments) == 1 && len(rec.Segments[0].Probes) == 0
		if !single || !knownWorkload(rec.Workload) {
			return replayTraceRun(ctx, m, cl, rec, p, opts, obs)
		}
		res, err = bc.ReplayCtx(ctx, m, cl, rec, p, opts)
	} else {
		res, err = bc.RunCtx(ctx, m, cl, *name, p, opts)
	}
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	fmt.Fprintf(os.Stderr, "host: %s wall, %d events, %.0f events/sec\n",
		fmtDur(res.Host.Wall), res.Host.Events, res.Host.EventsPerSec)
	if err := obs.emitStats(res.Stats); err != nil {
		return err
	}
	if tr != nil {
		if err := writeTrace(obs.tracePath, tr); err != nil {
			return err
		}
	}
	if res.VerifyErr != nil {
		return fmt.Errorf("results INCORRECT: %w", res.VerifyErr)
	}
	fmt.Println("results       verified correct")
	return nil
}

// fleetCmd runs a fleet: many tenant accelerator sandboxes on one sharded
// conservative-parallel simulation, coordinated by a host shard whose
// launch doorbells, completion interrupts and downgrade commands are the
// cross-shard border messages. The printed report is byte-identical at any
// -shards setting; the host line on stderr is the only wall-clock output.
func fleetCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	def := bc.DefaultFleetParams()
	tenants := fs.Int("tenants", def.Tenants, "tenant accelerator sandboxes (one shard each, plus the host shard)")
	mode := fs.String("mode", "bc-bcc", "safety configuration every tenant runs under (see bctool list)")
	class := fs.String("class", "moderate", "GPU class: high or moderate")
	name := fs.String("workload", "pathfinder", "workload every tenant runs")
	shards := fs.Int("shards", 0, "worker goroutines executing shards (0 = all cores, 1 = serial); the report is byte-identical at any setting")
	lookahead := fs.Int64("lookahead-ps", int64(def.Lookahead), "host<->accelerator crossing latency in simulated ps (the conservative window)")
	spread := fs.Int64("spread-ps", int64(def.LaunchSpread), "stagger tenant launches over this much simulated ps (seeded)")
	churn := fs.Int64("churn-ps", int64(def.DowngradeEvery), "host downgrade-command cadence in simulated ps (0 = no churn)")
	seed := fs.Int64("seed", def.Seed, "seed for launch jitter and churn targeting")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	timeout := fs.Duration("timeout", 0, "abort the fleet after this long (0 = none)")
	var obs obsFlags
	obs.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := bc.ParseMode(*mode)
	if err != nil {
		return err
	}
	cl, err := bc.ParseClass(*class)
	if err != nil {
		return err
	}
	p := bc.DefaultParams()
	p.Scale = *scale
	fp := bc.FleetParams{
		Tenants:        *tenants,
		Mode:           m,
		Class:          cl,
		Lookahead:      bc.Time(*lookahead),
		LaunchSpread:   bc.Time(*spread),
		DowngradeEvery: bc.Time(*churn),
		Seed:           *seed,
		Workers:        *shards,
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := bc.RunFleetCtx(ctx, p, fp, *name)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	fmt.Fprintf(os.Stderr, "host: %s wall, %d events, %.0f events/sec\n",
		fmtDur(res.Host.Wall), res.Host.Events, res.Host.EventsPerSec)
	if err := obs.emitStats(res.Stats); err != nil {
		return err
	}
	if res.Verified != res.Tenants {
		return fmt.Errorf("%d of %d tenants produced INCORRECT results", res.Tenants-res.Verified, res.Tenants)
	}
	return nil
}

// profileCmd runs the bench matrix (or one -mode/-class cell) with the
// simulated-time profiler attached and writes the attribution as folded
// stacks and/or a pprof protobuf. The profile keys on simulated time, so it
// is byte-identical across runs and across -jobs settings; with neither
// -folded nor -pprof given, folded stacks go to stdout.
func profileCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	workloadName := fs.String("workload", "pathfinder", "workload to profile")
	mode := fs.String("mode", "", "profile a single safety configuration instead of the matrix (see bctool list)")
	class := fs.String("class", "high", "GPU class for -mode: high or moderate")
	folded := fs.String("folded", "", "write folded-stacks text (flamegraph input) to this file (- = stdout)")
	pprofPath := fs.String("pprof", "", "write a pprof protobuf to this file (open with `go tool pprof`)")
	jobs := fs.Int("jobs", 0, "concurrent simulations (0 = all cores, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "per-simulation timeout (0 = none)")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var pr *bc.Profiler
	if *mode != "" {
		m, err := bc.ParseMode(*mode)
		if err != nil {
			return err
		}
		cl, err := bc.ParseClass(*class)
		if err != nil {
			return err
		}
		p, err := bc.ProfileRun(ctx, m, cl, bc.DefaultParams(), *workloadName)
		if err != nil {
			return err
		}
		pr = p
	} else {
		var t tracker
		t.quiet = *quiet
		ex := bc.Exec{Jobs: *jobs, Timeout: *timeout, Progress: t.done}
		p, err := bc.Profile(ctx, ex, bc.DefaultParams(), *workloadName)
		if err != nil {
			return err
		}
		pr = p
	}
	if *folded == "" && *pprofPath == "" {
		*folded = "-"
	}
	if *folded != "" {
		if *folded == "-" {
			if err := pr.WriteFolded(os.Stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(*folded)
			if err != nil {
				return err
			}
			if err := pr.WriteFolded(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "folded stacks written to %s\n", *folded)
		}
	}
	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			return err
		}
		if err := pr.WritePprof(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pprof profile written to %s (go tool pprof -top %s)\n", *pprofPath, *pprofPath)
	}
	return nil
}

// benchRun is one row of `bctool bench` output: a (mode, class, workload)
// simulation and its host-side self-measurement.
type benchRun struct {
	Name         string  `json:"name"`
	SimPs        uint64  `json:"sim_ps"`
	WallMs       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// benchReport is the `bctool bench -json` document; checked-in snapshots
// of it (BENCH.json) record simulator throughput on a reference host.
type benchReport struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	// CPUModel and GoMaxProcs identify the measuring host: events/sec
	// comparisons across different hosts are informational only, and
	// `bench -compare` warns when they differ from the snapshot's.
	CPUModel   string     `json:"cpu_model"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Runs       []benchRun `json:"runs"`
	// TotalEventsPerSec is the sum of events over the sum of wall time —
	// the simulator's aggregate serial throughput.
	TotalEventsPerSec float64 `json:"total_events_per_sec"`
}

// bench self-measures the simulator: a fixed matrix of short runs, each
// reporting wall-clock, events fired and events/sec from RunResult.Host.
func bench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	compare := fs.String("compare", "", "compare against a BENCH.json snapshot: error on any sim_ps/events drift, report the events/sec delta")
	workloadName := fs.String("workload", "pathfinder", "workload to measure")
	border := fs.String("border", "", "border design for the base matrix rows (see bctool list; default "+bc.DefaultBorderDesign+"); the per-design rows always sweep every design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	basep := bc.DefaultParams()
	if *border != "" {
		basep.Border = *border
	}
	matrix := []struct {
		mode  bc.Mode
		class bc.GPUClass
		label string
	}{
		{bc.ATSOnly, bc.HighlyThreaded, "ats-only/high"},
		{bc.BCBCC, bc.HighlyThreaded, "bc-bcc/high"},
		{bc.FullIOMMU, bc.HighlyThreaded, "full-iommu/high"},
		{bc.BCBCC, bc.ModeratelyThreaded, "bc-bcc/moderate"},
	}
	rep := benchReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var wall time.Duration
	var events uint64
	for _, m := range matrix {
		res, err := bc.RunCtx(ctx, m.mode, m.class, *workloadName, basep, bc.RunOptions{})
		if err != nil {
			return fmt.Errorf("bench %s: %w", m.label, err)
		}
		rep.Runs = append(rep.Runs, benchRun{
			Name:         m.label + "/" + *workloadName,
			SimPs:        uint64(res.Runtime),
			WallMs:       float64(res.Host.Wall) / float64(time.Millisecond),
			Events:       res.Host.Events,
			EventsPerSec: res.Host.EventsPerSec,
		})
		wall += res.Host.Wall
		events += res.Host.Events
	}
	// Per-design rows: the bc-bcc/moderate cell once per registered border
	// design. sim_ps and events are deterministic model outputs per design,
	// so `bench -compare` doubles as a cross-design determinism check (the
	// flat row must reproduce the bc-bcc/moderate row above exactly).
	for _, design := range bc.BorderDesigns() {
		dp := bc.DefaultParams()
		dp.Border = design
		res, err := bc.RunCtx(ctx, bc.BCBCC, bc.ModeratelyThreaded, *workloadName, dp, bc.RunOptions{})
		if err != nil {
			return fmt.Errorf("bench bc-bcc/moderate/%s: %w", design, err)
		}
		rep.Runs = append(rep.Runs, benchRun{
			Name:         "bc-bcc/moderate/" + design + "/" + *workloadName,
			SimPs:        uint64(res.Runtime),
			WallMs:       float64(res.Host.Wall) / float64(time.Millisecond),
			Events:       res.Host.Events,
			EventsPerSec: res.Host.EventsPerSec,
		})
		wall += res.Host.Wall
		events += res.Host.Events
	}
	// Replay row: record the workload's reference trace once, then run the
	// bc-bcc/moderate cell from the recording instead of the generator.
	// Replay must reproduce the live row's sim_ps and events bit-exactly,
	// and bench asserts it here — every bench run doubles as a
	// record/replay equivalence check, and BENCH.json pins both.
	{
		rec, err := bc.RecordTrace(*workloadName, basep.Scale)
		if err != nil {
			return fmt.Errorf("bench replay record: %w", err)
		}
		res, err := bc.ReplayCtx(ctx, bc.BCBCC, bc.ModeratelyThreaded, rec, basep, bc.RunOptions{})
		if err != nil {
			return fmt.Errorf("bench replay: %w", err)
		}
		live := rep.Runs[3] // bc-bcc/moderate above
		if uint64(res.Runtime) != live.SimPs || res.Host.Events != live.Events {
			return fmt.Errorf("bench replay diverged from live %s: sim_ps %d vs %d, events %d vs %d",
				live.Name, res.Runtime, live.SimPs, res.Host.Events, live.Events)
		}
		rep.Runs = append(rep.Runs, benchRun{
			Name:         "replay/bc-bcc/moderate/" + *workloadName,
			SimPs:        uint64(res.Runtime),
			WallMs:       float64(res.Host.Wall) / float64(time.Millisecond),
			Events:       res.Host.Events,
			EventsPerSec: res.Host.EventsPerSec,
		})
		wall += res.Host.Wall
		events += res.Host.Events
	}
	// Fleet rows: the same fleet serial and on 4 workers. sim_ps and
	// events must be identical between the two — `bench -compare` against
	// the snapshot doubles as a determinism check of the sharded engine.
	for _, workers := range []int{1, 4} {
		fp := bc.DefaultFleetParams()
		fp.Workers = workers
		fres, err := bc.RunFleetCtx(ctx, bc.DefaultParams(), fp, *workloadName)
		if err != nil {
			return fmt.Errorf("bench fleet w%d: %w", workers, err)
		}
		rep.Runs = append(rep.Runs, benchRun{
			Name:         fmt.Sprintf("fleet%d/bc-bcc/w%d/%s", fp.Tenants, workers, *workloadName),
			SimPs:        uint64(fres.SimTime),
			WallMs:       float64(fres.Host.Wall) / float64(time.Millisecond),
			Events:       fres.Events,
			EventsPerSec: fres.Host.EventsPerSec,
		})
		wall += fres.Host.Wall
		events += fres.Events
	}
	if s := wall.Seconds(); s > 0 {
		rep.TotalEventsPerSec = float64(events) / s
	}
	if *compare != "" {
		return benchCompare(rep, *compare)
	}
	if *asJSON {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}
	fmt.Printf("%-28s %12s %12s %14s\n", "run", "wall", "events", "events/sec")
	for _, r := range rep.Runs {
		fmt.Printf("%-28s %11.1fms %12d %14.0f\n", r.Name, r.WallMs, r.Events, r.EventsPerSec)
	}
	fmt.Printf("aggregate: %.0f events/sec on %d CPUs (%s/%s, %s)\n",
		rep.TotalEventsPerSec, rep.CPUs, rep.GOOS, rep.GOARCH, rep.GoVersion)
	return nil
}

// cpuModel returns the host CPU's model string ("model name" from
// /proc/cpuinfo on Linux), falling back to GOARCH where unavailable.
func cpuModel() string {
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// benchCompare checks a fresh bench matrix against a checked-in snapshot.
// sim_ps and events are host-independent model outputs, so any drift means
// the simulation itself changed and is an error. events/sec is host-bound,
// so its delta is reported but never fails the comparison — and a host
// mismatch (different CPU model, core count, GOMAXPROCS or Go version) is
// a warning that the throughput numbers are not comparable, never an error.
func benchCompare(rep benchReport, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap benchReport
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	warn := func(field, got, want string) {
		if want != "" && got != want {
			fmt.Printf("warning: host %s differs from snapshot (%q vs %q); events/sec deltas are informational\n",
				field, got, want)
		}
	}
	warn("os/arch", rep.GOOS+"/"+rep.GOARCH, snap.GOOS+"/"+snap.GOARCH)
	warn("cpu model", rep.CPUModel, snap.CPUModel)
	if snap.CPUs != 0 && rep.CPUs != snap.CPUs {
		fmt.Printf("warning: host cpus differ from snapshot (%d vs %d); events/sec deltas are informational\n",
			rep.CPUs, snap.CPUs)
	}
	if snap.GoMaxProcs != 0 && rep.GoMaxProcs != snap.GoMaxProcs {
		fmt.Printf("warning: GOMAXPROCS differs from snapshot (%d vs %d); events/sec deltas are informational\n",
			rep.GoMaxProcs, snap.GoMaxProcs)
	}
	warn("go version", rep.GoVersion, snap.GoVersion)
	byName := make(map[string]benchRun, len(snap.Runs))
	for _, r := range snap.Runs {
		byName[r.Name] = r
	}
	bad := 0
	for _, r := range rep.Runs {
		want, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-28s not in snapshot %s\n", r.Name, path)
			bad++
			continue
		}
		if r.SimPs != want.SimPs || r.Events != want.Events {
			fmt.Printf("%-28s DRIFT sim_ps %d->%d events %d->%d\n",
				r.Name, want.SimPs, r.SimPs, want.Events, r.Events)
			bad++
			continue
		}
		fmt.Printf("%-28s ok: sim_ps=%d events=%d (%+.1f%% events/sec vs snapshot)\n",
			r.Name, r.SimPs, r.Events, 100*(r.EventsPerSec-want.EventsPerSec)/want.EventsPerSec)
	}
	if snap.TotalEventsPerSec > 0 {
		fmt.Printf("aggregate: %.0f events/sec, snapshot %.0f (%+.1f%%; informational — hosts differ)\n",
			rep.TotalEventsPerSec, snap.TotalEventsPerSec,
			100*(rep.TotalEventsPerSec-snap.TotalEventsPerSec)/snap.TotalEventsPerSec)
	}
	if bad > 0 {
		return fmt.Errorf("%d bench run(s) drifted from %s (simulation outputs are deterministic; refresh with `make bench-json` only if the change is intended)", bad, path)
	}
	return nil
}

// traceCheck validates a Chrome trace-event file: well-formed JSON, the
// fields Perfetto needs, and monotonically sane timestamps. With -stats it
// instead validates a -stats-json document: every histogram entry must be
// schema-correct (genuine bucket bounds, counts that sum, percentiles that
// recompute). It is the `make trace-smoke` backend.
func traceCheck(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	statsMode := fs.Bool("stats", false, "validate a -stats-json metrics document instead of a trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bctool tracecheck [-stats] FILE")
	}
	if *statsMode {
		blob, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		hists, err := bc.ValidateStatsJSON(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
		fmt.Printf("%s: valid, %d histogram(s)\n", fs.Arg(0), hists)
		return nil
	}
	blob, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("%s: not valid trace JSON: %w", fs.Arg(0), err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: no trace events", fs.Arg(0))
	}
	cats := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("%s: event %d has no name", fs.Arg(0), i)
		}
		switch ev.Ph {
		case "X", "i", "C", "M":
		default:
			return fmt.Errorf("%s: event %d (%s) has unknown phase %q", fs.Arg(0), i, ev.Name, ev.Ph)
		}
		if ev.Ph != "M" {
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("%s: event %d (%s) has a missing or negative ts", fs.Arg(0), i, ev.Name)
			}
			cats[ev.Cat]++
		}
		if ev.Pid == nil || ev.Tid == nil {
			return fmt.Errorf("%s: event %d (%s) lacks pid/tid", fs.Arg(0), i, ev.Name)
		}
	}
	names := make([]string, 0, len(cats))
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Printf("%s: valid, %d events\n", fs.Arg(0), len(doc.TraceEvents))
	for _, c := range names {
		fmt.Printf("  %-16s %d\n", c, cats[c])
	}
	return nil
}

func knownWorkload(name string) bool {
	for _, w := range bc.Workloads() {
		if w == name {
			return true
		}
	}
	return false
}

// replayTraceRun executes a multi-segment or probed recording and prints
// the trace-run report. A safe mode granting any adversarial probe is a
// sandbox breach and exits non-zero, as does any segment image mismatch.
func replayTraceRun(ctx context.Context, m bc.Mode, cl bc.GPUClass, rec *bc.RefTrace, p bc.Params, opts bc.RunOptions, obs obsFlags) error {
	res, err := bc.RunTraceCtx(ctx, m, cl, rec, p, opts)
	if err != nil {
		return err
	}
	var granted, denied uint64
	var verifyErr error
	for _, s := range res.Segments {
		granted += s.ProbesGranted
		denied += s.ProbesDenied
		if s.VerifyErr != nil && verifyErr == nil {
			verifyErr = fmt.Errorf("segment %s: %w", s.Name, s.VerifyErr)
		}
	}
	fmt.Printf("trace         %s (%d segments)\n", res.Workload, len(res.Segments))
	fmt.Printf("mode          %v\n", res.Mode)
	fmt.Printf("class         %v\n", res.Class)
	fmt.Printf("sim time      %.3f ms\n", float64(res.SimTime)/1e9)
	fmt.Printf("memory ops    %d\n", res.Ops)
	if m == bc.BCNoBCC || m == bc.BCBCC {
		fmt.Printf("BC checks     %d\n", res.BCChecks)
		fmt.Printf("BCC miss      %.4f\n", res.BCCMissRatio)
	}
	if granted+denied > 0 {
		fmt.Printf("probes        %d granted, %d denied\n", granted, denied)
	}
	fmt.Fprintf(os.Stderr, "host: %s wall, %d events, %.0f events/sec\n",
		fmtDur(res.Host.Wall), res.Host.Events, res.Host.EventsPerSec)
	if err := obs.emitStats(res.Stats); err != nil {
		return err
	}
	if verifyErr != nil {
		return fmt.Errorf("results INCORRECT: %w", verifyErr)
	}
	if m.Safe() && granted > 0 {
		return fmt.Errorf("sandbox BREACHED: %d adversarial probe(s) granted under %v", granted, m)
	}
	fmt.Println("results       verified correct")
	return nil
}

// recordCmd captures reference traces: workload generators (`-workload
// bfs`, `-workload all`) or synthetic traffic (`-traffic churn`), written
// as versioned, content-hashed .bctrace files.
func recordCmd(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to record, or 'all' (every workload into the -o directory)")
	shape := fs.String("traffic", "", "synthetic traffic shape to generate instead of a workload (see bctool list)")
	seed := fs.Uint64("seed", 1, "traffic generator seed")
	segments := fs.Int("segments", 0, "traffic segment count (0 = shape default)")
	wavefronts := fs.Int("wavefronts", 0, "traffic wavefronts per phase (0 = shape default)")
	ops := fs.Int("ops", 0, "traffic ops per wavefront (0 = shape default)")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	out := fs.String("o", "traces", "output file, or directory (gets <name>.bctrace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*name == "") == (*shape == "") {
		return fmt.Errorf("record: exactly one of -workload or -traffic is required")
	}
	write := func(rec *bc.RefTrace, base string) error {
		path := *out
		if strings.HasSuffix(path, "/") || !strings.HasSuffix(path, ".bctrace") {
			path = path + "/" + base + ".bctrace"
		}
		if err := bc.WriteTraceFile(path, rec); err != nil {
			return err
		}
		sum, err := rec.Hash()
		if err != nil {
			return err
		}
		blob, _ := os.Stat(path)
		fmt.Printf("recorded %-12s %3d segment(s) %8d ops %9d bytes sha256:%x -> %s\n",
			rec.Workload, len(rec.Segments), rec.Ops(), blob.Size(), sum[:6], path)
		return nil
	}
	if *shape != "" {
		rec, err := bc.GenerateTraffic(bc.TrafficConfig{
			Shape: *shape, Seed: *seed, Segments: *segments, Wavefronts: *wavefronts, Ops: *ops,
		})
		if err != nil {
			return err
		}
		return write(rec, fmt.Sprintf("%s-s%d", *shape, *seed))
	}
	names := []string{*name}
	if *name == "all" {
		names = bc.Workloads()
	}
	for _, n := range names {
		rec, err := bc.RecordTrace(n, *scale)
		if err != nil {
			return err
		}
		if err := write(rec, n); err != nil {
			return err
		}
	}
	return nil
}

// sweepReplay runs a replay sweep grid: traces (synthetic shapes x seeds,
// plus any recorded files) crossed with mode/border/class axes. Replay
// feeds recorded references back through the full border/ATS/cache path,
// so a thousand-cell grid costs no generator time, and the whole artifact
// is byte-identical at any -jobs and -shards setting.
func sweepReplay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	shapes := fs.String("traffic", "all", "comma-separated synthetic shapes, or 'all', or '' for none")
	seeds := fs.Int("seeds", 1, "seeds per shape (1..N, one trace each)")
	traces := fs.String("traces", "", "comma-separated recorded .bctrace files to include")
	modes := fs.String("modes", "all", "comma-separated modes (see bctool list), or 'all'")
	borders := fs.String("borders", "all", "comma-separated border designs for the BC modes, or 'all'")
	classes := fs.String("classes", "both", "GPU classes: high, moderate, or both")
	jobs := fs.Int("jobs", 0, "concurrent cells (0 = all cores, 1 = serial); output is byte-identical at any setting")
	shards := fs.Int("shards", 0, "run each cell on the sharded engine with this many workers (0 = direct engine); output is byte-identical at any setting")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	quiet := fs.Bool("quiet", false, "suppress the summary line on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("sweep: unexpected argument %q (recorded files go in -traces)", fs.Arg(0))
	}

	trs := map[string]*bc.RefTrace{}
	var names []string
	add := func(name string, rec *bc.RefTrace) error {
		if _, dup := trs[name]; dup {
			return fmt.Errorf("sweep: duplicate trace name %q", name)
		}
		trs[name] = rec
		names = append(names, name)
		return nil
	}
	if *shapes != "" {
		list := bc.TrafficShapes()
		if *shapes != "all" {
			list = splitList(*shapes)
		}
		for _, shape := range list {
			for s := 1; s <= *seeds; s++ {
				rec, err := bc.GenerateTraffic(bc.TrafficConfig{Shape: shape, Seed: uint64(s)})
				if err != nil {
					return err
				}
				if err := add(fmt.Sprintf("%s-s%d", shape, s), rec); err != nil {
					return err
				}
			}
		}
	}
	for _, path := range splitList(*traces) {
		rec, err := bc.ReadTraceFile(path)
		if err != nil {
			return err
		}
		if err := add(rec.Workload, rec); err != nil {
			return err
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("sweep: no traces (empty -traffic and -traces)")
	}

	ms := []bc.Mode{bc.ATSOnly, bc.FullIOMMU, bc.CAPILike, bc.BCNoBCC, bc.BCBCC}
	if *modes != "all" {
		ms = ms[:0]
		for _, s := range splitList(*modes) {
			m, err := bc.ParseMode(s)
			if err != nil {
				return err
			}
			ms = append(ms, m)
		}
	}
	bs := bc.BorderDesigns()
	if *borders != "all" {
		bs = splitList(*borders)
	}
	cls, err := bc.ParseClassList(*classes)
	if err != nil {
		return err
	}

	cells := bc.SweepGrid(trs, names, ms, bs, cls, bc.DefaultParams(), *shards)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d cells (%d traces x modes/borders/classes), jobs=%d shards=%d\n",
			len(cells), len(names), *jobs, *shards)
	}
	start := time.Now()
	rows, err := bc.RunSweepCtx(ctx, cells, *jobs)
	if err != nil {
		return err
	}
	if *csv {
		fmt.Print(bc.SweepCSV(rows))
	} else {
		fmt.Print(bc.RenderSweep(rows))
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d cells in %s\n", len(rows), fmtDur(time.Since(start)))
	}
	return nil
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
