// Command perfbench is the repository's benchmark. It drives the
// simulator through its public entry points (harness, workload, tracerec,
// traffic, hostos, sim, serve), times those calls from outside, and reads
// model counts from the stats snapshots the runs already return.
//
//	bash perfbench/run.sh --workload fig4|sweep|fleet|serve --seed N --seconds S --trace 0|1
//
// A run sets its workload up several times (setup_s is the median), then
// repeats the workload's fixed batch for about S seconds. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it spends half of S on an
// untraced pass and half on a traced pass (host-time spans around every
// layer call plus a runtime/pprof CPU profile) and reports the per-layer
// metrics. Every run checks the outputs it produced; a wrong output counts
// as a failed cell or job. Each run is a fresh process, as a user's bctool
// invocation is.
//
// Standard output is a human-readable report (host, checks, every metric
// with its unit) followed by one JSON line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"bordercontrol/internal/serve"
)

// setupReps is how many timed set-up reps a run performs; setup_s is
// their median.
const setupReps = 9

// minSetupRep is the shortest timed set-up rep; see execute.
const minSetupRep = 50 * time.Millisecond

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string
	out      string
	// jobs is the host parallelism every workload uses: nproc executing
	// threads or worker processes.
	jobs int
}

// bench is one workload.
type bench interface {
	// setup prepares the inputs of the timed batches. It runs setupReps
	// times; each call replaces what the previous one prepared.
	setup(ctx context.Context) error
	// batch runs the workload's fixed batch once. With sp non-nil it
	// records host-time spans around each layer call into sp.
	batch(ctx context.Context, sp *spans) (batch, error)
	// finish runs the output checks that need every batch and adds the
	// workload's own per-layer metrics.
	finish(ctx context.Context, st *runState) error
	// close stops everything the workload started.
	close()
}

// batch is one execution of a workload's fixed batch.
type batch struct {
	wall   time.Duration
	events uint64
	// jobs holds the latency of every job of the batch: a Figure 4 run, a
	// sweep cell, a fleet run, or a served job.
	jobs []time.Duration
	// busy is the summed host time of the batch's cells on the experiment
	// pool (fig4, sweep), for exp.busy_ratio.
	busy              time.Duration
	attempted, failed int
	// model is the batch's deterministic model output (rendered artifact
	// plus stats snapshot). Every batch of a run, traced or not, must
	// produce the same model output; empty means not comparable.
	model string
	// layers holds per-layer values of this batch that spans do not
	// give (counts, model counters).
	layers map[string]float64
	// peakRSS is the process's resident-set peak during the batch, in MB
	// (0 where the kernel cannot reset the peak).
	peakRSS float64
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "worker" {
		// The serve workload's daemon spawns this binary as its sweep worker.
		if err := serve.RunWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		// Exit only once the daemon has closed the request pipe. The
		// daemon closes it after writing the request, and fails the job
		// when the close finds the pipe already closed by its wait for a
		// worker that exited first.
		_, _ = io.Copy(io.Discard, os.Stdin)
		return
	}
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: traffic seeds (sweep), FleetParams.Seed (fleet), shape order (serve); fig4 has none")
	flag.IntVar(&seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (RESULTS.txt is read from here)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files and CPU profiles")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || newBench(config{workload: cfg.workload}) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.jobs = runtime.GOMAXPROCS(0)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	st.report(os.Stdout)
}

func workloadNames() []string { return []string{"fig4", "sweep", "fleet", "serve"} }

func newBench(cfg config) bench {
	switch cfg.workload {
	case "fig4":
		return &fig4{cfg: cfg}
	case "sweep":
		return &sweep{cfg: cfg}
	case "fleet":
		return &fleet{cfg: cfg}
	case "serve":
		return &serveBench{cfg: cfg}
	}
	return nil
}

// runState is everything one run measured.
type runState struct {
	cfg    config
	setups []time.Duration
	// base holds the untraced batches, traced the traced ones (traced
	// runs only).
	base, traced []batch
	spans        *spans
	// layers holds per-layer metrics set directly by the run or the
	// workload's finish.
	layers map[string]float64
	// checks lists the output checks in the order they ran.
	checks []check
	// extraAttempted/extraFailed count the cells or jobs of check runs
	// outside the batches (fleet's one-worker run, serve's cache probe).
	extraAttempted, extraFailed int
	notes                       []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (st *runState) check(name string, ok bool, detail string) {
	st.checks = append(st.checks, check{name: name, ok: ok, detail: detail})
}

func (st *runState) note(format string, args ...any) {
	st.notes = append(st.notes, fmt.Sprintf(format, args...))
}

func execute(ctx context.Context, cfg config) (*runState, error) {
	b := newBench(cfg)
	defer b.close()
	st := &runState{cfg: cfg, layers: map[string]float64{}}

	// Untimed warm-up reps find how many set-ups one timed rep needs to
	// last minSetupRep; a timed rep then counts as the mean of its
	// set-ups. Each rep starts from a collected heap, so garbage left by
	// the previous one does not bill it.
	rep := func(n int) (time.Duration, error) {
		runtime.GC()
		start := time.Now()
		for j := 0; j < n; j++ {
			if err := b.setup(ctx); err != nil {
				return 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
			}
		}
		return time.Since(start), nil
	}
	inner := 1
	for {
		d, err := rep(inner)
		if err != nil {
			return nil, err
		}
		if d >= minSetupRep {
			break
		}
		inner *= 2
	}
	for i := 0; i < setupReps; i++ {
		d, err := rep(inner)
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, d/time.Duration(inner))
	}

	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
	}
	var err error
	if st.base, err = measure(ctx, b, budget, nil); err != nil {
		return nil, err
	}

	if cfg.traced {
		st.spans = newSpans()
		var profile bytes.Buffer
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		st.traced, err = measure(ctx, b, budget, st.spans)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := st.attribute(profile.Bytes()); err != nil {
			return nil, err
		}
	}

	if err := b.finish(ctx, st); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	st.checkModels()
	if cfg.traced {
		if err := st.writeSpans(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// measure repeats the batch until the budget is spent, always at least
// once; it stops early rather than overrun the budget by more than half a
// batch.
func measure(ctx context.Context, b bench, budget time.Duration, sp *spans) ([]batch, error) {
	var out []batch
	start := time.Now()
	for {
		// Every batch starts from a collected heap returned to the OS, as a
		// fresh process would, so its resident-set peak is its own.
		debug.FreeOSMemory()
		reset := resetPeakRSS()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bt, err := b.batch(ctx, sp)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		if reset {
			bt.peakRSS = peakRSSMB()
		}
		if bt.layers == nil {
			bt.layers = map[string]float64{}
		}
		bt.layers["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		bt.layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		bt.layers["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
		out = append(out, bt)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if time.Since(start)+bt.wall/2 >= budget {
			return out, nil
		}
	}
}

// checkModels requires every batch of the run — traced or not — to produce
// the same model output: tracing is observation only, and the simulator is
// deterministic.
func (st *runState) checkModels() {
	all := append(append([]batch(nil), st.base...), st.traced...)
	if len(all) == 0 || all[0].model == "" {
		return
	}
	same := 0
	for i := range all {
		if all[i].model == all[0].model {
			same++
		} else {
			st.extraFailed += all[i].attempted - all[i].failed
		}
	}
	st.check("model output identical across batches (traced and untraced)", same == len(all),
		fmt.Sprintf("%d/%d batches agree", same, len(all)))
}

// attribute buckets the traced pass's CPU profile by leaf package and
// keeps the raw profile for go tool pprof.
func (st *runState) attribute(profile []byte) error {
	path := filepath.Join(st.cfg.out, "cpu-"+st.cfg.workload+".pb.gz")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		return fmt.Errorf("writing CPU profile: %w", err)
	}
	shares, samples, err := cpuShares(profile)
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	for _, bk := range cpuBuckets {
		st.layers[bk+".cpu_share"] = shares[bk]
	}
	st.note("cpu profile: %d samples, written to %s", samples, path)
	return nil
}

func (st *runState) writeSpans() error {
	path := filepath.Join(st.cfg.out, "spans-"+st.cfg.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	n, err := st.spans.writeChrome(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	st.layers["trace.spans"] = float64(n)
	st.note("spans: %d in %s (Chrome trace-event form; bctool tracecheck validates it)", n, path)
	return nil
}

// counts returns the attempted and failed totals of the whole run.
func (st *runState) counts() (attempted, failed int) {
	attempted, failed = st.extraAttempted, st.extraFailed
	for _, bs := range [][]batch{st.base, st.traced} {
		for _, b := range bs {
			attempted += b.attempted
			failed += b.failed
		}
	}
	return attempted, failed
}

// endToEnd computes the end-to-end metrics from the untraced batches.
func (st *runState) endToEnd() (map[string]float64, string) {
	var walls, rates, lat, rss []float64
	for _, b := range st.base {
		w := b.wall.Seconds()
		walls = append(walls, w)
		if b.peakRSS > 0 {
			rss = append(rss, b.peakRSS)
		}
		rates = append(rates, float64(b.events)/w)
		for _, j := range b.jobs {
			lat = append(lat, j.Seconds())
		}
	}
	pct, q := tailPercentile(len(st.base[0].jobs))
	var setups []float64
	for _, s := range st.setups {
		setups = append(setups, s.Seconds())
	}
	attempted, failed := st.counts()
	if len(rss) == 0 {
		rss = []float64{peakRSSMB()}
	}
	m := map[string]float64{
		"wall_s":             median(walls),
		"sim_events_per_s":   median(rates),
		"setup_s":            median(setups),
		"peak_rss_mb":        median(rss),
		"job_latency_p50_s":  quantile(lat, 0.5),
		"job_latency_tail_s": quantile(lat, q),
		"fail_ratio":         float64(failed) / float64(max(attempted, 1)),
	}
	return m, fmt.Sprintf("job latency over all %d jobs of the untraced batches: p50 and %s (the tail percentile for %d jobs per batch)",
		len(lat), pct, len(st.base[0].jobs))
}

// perLayer computes the per-layer metrics: span totals per traced batch,
// batch layer values (median over traced batches), and the run's direct
// layer values. Metrics that do not apply to the workload read 0.
func (st *runState) perLayer() map[string]float64 {
	m := map[string]float64{}
	n := float64(len(st.traced))
	for name, tot := range st.spans.totals() {
		if metric, ok := spanMetric[name]; ok {
			m[metric] += tot.total.Seconds() / n
		}
	}
	keys := map[string]bool{}
	for _, b := range st.traced {
		for k := range b.layers {
			keys[k] = true
		}
	}
	for k := range keys {
		var vs []float64
		for _, b := range st.traced {
			vs = append(vs, b.layers[k])
		}
		m[k] = median(vs)
	}
	for k, v := range st.layers {
		m[k] = v
	}
	if ops := m["workload.ops"]; ops > 0 {
		m["workload.ns_per_op"] = m["workload.build_s"] * 1e9 / ops
	}
	if ev := m["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = m["sim.run_s"] * 1e9 / ev
	}
	if w := m["sim.windows"]; w > 0 {
		m["sim.ns_per_window"] = m["sim.fleet_run_s"] * 1e9 / w
	}
	var baseWalls, tracedWalls []float64
	for _, b := range st.base {
		baseWalls = append(baseWalls, b.wall.Seconds())
	}
	for _, b := range st.traced {
		tracedWalls = append(tracedWalls, b.wall.Seconds())
	}
	m["trace.overhead_ratio"] = median(tracedWalls)/median(baseWalls) - 1
	// Σ cell wall ÷ (batch wall × jobs), over the untraced batches.
	var busy, avail float64
	for _, b := range st.base {
		busy += b.busy.Seconds()
		avail += b.wall.Seconds() * float64(st.cfg.jobs)
	}
	m["exp.busy_ratio"] = busy / avail
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (st *runState) report(w io.Writer) {
	cfg := st.cfg
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.traced)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "model: simulated caches, TLBs and the BCC start empty in every cell, as in the paper's runs\n")
	for _, pass := range []struct {
		name    string
		batches []batch
	}{{"untraced", st.base}, {"traced", st.traced}} {
		if len(pass.batches) == 0 {
			continue
		}
		var walls []float64
		for _, b := range pass.batches {
			walls = append(walls, b.wall.Seconds())
		}
		fmt.Fprintf(w, "%s batches: %d, wall min %.4g s, median %.4g s, max %.4g s\n",
			pass.name, len(walls), quantile(walls, 0), median(walls), quantile(walls, 1))
	}
	for _, n := range st.notes {
		fmt.Fprintln(w, n)
	}
	correct := true
	for _, c := range st.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "check %-58s %s  %s\n", c.name, status, c.detail)
	}
	attempted, failed := st.counts()
	correct = correct && failed == 0 && attempted > 0

	e2e, tailNote := st.endToEnd()
	fmt.Fprintln(w, "\nend-to-end (untraced batches):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-22s %16.6g %-9s\n", d.Name, e2e[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  %-22s %16.6g %-9s (%d failed of %d attempted)\n", "fail_ratio", e2e["fail_ratio"], "ratio", failed, attempted)
	fmt.Fprintf(w, "  %s\n", tailNote)

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if !cfg.traced {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{Value: e2e[d.Name], Unit: d.Unit}
		}
	} else {
		layers := st.perLayer()
		fmt.Fprintln(w, "\nper-layer (traced run; time metrics per batch):")
		fmt.Fprintf(w, "  %-24s %14s %-8s %-40s %s\n", "metric", "value", "unit", "should move", "on (idle elsewhere)")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-24s %14.6g %-8s %-40s %s\n", d.Name, layers[d.Name], d.Unit, d.Moves, d.On)
			res.Metrics[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit}
		}
		st.spans.writeSelfTimes(w, len(st.traced))
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", blob)
}

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process (Linux clear_refs); it reports whether the reset took effect.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// peakRSSMB is the process's resident-set high-water mark since the last
// reset (VmHWM), or since start (getrusage maxrss) where /proc is missing.
func peakRSSMB() float64 {
	if blob, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
