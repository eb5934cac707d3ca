package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bordercontrol/internal/harness"
	"bordercontrol/internal/serve"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
)

const (
	// serveWorkers is the daemon's worker-subprocess fan-out (nproc on the
	// reference host); each worker runs its cells with Jobs=1.
	serveWorkers = 2
	// serveJobsPerBatch is the fixed job sequence of one batch.
	serveJobsPerBatch = 200
)

// serveBench runs an in-process serve.Server on loopback whose sweep
// workers are this binary (`perfbench worker` calls serve.RunWorker). One
// closed-loop client on one connection submits distinct small sweep specs,
// so every job misses the cache; the cells are tiny, so the daemon's own
// overhead — queue, worker spawn, trace shipping, canonical merge — sets
// the job latency.
type serveBench struct {
	cfg    config
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	cli    *serve.Client
	// next numbers the jobs of the run; every job's spec is distinct.
	next int
	done []servedJob
	// phases collects each traced job's phase durations, by metric.
	phases map[string][]float64
}

type servedJob struct {
	spec     serve.SweepSpec
	artifact string
}

// setup starts the daemon on a fresh loopback port and waits until it
// answers; a repeated set-up first stops the previous daemon.
func (s *serveBench) setup(ctx context.Context) error {
	s.close()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// A worker executes one cell at a time (Jobs=1), so it gets one Go
	// thread: two workers then use the host's two CPUs.
	s.srv = serve.New(serve.Options{Workers: serveWorkers, Jobs: 1,
		WorkerArgv: []string{exe, "worker"}, WorkerEnv: []string{"GOMAXPROCS=1"}})
	s.srv.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: 1}
	s.cli = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	return s.cli.WaitReady(ctx, 10*time.Second)
}

func (s *serveBench) close() {
	if s.hs == nil {
		return
	}
	// The client is closed-loop, so no request is in flight here: close
	// the connections at once rather than let Shutdown poll for idleness,
	// whose millisecond ticks would dominate a repeated set-up.
	s.tr.CloseIdleConnections()
	s.hs.Close()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	s.srv.Stop()
	s.hs = nil
}

// spec is job i of the run. The shape rotates per job, starting at the
// one --seed picks; the shards knob — an execution-only axis whose artifact
// is byte-identical at any value — makes every spec distinct while the work
// stays the same. SweepSpec has no base seed, so the daemon always
// generates traffic seed 1: the traffic content does not depend on --seed.
func (s *serveBench) spec(i int) serve.SweepSpec {
	shapes := traffic.Shapes()
	return serve.SweepSpec{
		Traffic:       []string{shapes[(i+int(uint64(s.cfg.seed)%uint64(len(shapes))))%len(shapes)]},
		Seeds:         1,
		Modes:         []string{"ats-only", "full-iommu", "bc-nobcc", "bc-bcc"},
		Borders:       []string{"flat"},
		Classes:       "moderate",
		Shards:        1 + i/len(shapes),
		CSV:           true,
		GenSegments:   2,
		GenWavefronts: 4,
		GenOps:        64,
	}
}

func (s *serveBench) batch(ctx context.Context, sp *spans) (batch, error) {
	var b batch
	start := time.Now()
	for j := 0; j < serveJobsPerBatch; j++ {
		i := s.next
		s.next++
		spec := s.spec(i)
		var t *track
		if sp != nil {
			t = sp.track(fmt.Sprintf("serve/job%04d", i))
		}
		b.attempted++
		lat, art, err := s.submit(ctx, spec, t)
		if err != nil {
			if ctx.Err() != nil {
				return b, ctx.Err()
			}
			fmt.Fprintf(os.Stderr, "serve job %d: %v\n", i, err)
			b.failed++
			continue
		}
		events, err := csvEvents(art)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve job %d: %v\n", i, err)
			b.failed++
			continue
		}
		b.jobs = append(b.jobs, lat)
		b.events += events
		s.done = append(s.done, servedJob{spec: spec, artifact: art})
	}
	b.wall = time.Since(start)
	return b, nil
}

// submit runs one job — submit, follow its event stream, fetch the
// artifact — and returns its submit → artifact latency. With t non-nil it
// records the job's phases from the client-side receipt times of its
// events.
func (s *serveBench) submit(ctx context.Context, spec serve.SweepSpec, t *track) (time.Duration, string, error) {
	t0 := time.Now()
	st, err := s.cli.Submit(ctx, serve.Request{Type: "sweep", Sweep: &spec})
	if err != nil {
		return 0, "", err
	}
	tSubmitted := time.Now()
	var tRunning, tFirstCell, tLastCell, tDone time.Time
	cached := false
	final, err := s.cli.Stream(ctx, st.ID, func(e serve.Event) {
		now := time.Now()
		switch {
		case e.Type == "state" && e.Msg == serve.StateRunning:
			tRunning = now
		case e.Type == "progress" && strings.HasPrefix(e.Msg, "cell "):
			if tFirstCell.IsZero() {
				tFirstCell = now
			}
			tLastCell = now
		case e.Type == "cache":
			cached = true
		case e.Type == "state" && e.Msg != serve.StateQueued:
			tDone = now
		}
	})
	if err != nil {
		return 0, "", err
	}
	if final.State != serve.StateDone {
		return 0, "", fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	if cached {
		return 0, "", fmt.Errorf("job %s hit the cache; every spec must be distinct", st.ID)
	}
	tFetch := time.Now()
	art, err := s.cli.Artifact(ctx, st.ID)
	if err != nil {
		return 0, "", err
	}
	tEnd := time.Now()
	if t != nil && !tRunning.IsZero() && !tFirstCell.IsZero() && !tDone.IsZero() {
		t.push(t.at("serve.job", t0, tEnd))
		phases := []struct {
			name     string
			from, to time.Time
		}{
			{"serve.submit", t0, tSubmitted},
			{"serve.queue", tSubmitted, tRunning},
			{"serve.first_cell", tRunning, tFirstCell},
			{"serve.cells", tFirstCell, tLastCell},
			{"serve.merge", tLastCell, tDone},
			{"serve.fetch", tFetch, tEnd},
		}
		if s.phases == nil {
			s.phases = map[string][]float64{}
		}
		for _, ph := range phases {
			t.at(ph.name, ph.from, ph.to)
			s.phases[ph.name+"_s"] = append(s.phases[ph.name+"_s"], ph.to.Sub(ph.from).Seconds())
		}
		t.pop()
	}
	return tEnd.Sub(t0), art, nil
}

// csvEvents sums the events column of a sweep CSV artifact.
func csvEvents(art string) (uint64, error) {
	lines := strings.Split(strings.TrimSpace(art), "\n")
	var total uint64
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) < 3 {
			return 0, fmt.Errorf("malformed sweep CSV row %q", line)
		}
		n, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("sweep CSV row %q: %w", line, err)
		}
		total += n
	}
	return total, nil
}

// finish checks every served artifact against an in-process
// harness.RunSweepExec over the same cells, and reads the daemon's worker
// and cache counters from /v1/metrics.
func (s *serveBench) finish(ctx context.Context, st *runState) error {
	mismatched := 0
	for _, j := range s.done {
		cells, err := sweepCells(j.spec)
		if err != nil {
			return err
		}
		rows, err := harness.RunSweepExec(ctx, harness.Exec{Jobs: s.cfg.jobs}, cells)
		if err != nil || harness.SweepCSV(rows) != j.artifact {
			mismatched++
		}
	}
	st.extraFailed += mismatched
	st.check("serve artifacts byte-identical to in-process RunSweepExec", mismatched == 0,
		fmt.Sprintf("%d/%d jobs match", len(s.done)-mismatched, len(s.done)))

	text, err := s.cli.MetricsText(ctx)
	if err != nil {
		return err
	}
	spawned := promValue(text, "bc_daemon_workers_spawned_total")
	hits := promValue(text, "bc_daemon_cache_hits_total")
	st.check("serve jobs all missed the artifact cache", hits == 0, fmt.Sprintf("%g cache hits", hits))
	st.note("serve: %d jobs, %g worker processes spawned, closed loop with 1 client connection", s.next, spawned)
	if st.cfg.traced {
		st.layers["serve.workers_spawned"] = spawned / float64(max(s.next, 1))
		for name, vs := range s.phases {
			st.layers[name] = median(vs)
		}
	}
	return nil
}

// sweepCells expands a sweep spec into its grid exactly as the daemon
// plans it: one generated trace per shape and seed, named
// "<shape>-s<seed>", crossed with the mode/border/class axes over
// DefaultParams.
func sweepCells(spec serve.SweepSpec) ([]harness.SweepCell, error) {
	traces := map[string]*tracerec.Trace{}
	var names []string
	for _, shape := range spec.Traffic {
		for seed := 1; seed <= spec.Seeds; seed++ {
			tr, err := traffic.Generate(traffic.Config{
				Shape: shape, Seed: uint64(seed),
				Segments: spec.GenSegments, Wavefronts: spec.GenWavefronts, Ops: spec.GenOps,
			})
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s-s%d", shape, seed)
			traces[name] = tr
			names = append(names, name)
		}
	}
	var modes []harness.Mode
	for _, ms := range spec.Modes {
		m, err := harness.ParseModeSlug(ms)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	class, err := harness.ParseClassSlug(spec.Classes)
	if err != nil {
		return nil, err
	}
	return harness.RecordedCells(traces, names, modes, spec.Borders, []harness.GPUClass{class}, harness.DefaultParams(), spec.Shards), nil
}

// promValue reads an unlabelled sample from Prometheus text; 0 when absent.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
