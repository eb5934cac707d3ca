package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bordercontrol/internal/harness"
)

// procLog is a slog handler that records the worker processes a daemon
// reports through its "worker spawned" and "worker exited" logs.
type procLog struct {
	mu      sync.Mutex
	spawned []int // pids, in start order
	exited  map[int]bool
}

func (h *procLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *procLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *procLog) WithGroup(string) slog.Handler            { return h }

func (h *procLog) Handle(_ context.Context, r slog.Record) error {
	pid := 0
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "pid" {
			pid = int(a.Value.Int64())
		}
		return true
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.Message {
	case "worker spawned":
		h.spawned = append(h.spawned, pid)
	case "worker exited":
		h.exited[pid] = true
	}
	return nil
}

func (h *procLog) pids() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.spawned...)
}

func (h *procLog) hasExited(pid int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.exited[pid]
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startWorkerDaemon starts a daemon whose sweep workers are this test
// binary in worker mode, with its worker logs recorded.
func startWorkerDaemon(t *testing.T, opts Options) (*Server, *Client, *procLog) {
	t.Helper()
	log := &procLog{exited: map[int]bool{}}
	opts.Version = "test"
	opts.WorkerArgv = []string{os.Args[0]}
	opts.WorkerEnv = workerEnv("1")
	opts.Logger = slog.New(log)
	srv, c := startTestServer(t, opts)
	return srv, c, log
}

// processGone reports whether pid names no process, not even an unreaped
// one.
func processGone(pid int) bool {
	return errors.Is(syscall.Kill(pid, 0), syscall.ESRCH)
}

func metric(t *testing.T, c *Client, key string) float64 {
	t.Helper()
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m[key]
	if !ok {
		t.Fatalf("no series %s on /v1/metrics", key)
	}
	return v
}

// runJob submits req and follows it to a terminal state.
func runJob(t *testing.T, c *Client, req Request) JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return final
}

// inProcessCSV is the artifact of req's sweep run in-process.
func inProcessCSV(t *testing.T, req Request) string {
	t.Helper()
	cells, _, err := req.Sweep.cells(Env{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := harness.RunSweepExec(context.Background(), harness.Exec{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	return harness.SweepCSV(rows)
}

// slowSweepRequest is a grid of 400 tiny cells: with Jobs 1, each of two
// workers spends long enough on its 200 cells for a test to act while the
// job runs, and streams rows back in several flushes.
func slowSweepRequest() Request {
	return Request{Type: "sweep", Sweep: &SweepSpec{
		Seeds: 10, Borders: []string{"flat"}, CSV: true,
		GenSegments: 2, GenWavefronts: 2, GenOps: 64,
	}}
}

// TestServeOverWorkerProcesses: a daemon fanning sweeps out to real worker
// processes serves two different jobs byte-identically to the in-process
// sweep, starts its two workers once for both, and reaps every one of them
// in Stop, leaving no goroutine behind.
func TestServeOverWorkerProcesses(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	log := &procLog{exited: map[int]bool{}}
	srv := New(Options{
		Workers: 2, Version: "test", Logger: slog.New(log),
		WorkerArgv: []string{os.Args[0]}, WorkerEnv: workerEnv("1"),
	})
	srv.Start(context.Background())
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	c := &Client{Base: hs.URL, HTTP: &http.Client{Transport: tr}}

	second := tinySweepRequest()
	second.Sweep.Traffic = []string{"bursty", "stream"} // 4 cells
	for _, req := range []Request{tinySweepRequest(), second} {
		final := runJob(t, c, req)
		if final.State != StateDone || final.Cached {
			t.Fatalf("job %s: state=%s cached=%v (%s), want done/uncached", final.ID, final.State, final.Cached, final.Error)
		}
		art, err := c.Artifact(context.Background(), final.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := inProcessCSV(t, req); art != want {
			t.Errorf("job %s: served artifact differs from in-process sweep:\n--- want\n%s--- got\n%s", final.ID, want, art)
		}
	}
	if got := metric(t, c, "bc_daemon_workers_spawned_total"); got != 2 {
		t.Errorf("bc_daemon_workers_spawned_total = %v after two jobs, want 2", got)
	}
	if got := metric(t, c, "bc_daemon_workers_active"); got != 2 {
		t.Errorf("bc_daemon_workers_active = %v between jobs, want the 2 warm workers", got)
	}

	tr.CloseIdleConnections()
	hs.Close()
	srv.Stop()
	pids := log.pids()
	if len(pids) != 2 {
		t.Fatalf("spawn logs name %d workers, want 2", len(pids))
	}
	for _, pid := range pids {
		if !processGone(pid) {
			t.Errorf("worker pid %d still exists after Stop", pid)
		}
	}
	if got := srv.pool.active.Load(); got != 0 {
		t.Errorf("%d workers active after Stop", got)
	}
	eventually(t, "the goroutines started by the test have exited", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
}

// TestServeWorkerKilledMidSweep kills a worker while its job runs. The job
// fails with an error naming that worker and the first of its cells it did
// not return; the next job succeeds on one freshly started worker and the
// surviving warm one.
func TestServeWorkerKilledMidSweep(t *testing.T) {
	srv, c, log := startWorkerDaemon(t, Options{Workers: 2, Jobs: 1})
	ctx := context.Background()
	req := slowSweepRequest()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// The first row back means both workers have their requests and are
	// part-way through 200 cells each; worker 1 (slot 0) dies then.
	killed := false
	ok := map[string]bool{}
	final, err := c.Stream(ctx, st.ID, func(e Event) {
		if label, found := strings.CutPrefix(e.Msg, "cell "); found && e.Type == "progress" {
			ok[strings.TrimSuffix(label, ": ok")] = true
			if !killed {
				killed = true
				if err := syscall.Kill(log.pids()[0], syscall.SIGKILL); err != nil {
					t.Errorf("killing worker 1: %v", err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("job with a killed worker ended %s (%s), want failed", final.State, final.Error)
	}
	cells, _, err := req.Sweep.cells(Env{})
	if err != nil {
		t.Fatal(err)
	}
	first := ""
	for i := 0; i < len(cells); i += 2 { // slot 0's cells
		if !ok[cells[i].Label] {
			first = cells[i].Label
			break
		}
	}
	want := fmt.Sprintf("worker 1 (pid %d) failed before returning cell %q", log.pids()[0], first)
	if !strings.Contains(final.Error, want) {
		t.Errorf("error = %q, want it to contain %q", final.Error, want)
	}
	if got := srv.pool.active.Load(); got != 1 {
		t.Errorf("%d workers active after the failed job, want the surviving one", got)
	}

	next := tinySweepRequest()
	if final := runJob(t, c, next); final.State != StateDone {
		t.Fatalf("job after the failure ended %s (%s), want done", final.State, final.Error)
	}
	if got := metric(t, c, "bc_daemon_workers_spawned_total"); got != 3 {
		t.Errorf("bc_daemon_workers_spawned_total = %v, want 3: one fresh worker after the death", got)
	}
}

// TestServeIdleWorkerDeathNotReused: a warm worker killed between jobs is
// dropped, never handed to the next job, which succeeds on a fresh one.
func TestServeIdleWorkerDeathNotReused(t *testing.T) {
	_, c, log := startWorkerDaemon(t, Options{Workers: 2})
	if final := runJob(t, c, tinySweepRequest()); final.State != StateDone {
		t.Fatalf("first job ended %s (%s)", final.State, final.Error)
	}
	pid := log.pids()[0]
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	eventually(t, fmt.Sprintf("the daemon reaps idle worker %d", pid), func() bool { return log.hasExited(pid) })
	next := tinySweepRequest()
	next.Sweep.GenOps = 128 // a distinct artifact, so the job runs
	final := runJob(t, c, next)
	if final.State != StateDone {
		t.Fatalf("job after an idle worker died ended %s (%s), want done", final.State, final.Error)
	}
	if got := metric(t, c, "bc_daemon_workers_spawned_total"); got != 3 {
		t.Errorf("bc_daemon_workers_spawned_total = %v, want 3", got)
	}
	if got := metric(t, c, "bc_daemon_workers_active"); got != 2 {
		t.Errorf("bc_daemon_workers_active = %v, want 2", got)
	}
}

// TestServeCancelFannedOutJob: DELETE on a running fanned-out job ends it
// cancelled, and its worker processes are killed and reaped by then.
func TestServeCancelFannedOutJob(t *testing.T) {
	_, c, log := startWorkerDaemon(t, Options{Workers: 2, Jobs: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, slowSweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	cancelled := false
	final, err := c.Stream(ctx, st.ID, func(e Event) {
		if e.Type == "progress" && strings.HasPrefix(e.Msg, "cell ") && !cancelled {
			cancelled = true
			if err := c.Cancel(ctx, st.ID); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled job ended %s (%s), want cancelled", final.State, final.Error)
	}
	pids := log.pids()
	if len(pids) != 2 {
		t.Fatalf("spawn logs name %d workers, want 2", len(pids))
	}
	for _, pid := range pids {
		if !processGone(pid) {
			t.Errorf("worker pid %d of the cancelled job still exists", pid)
		}
	}
	if got := metric(t, c, "bc_daemon_workers_active"); got != 0 {
		t.Errorf("bc_daemon_workers_active = %v after the cancel, want 0", got)
	}
}
