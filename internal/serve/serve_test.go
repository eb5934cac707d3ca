package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bordercontrol/internal/harness"
)

// tinySweepRequest is a grid small enough for unit tests: generator knobs
// shrunk, one shape, two modes, one border, one class, CSV rendering.
func tinySweepRequest() Request {
	return Request{Type: "sweep", Sweep: &SweepSpec{
		Traffic: []string{"bursty"}, Seeds: 1,
		Modes: []string{"bc-nobcc", "bc-bcc"}, Borders: []string{"flat"},
		Classes: "moderate", CSV: true,
		GenSegments: 2, GenWavefronts: 2, GenOps: 64,
	}}
}

func startTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	srv := New(opts)
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		srv.Stop()
	})
	return srv, &Client{Base: hs.URL}
}

// TestServeSweepMatchesInProcess: the daemon's sweep artifact is
// byte-identical to the same grid run directly, and a second identical
// submission is served from the artifact cache — marked cached, same
// bytes, with a cache event in the stream.
func TestServeSweepMatchesInProcess(t *testing.T) {
	_, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	req := tinySweepRequest()

	cells, _, err := req.Sweep.cells(true)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := harness.RunSweepExec(context.Background(), harness.Exec{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	want := harness.SweepCSV(rows)

	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Cached {
		t.Fatalf("first run: state=%s cached=%v, want done/uncached", final.State, final.Cached)
	}
	art, err := c.Artifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if art != want {
		t.Errorf("served artifact differs from in-process sweep:\n--- want\n%s--- got\n%s", want, art)
	}

	// Second identical submission: cache hit, no re-execution, same bytes.
	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var sawCacheEvent bool
	final2, err := c.Stream(ctx, st2.ID, func(e Event) {
		if e.Type == "cache" {
			sawCacheEvent = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone || !final2.Cached {
		t.Fatalf("second run: state=%s cached=%v, want done/cached", final2.State, final2.Cached)
	}
	if !sawCacheEvent {
		t.Error("second run: no cache event in stream")
	}
	art2, err := c.Artifact(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if art2 != art {
		t.Error("cached artifact differs from the original")
	}
}

// TestValidateGeneratesNothing: validating the costliest sweep spec
// inside the caps generates none of its traces, so a submission costs the
// HTTP handler under 1 MB before the queue bound applies. Planning the
// same spec allocates tens of megabytes.
func TestValidateGeneratesNothing(t *testing.T) {
	req := Request{Type: "sweep", Sweep: &SweepSpec{
		Seeds: MaxSweepSeeds, GenSegments: MaxSweepGenSize, GenWavefronts: 1, GenOps: 7,
	}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := req.Validate()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("the costliest spec inside the caps is refused: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("Validate allocated %d bytes, want under 1 MB", alloc)
	}
}

// TestServeWorkersDontChangeCacheKey: SweepSpec.Workers is execution
// shape, not artifact identity — a request differing only in Workers hits
// the same cache entry.
func TestServeWorkersDontChangeCacheKey(t *testing.T) {
	req := tinySweepRequest()
	hashes, _, err := req.Sweep.plan()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := cacheKey("v", req, hashes)
	if err != nil {
		t.Fatal(err)
	}
	req2 := tinySweepRequest()
	req2.Sweep.Workers = 4
	k2, err := cacheKey("v", req2, hashes)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("cache key depends on Workers")
	}
	req3 := tinySweepRequest()
	req3.Sweep.GenOps = 128
	k3, err := cacheKey("v", req3, hashes)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("cache key ignores a generator knob that changes the grid")
	}
	if k4, _ := cacheKey("v2", req, hashes); k4 == k1 {
		t.Error("cache key ignores the code version")
	}
}

// TestServeValidation: malformed submissions are refused with 400 before
// occupying a queue slot.
func TestServeValidation(t *testing.T) {
	_, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	for _, req := range []Request{
		{Type: "warp"},
		{Type: "run"}, // type without its spec
		{Type: "run", Run: &RunSpec{Workload: "nope", Mode: "bc-bcc", Class: "mod"}},
		{Type: "sweep", Sweep: &SweepSpec{Modes: []string{"bogus"}}},
		{Type: "sweep", Sweep: &SweepSpec{Borders: []string{"bogus"}}},
		{Type: "run", Run: &RunSpec{Workload: "pathfinder", Mode: "bc-bcc", Class: "mod"},
			Sweep: &SweepSpec{}}, // two specs
	} {
		if _, err := c.Submit(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("Submit(%+v): err = %v, want 400", req, err)
		}
	}
}

// TestSweepSpecBounds: a sweep spec past any cap, or naming an axis value
// twice, is refused at validation with an error naming the limit, before
// a single trace is generated or a cell expanded — a 10^6-seed spec costs
// a handful of allocations, not gigabytes — and over HTTP it is a 400.
func TestSweepSpecBounds(t *testing.T) {
	huge := Request{Type: "sweep", Sweep: &SweepSpec{Seeds: 1_000_000}}
	var err error
	allocs := testing.AllocsPerRun(1, func() { err = huge.Validate() })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("limit of %d", MaxSweepSeeds)) {
		t.Fatalf("10^6 seeds: err = %v, want the seeds limit", err)
	}
	if allocs > 50 {
		t.Errorf("10^6 seeds: validation made %.0f allocations, so it generated traffic", allocs)
	}
	for _, c := range []struct {
		spec SweepSpec
		want string
	}{
		{SweepSpec{GenSegments: MaxSweepGenSize + 1}, "gen_segments"},
		{SweepSpec{GenWavefronts: MaxSweepGenSize + 1}, "gen_wavefronts"},
		{SweepSpec{GenOps: MaxSweepOps + 1}, "gen_ops"},
		{SweepSpec{Seeds: 100}, "memory operations"}, // default shapes: 4928 ops a seed
		{SweepSpec{Traffic: []string{"stream"}, GenWavefronts: MaxSweepGenSize, GenOps: MaxSweepOps / 32}, "memory operations"},
		// 18432 cells inside every other cap, each asking for a process.
		{SweepSpec{Seeds: MaxSweepSeeds, GenSegments: 1, GenWavefronts: 1, GenOps: 1, Workers: 100_000}, "workers"},
		{SweepSpec{Workers: MaxSweepWorkers + 1}, "workers"},
	} {
		err := Request{Type: "sweep", Sweep: &c.spec}.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "limit") {
			t.Errorf("%+v: err = %v, want the %s limit", c.spec, err, c.want)
		}
	}
	dup := Request{Type: "sweep", Sweep: &SweepSpec{Traffic: []string{"bursty"}, Modes: make([]string, 100_000)}}
	for i := range dup.Sweep.Modes {
		dup.Sweep.Modes[i] = "bc-bcc"
	}
	allocs = testing.AllocsPerRun(1, func() { err = dup.Validate() })
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("10^5 copies of one mode: err = %v, want a duplicate-axis error", err)
	}
	if allocs > 50 {
		t.Errorf("10^5 copies of one mode: validation made %.0f allocations, so it expanded the grid", allocs)
	}
	for _, workers := range []int{0, -1, MaxSweepWorkers} {
		req := tinySweepRequest()
		req.Sweep.Workers = workers
		if err := req.Validate(); err != nil {
			t.Errorf("tiny sweep with workers %d refused: %v", workers, err)
		}
	}

	_, c := startTestServer(t, Options{Version: "test"})
	_, err = c.Submit(context.Background(), huge)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "limit") {
		t.Errorf("submitting 10^6 seeds: err = %v, want a 400 naming the limit", err)
	}
	tooMany := tinySweepRequest()
	tooMany.Sweep.Workers = MaxSweepWorkers + 1
	_, err = c.Submit(context.Background(), tooMany)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), fmt.Sprintf("limit of %d", MaxSweepWorkers)) {
		t.Errorf("submitting %d workers: err = %v, want a 400 naming the limit", MaxSweepWorkers+1, err)
	}
}

// TestServeQueueBound: without a running executor, submissions beyond
// QueueDepth are refused with 503 — deterministically, since nothing
// drains the queue.
func TestServeQueueBound(t *testing.T) {
	srv := New(Options{QueueDepth: 2, Version: "test"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	req := tinySweepRequest()
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, req); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	_, err := c.Submit(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("third submission: err = %v, want 503 queue full", err)
	}
}

// TestServeCancelQueued: a queued job can be cancelled before any
// executor picks it up, and the executor then skips it.
func TestServeCancelQueued(t *testing.T) {
	srv := New(Options{Version: "test"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}

	// Starting the executor now must leave the cancelled job untouched.
	runCtx, cancel := context.WithCancel(context.Background())
	srv.Start(runCtx)
	defer func() { cancel(); srv.Stop() }()
	time.Sleep(50 * time.Millisecond)
	got, err = c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("after executor start: state = %s, want cancelled", got.State)
	}
	if err := c.Cancel(ctx, "j9999"); err == nil {
		t.Error("cancelling an unknown job: want error")
	}
}

// TestServeRunJob: a run job renders the `bctool run` report.
func TestServeRunJob(t *testing.T) {
	_, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	st, err := c.Submit(ctx, Request{Type: "run", Run: &RunSpec{
		Workload: "pathfinder", Mode: "bc-bcc", Class: "moderate",
	}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	art, err := c.Artifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload      pathfinder", "BC checks", "results       verified correct"} {
		if !strings.Contains(art, want) {
			t.Errorf("run artifact missing %q:\n%s", want, art)
		}
	}
}

// TestSubmitRejectsOversizedBody: a submission body past MaxRequestBytes is
// refused with 413 before it is decoded, and the daemon keeps serving: a
// normal submission right after it is accepted and completes.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	_, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	body := `{"type":"sweep","pad":"` + strings.Repeat("x", MaxRequestBytes) + `"}`
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: status %d, want 413", resp.StatusCode)
	}
	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatalf("submission after the oversized one: %v", err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job after the oversized submission ended %s (%s)", final.State, final.Error)
	}
}

// TestServeRetentionSoak submits a few thousand tiny sweep jobs: the first
// computes and the rest are cache hits. At every point the daemon keeps at
// most MaxRetainedJobs finished jobs; an evicted job answers 404; the
// per-state counts still cover every job accepted; and the live heap after
// GC stays under a bound that retaining every job would break.
func TestServeRetentionSoak(t *testing.T) {
	jobs := 3000
	if testing.Short() {
		jobs = 1000
	}
	// A retained cache-hit job holds about 1 KB (its status, request and
	// four events): keeping all 3000 grows the live heap by about 2.8 MB,
	// and the cap holds it near 0.4 MB. Only the full run is bounded; the
	// short one has too few jobs to tell the two apart.
	const heapBound = 1.5 * (1 << 20)
	srv, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var first string
	for i := 0; i < jobs; i++ {
		j, err := srv.Submit(tinySweepRequest())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = j.ID
		}
		for {
			_, state, changed := j.eventsSince(math.MaxInt)
			if terminal(state) {
				break
			}
			<-changed
		}
		srv.mu.Lock()
		retained := len(srv.finished)
		srv.mu.Unlock()
		if retained > MaxRetainedJobs {
			t.Fatalf("after job %d the daemon retains %d finished jobs, over the cap of %d", i, retained, MaxRetainedJobs)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d jobs: live heap grew by %d bytes", jobs, growth)
	if !testing.Short() && growth > heapBound {
		t.Errorf("live heap grew by %d bytes over %d jobs, want under %d", growth, jobs, int64(heapBound))
	}

	for _, err := range []error{
		func() error { _, err := c.Status(ctx, first); return err }(),
		func() error { _, err := c.Artifact(ctx, first); return err }(),
		c.Cancel(ctx, first),
	} {
		if err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("evicted job %s: err = %v, want 404", first, err)
		}
	}
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != MaxRetainedJobs {
		t.Errorf("/v1/jobs lists %d jobs, want the %d retained", len(list), MaxRetainedJobs)
	}
	if got := metric(t, c, `bc_daemon_jobs{state="done"}`); got != float64(jobs) {
		t.Errorf(`bc_daemon_jobs{state="done"} = %v, want all %d jobs`, got, jobs)
	}
	if got := metric(t, c, "bc_daemon_jobs_retained"); got != MaxRetainedJobs {
		t.Errorf("bc_daemon_jobs_retained = %v, want %d", got, MaxRetainedJobs)
	}
	if got := metric(t, c, "bc_daemon_cache_hits_total"); got != float64(jobs-1) {
		t.Errorf("bc_daemon_cache_hits_total = %v, want %d", got, jobs-1)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Jobs[StateDone] != jobs {
		t.Errorf("healthz counts %d done jobs, want %d", h.Jobs[StateDone], jobs)
	}
}
