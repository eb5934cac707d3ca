package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeObservationPurity: a sweep artifact produced while the daemon
// is being hammered with concurrent /v1/metrics scrapes and /v1/watch
// tails is byte-identical to one produced unobserved, and the firehose
// delivers every job's events in seq order.
func TestServeObservationPurity(t *testing.T) {
	ctx := context.Background()
	req := tinySweepRequest()

	// Baseline: an unobserved daemon.
	_, quietC := startTestServer(t, Options{Version: "test"})
	st, err := quietC.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quietC.Stream(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	want, err := quietC.Artifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Observed: scrapers and watchers run through the whole job. Each
	// watcher tails the firehose until it has read the job's final state
	// event; the scrapers run until the artifact is fetched.
	_, c := startTestServer(t, Options{Version: "test"})
	obsCtx, stopObs := context.WithCancel(ctx)
	defer stopObs()
	var wg sync.WaitGroup
	var watched []WatchEvent
	var watchedMu sync.Mutex
	// finals[i] receives the job of each terminal state event watcher i
	// reads (this daemon runs one job, so one); stopWatch[i] ends that
	// watcher's tail.
	var finals [2]chan string
	var stopWatch [2]context.CancelFunc
	for i := range finals {
		finals[i] = make(chan string, 1)
		var wctx context.Context
		wctx, stopWatch[i] = context.WithCancel(obsCtx)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Watch(wctx, 0, func(we WatchEvent) {
				watchedMu.Lock()
				watched = append(watched, we)
				watchedMu.Unlock()
				if we.Type == "state" && terminal(we.Msg) {
					select {
					case finals[i] <- we.Job:
					case <-wctx.Done():
					}
				}
			})
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for obsCtx.Err() == nil {
				if _, err := c.MetricsText(obsCtx); err != nil && obsCtx.Err() == nil {
					t.Errorf("metrics scrape failed mid-job: %v", err)
					return
				}
			}
		}()
	}

	st, err = c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("observed job: state = %s (%s), want done", final.State, final.Error)
	}
	got, err := c.Artifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A watcher's tail closes only once it has read the job's final state
	// event, so every watcher holds the job's whole event sequence.
	deadline := time.After(10 * time.Second)
	for i := range finals {
		for job := ""; job != st.ID; {
			select {
			case job = <-finals[i]:
			case <-deadline:
				t.Fatalf("watcher %d never read job %s's final state event", i, st.ID)
			}
		}
		stopWatch[i]()
	}
	stopObs()
	wg.Wait()
	if got != want {
		t.Errorf("observed artifact differs from unobserved baseline:\n--- want\n%s--- got\n%s", want, got)
	}

	// Per-job ordering on the multiplexed stream: each watcher saw this
	// job's events with strictly increasing seq (contiguous from 1, since
	// nothing here can overflow the default ring).
	watchedMu.Lock()
	defer watchedMu.Unlock()
	perJob := map[string][]int{}
	for _, we := range watched {
		if we.Type == "drop" {
			t.Fatalf("drop marker on an idle-sized ring: %+v", we)
		}
		perJob[we.Job] = append(perJob[we.Job], we.Seq)
	}
	if len(perJob[st.ID]) == 0 {
		t.Fatalf("watchers saw no events for job %s", st.ID)
	}
	// Two watchers ⇒ the job's seq sequence is two interleaved full copies;
	// split per watcher is lost, but each copy is in order on the global
	// cursor, so checking that seqs never decrease by more than a restart
	// is weaker than we want. Instead: count copies and verify each seq
	// appears exactly twice and max(seq) == count of distinct seqs.
	counts := map[int]int{}
	maxSeq := 0
	for _, s := range perJob[st.ID] {
		counts[s]++
		if s > maxSeq {
			maxSeq = s
		}
	}
	for s := 1; s <= maxSeq; s++ {
		if counts[s] != 2 {
			t.Errorf("seq %d of job %s delivered %d times across 2 watchers, want 2", s, st.ID, counts[s])
		}
	}
}

// TestServeWatchPerJobSeqOrder: a single watcher sees any one job's
// events in exactly seq order 1..N even with two jobs interleaving on the
// global stream.
func TestServeWatchPerJobSeqOrder(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Options{Version: "test"})

	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	var mu sync.Mutex
	perJob := map[string][]int{}
	var cursorOK atomic.Bool
	cursorOK.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastCursor uint64
		_ = c.Watch(watchCtx, 0, func(we WatchEvent) {
			if we.Cursor <= lastCursor {
				cursorOK.Store(false)
			}
			lastCursor = we.Cursor
			mu.Lock()
			perJob[we.Job] = append(perJob[we.Job], we.Seq)
			mu.Unlock()
		})
	}()

	req := tinySweepRequest()
	st1, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req2 := tinySweepRequest()
	req2.Sweep.GenOps = 128 // distinct artifact: no cache hit, real run
	st2, err := c.Submit(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, st1.ID, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, st2.ID, nil); err != nil {
		t.Fatal(err)
	}
	// Let the watcher drain the tail of the stream before stopping it.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n1, n2 := len(perJob[st1.ID]), len(perJob[st2.ID])
		mu.Unlock()
		if n1 >= 6 && n2 >= 6 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("watcher never saw both jobs' streams (saw %d and %d events)", n1, n2)
		case <-time.After(10 * time.Millisecond):
		}
	}
	stopWatch()
	<-done

	if !cursorOK.Load() {
		t.Error("global cursor was not strictly increasing")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []string{st1.ID, st2.ID} {
		seqs := perJob[id]
		for i, s := range seqs {
			if s != i+1 {
				t.Errorf("job %s: delivered seqs %v, want 1..%d in order", id, seqs, len(seqs))
				break
			}
		}
	}
}

// TestServeEventsAfter: ?after=N replays only events with Seq > N.
func TestServeEventsAfter(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Options{Version: "test"})
	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Events < 3 {
		t.Fatalf("job finished with %d events, want >= 3", final.Events)
	}

	resp, err := http.Get(c.Base + "/v1/jobs/" + st.ID + "/events?after=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var seqs []int
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, e.Seq)
	}
	if len(seqs) != final.Events-2 {
		t.Fatalf("got %d events after=2, want %d", len(seqs), final.Events-2)
	}
	for i, s := range seqs {
		if s != i+3 {
			t.Fatalf("seqs = %v, want 3..%d", seqs, final.Events)
		}
	}

	if resp, err := http.Get(c.Base + "/v1/jobs/" + st.ID + "/events?after=bogus"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("after=bogus: status %d, want 400", resp.StatusCode)
		}
	}
}

// truncOnce aborts the first matching streaming response after its first
// line, simulating a connection drop mid-stream.
type truncOnce struct {
	next      http.Handler
	path      string
	triggered atomic.Bool
}

type truncWriter struct {
	http.ResponseWriter
}

func (w *truncWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	if bytes.IndexByte(b, '\n') >= 0 {
		if f, ok := w.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (w *truncWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *truncOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, h.path) && r.URL.Query().Get("after") == "" && h.triggered.CompareAndSwap(false, true) {
		h.next.ServeHTTP(&truncWriter{ResponseWriter: w}, r)
		return
	}
	h.next.ServeHTTP(w, r)
}

// TestServeStreamReconnect: Client.Stream survives a dropped connection by
// resuming with ?after=<last seq>; every event is delivered exactly once
// and the final status is the job's terminal state.
func TestServeStreamReconnect(t *testing.T) {
	ctx := context.Background()
	srv := New(Options{Version: "test"})
	runCtx, cancel := context.WithCancel(ctx)
	srv.Start(runCtx)
	tr := &truncOnce{next: srv.Handler(), path: "/events"}
	hs := httptest.NewServer(tr)
	t.Cleanup(func() { hs.Close(); cancel(); srv.Stop() })
	c := &Client{Base: hs.URL}

	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	var seqs []int
	final, err := c.Stream(ctx, st.ID, func(e Event) { seqs = append(seqs, e.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	if !tr.triggered.Load() {
		t.Fatal("the truncating middleware never fired; the test exercised nothing")
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("delivered seqs %v, want contiguous 1..%d exactly once", seqs, len(seqs))
		}
	}
	if len(seqs) != final.Events {
		t.Fatalf("delivered %d events, job has %d", len(seqs), final.Events)
	}
}

// TestServeMetricsExposition: the page parses, carries the daemon series
// and — after a completed sweep — the bridged job series.
func TestServeMetricsExposition(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Options{Version: "test"})
	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	for _, fam := range []string{
		"bc_daemon_info",
		"bc_daemon_uptime_seconds",
		"bc_daemon_queue_depth",
		"bc_daemon_queue_capacity",
		"bc_daemon_jobs",
		"bc_daemon_cache_entries",
		"bc_daemon_cache_hits_total",
		"bc_daemon_cache_misses_total",
		"bc_daemon_cache_hit_ratio",
		"bc_daemon_workers_spawned_total",
		"bc_daemon_workers_active",
		"bc_daemon_watch_subscribers",
		"bc_daemon_watch_events_total",
		"bc_daemon_watch_dropped_total",
		"bc_job_sweep_cells",
		"bc_job_sweep_events",
		"bc_job_sweep_ops",
		"bc_job_sweep_bc_checks",
	} {
		if !m.Has(fam) {
			t.Errorf("exposition lacks family %q:\n%s", fam, text)
		}
	}
	if m[`bc_daemon_jobs{state="done"}`] != 1 {
		t.Errorf(`bc_daemon_jobs{state="done"} = %v, want 1`, m[`bc_daemon_jobs{state="done"}`])
	}
	if m["bc_job_sweep_cells"] != 2 {
		t.Errorf("bc_job_sweep_cells = %v, want 2 (the tiny grid)", m["bc_job_sweep_cells"])
	}
	if m[`bc_daemon_info{version="test"}`] != 1 {
		t.Errorf("bc_daemon_info version label missing:\n%s", text)
	}
}

// TestServeHealthz: the enriched document reports uptime, queue shape,
// job counts by state and the code version.
func TestServeHealthz(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Options{Version: "test", QueueDepth: 7})
	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Version != "test" {
		t.Errorf("health = %+v, want ok with version test", h)
	}
	if h.QueueCapacity != 7 {
		t.Errorf("queue capacity = %d, want 7", h.QueueCapacity)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", h.UptimeSeconds)
	}
	if h.Jobs[StateDone] != 1 {
		t.Errorf("jobs = %v, want done=1", h.Jobs)
	}
	for _, state := range States {
		if _, ok := h.Jobs[state]; !ok {
			t.Errorf("jobs map lacks state %q: %v", state, h.Jobs)
		}
	}
}

// TestParseMetrics: the parser accepts the format /v1/metrics emits and
// rejects malformed lines.
func TestParseMetrics(t *testing.T) {
	m, err := ParseMetrics("# TYPE a counter\na 1\nb{x=\"y\"} 2.5\nc_bucket{le=\"+Inf\"} 3\n")
	if err != nil {
		t.Fatal(err)
	}
	if m["a"] != 1 || m[`b{x="y"}`] != 2.5 || m[`c_bucket{le="+Inf"}`] != 3 {
		t.Errorf("parsed = %v", m)
	}
	if !m.Has("a") || !m.Has("b") || !m.Has("c") || m.Has("zz") {
		t.Errorf("family matching wrong: %v", m)
	}
	for _, bad := range []string{"novalue", "1bad 2", "a notanumber", "a 1\na 2"} {
		if _, err := ParseMetrics(bad); err == nil {
			t.Errorf("ParseMetrics(%q): want error", bad)
		}
	}
}
