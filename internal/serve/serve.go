// Package serve is the experiment service behind `bctool serve`: an
// HTTP/JSON daemon with a bounded job queue, typed job specs keyed to the
// harness entry points (run, sweep, adversary, fleet), an artifact cache
// keyed by (request, trace hashes, code version), NDJSON progress
// streaming, cooperative cancellation, bounded retention of finished jobs,
// and a worker protocol that fans sweep grids out across a pool of warm
// `bctool worker` processes with byte-identical artifacts at any worker
// count. See DESIGN.md §16.
//
// The telemetry plane on top (DESIGN.md §17): structured log/slog logging
// of the request/job lifecycle, a Prometheus-text `GET /v1/metrics`
// endpoint bridging completed jobs' stats snapshots plus daemon-level
// series, and a `GET /v1/watch` NDJSON firehose multiplexing every job's
// events under a daemon-global monotonic cursor. All of it is pure
// observation: scraping, tailing, and logging never change an artifact
// byte.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bordercontrol/internal/stats"
)

// Options configures a Server. The zero value serves with sensible
// defaults: a 32-deep queue, in-process sweeps, GOMAXPROCS parallelism,
// a 128-entry artifact cache, a 1024-event watch buffer, and no logging.
type Options struct {
	// QueueDepth bounds accepted-but-unstarted jobs; submissions beyond it
	// are refused with 503 rather than buffered without bound.
	QueueDepth int
	// Workers is the default worker-process fan-out for sweep jobs
	// (0 = in-process; SweepSpec.Workers overrides per job). It is also
	// how many warm workers the daemon keeps between jobs.
	Workers int
	// Jobs bounds host parallelism within a job or worker (0 = GOMAXPROCS).
	Jobs int
	// WorkerArgv is the worker command (default: this executable,
	// argument "worker"); WorkerEnv entries are appended to the inherited
	// environment.
	WorkerArgv []string
	WorkerEnv  []string
	// CacheSize bounds the artifact cache (entries; <0 disables caching,
	// 0 = default 128).
	CacheSize int
	// WatchBuffer bounds the /v1/watch event ring (0 = default 1024);
	// subscribers that fall further behind see an explicit drop marker.
	WatchBuffer int
	// Logger, when non-nil, receives structured lifecycle logs: request
	// handling at debug, job/cache/worker lifecycle at info, queue pressure
	// and failures at warn. Nil discards everything.
	Logger *slog.Logger
	// Version overrides the cache key's code-version component (default:
	// the build's VCS revision).
	Version string
}

// MaxRequestBytes bounds a job submission's body. A spec is a few hundred
// bytes; a larger body is refused with 413 before it is decoded.
const MaxRequestBytes = 1 << 20

// MaxRetainedJobs bounds the finished jobs the daemon keeps: past it, the
// job that finished first is forgotten, its status, events and artifact
// with it, and a request for it gets 404. Queued and running jobs are
// always kept.
const MaxRetainedJobs = 256

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// States lists every job state in lifecycle order — the fixed label set of
// the jobs-by-state series on /v1/metrics and /v1/healthz.
var States = []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Event is one entry of a job's progress stream.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state", "progress", "cache"
	Msg  string `json:"msg"`
}

// Job is one submitted request and its lifecycle. All fields behind mu;
// readers use the snapshot accessors.
type Job struct {
	ID  string  `json:"id"`
	Req Request `json:"request"`

	mu       sync.Mutex
	state    string
	events   []Event
	artifact string
	errMsg   string
	cached   bool
	updated  chan struct{} // closed-and-replaced on every mutation
	cancel   context.CancelFunc
	// publish forwards every appended event to the daemon firehose. It is
	// set once before the job becomes visible and is called with mu held,
	// so a job's events reach the firehose in seq order.
	publish func(jobID string, e Event)
}

// JobStatus is the wire snapshot of a job.
type JobStatus struct {
	ID     string `json:"id"`
	Type   string `json:"type"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Events int    `json:"events"`
}

func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, Type: j.Req.Type, State: j.state,
		Error: j.errMsg, Cached: j.cached, Events: len(j.events),
	}
}

// mutate applies fn under the lock and wakes every waiter.
func (j *Job) mutate(fn func()) {
	j.mu.Lock()
	fn()
	close(j.updated)
	j.updated = make(chan struct{})
	j.mu.Unlock()
}

// appendLocked appends one event (assigning the next job-local seq) and
// forwards it to the firehose. Callers hold j.mu; mutate's unlock path
// wakes the per-job stream waiters.
func (j *Job) appendLocked(typ, msg string) {
	e := Event{Seq: len(j.events) + 1, Type: typ, Msg: msg}
	j.events = append(j.events, e)
	if j.publish != nil {
		j.publish(j.ID, e)
	}
}

func (j *Job) addEvent(typ, msg string) {
	j.mutate(func() { j.appendLocked(typ, msg) })
}

// eventsSince returns events with Seq > seq, the current state, and a
// channel that closes on the next mutation.
func (j *Job) eventsSince(seq int) ([]Event, string, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if seq < len(j.events) {
		out = append(out, j.events[seq:]...)
	}
	return out, j.state, j.updated
}

// Server is the experiment service. Construct with New, wire Handler into
// an http.Server, call Start to launch the executor, Stop to shut down.
type Server struct {
	opts    Options
	version string
	queue   chan *Job
	cache   *artifactCache
	log     *slog.Logger
	fh      *firehose
	pool    *workerPool

	mu    sync.Mutex
	jobs  map[string]*Job // the retained jobs
	order []string        // retained job IDs in submission order
	// finished lists the retained terminal jobs in the order they
	// finished: the eviction order.
	finished []string
	// states counts every job ever accepted by its current state.
	states    map[string]int
	nextID    int
	started   bool
	startedAt time.Time
	jobStats  stats.Snapshot // merged snapshots of completed jobs
	jobSnaps  uint64         // how many job snapshots merged in
	ctx       context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
}

// New builds a Server from opts (see Options for the zero-value
// defaults).
func New(opts Options) *Server {
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 32
	}
	cacheSize := opts.CacheSize
	if cacheSize == 0 {
		cacheSize = 128
	}
	version := opts.Version
	if version == "" {
		version = codeVersion()
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	return &Server{
		opts:    opts,
		version: version,
		queue:   make(chan *Job, depth),
		cache:   newArtifactCache(cacheSize),
		log:     log,
		fh:      newFirehose(opts.WatchBuffer),
		pool:    newWorkerPool(opts.WorkerArgv, opts.WorkerEnv, log, opts.Workers),
		jobs:    make(map[string]*Job),
		states:  make(map[string]int, len(States)),
	}
}

// discardHandler is the nil-Logger sink: nothing is enabled, nothing is
// formatted, logging costs one interface call.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Start launches the executor goroutine. Jobs execute one at a time in
// acceptance order — parallelism lives inside a job (Jobs/Workers), not
// across jobs, so artifacts and cache state stay deterministic.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.startedAt = time.Now()
	s.ctx, s.stop = context.WithCancel(ctx)
	runCtx := s.ctx
	s.mu.Unlock()
	s.log.Info("executor started",
		"queue_capacity", cap(s.queue), "workers", s.opts.Workers, "jobs", s.opts.Jobs,
		"cache_size", s.opts.CacheSize, "version", s.version)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-runCtx.Done():
				s.drainQueue()
				return
			case j := <-s.queue:
				s.execute(runCtx, j)
			}
		}
	}()
}

// Stop cancels the running job (if any), which kills its workers, fails
// the queued ones as cancelled, waits for the executor to exit, then stops
// the idle workers and waits until every worker process has been reaped.
// Safe to call more than once and before Start.
func (s *Server) Stop() {
	s.mu.Lock()
	stop := s.stop
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	s.wg.Wait()
	s.pool.close()
}

func (s *Server) drainQueue() {
	for {
		select {
		case j := <-s.queue:
			j.mutate(func() {
				if j.state == StateQueued {
					s.transitionLocked(j, StateCancelled)
				}
			})
			s.log.Info("job cancelled at shutdown", "job", j.ID)
		default:
			return
		}
	}
}

// transitionLocked moves j to state, with j.mu held: it appends the state
// event and keeps the per-state counts and retention in step. A job
// becomes terminal once; when that puts the finished jobs past
// MaxRetainedJobs, the one that finished first is evicted.
func (s *Server) transitionLocked(j *Job, state string) {
	old := j.state
	j.state = state
	j.appendLocked("state", state)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old != "" {
		s.states[old]--
	}
	s.states[state]++
	if !terminal(state) {
		return
	}
	s.finished = append(s.finished, j.ID)
	if len(s.finished) > MaxRetainedJobs {
		id := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, id)
		i := slices.Index(s.order, id)
		s.order = slices.Delete(s.order, i, i+1)
	}
}

func (s *Server) setState(j *Job, state string) {
	j.mutate(func() { s.transitionLocked(j, state) })
}

// execute runs one job to a terminal state.
func (s *Server) execute(ctx context.Context, j *Job) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	running := false
	j.mutate(func() {
		if j.state == StateQueued { // not cancelled while it waited
			j.cancel = cancel
			s.transitionLocked(j, StateRunning)
			running = true
		}
	})
	if !running {
		return
	}
	start := time.Now()
	s.log.Info("job running", "job", j.ID, "type", j.Req.Type)

	sp, err := j.Req.spec()
	if err != nil { // Validate gates submission; this is belt and braces
		s.finish(j, "", stats.Snapshot{}, err, start)
		return
	}

	// Artifact identity: a sweep's input traces are part of it, so the job
	// is planned first, once: the plan hashes the traces for the key, and
	// the run executes the cells it planned.
	traceHashes, run, err := sp.plan()
	if err != nil {
		s.finish(j, "", stats.Snapshot{}, err, start)
		return
	}
	key, err := cacheKey(s.version, j.Req, traceHashes)
	if err != nil {
		s.finish(j, "", stats.Snapshot{}, err, start)
		return
	}
	if art, hit := s.cache.get(key); hit {
		j.mutate(func() { j.cached = true })
		j.addEvent("cache", fmt.Sprintf("cache hit %s — skipping execution", key[:12]))
		s.log.Info("cache hit", "job", j.ID, "key", key[:12])
		// A cache hit re-serves bytes, it does not re-run the simulation, so
		// it contributes no job-stats snapshot.
		s.finish(j, art, stats.Snapshot{}, nil, start)
		return
	}

	env := jobEnv{
		jobs:    s.opts.Jobs,
		workers: s.opts.Workers,
		pool:    s.pool,
		progress: func(msg string) {
			j.addEvent("progress", msg)
		},
	}
	art, snap, err := run(jctx, env)
	if err == nil {
		s.cache.put(key, art)
	}
	if jctx.Err() != nil && ctx.Err() == nil {
		// The job's own context died but the server's didn't: this was a
		// per-job cancellation, not a shutdown.
		j.mutate(func() { j.artifact = art })
		s.setState(j, StateCancelled)
		s.log.Info("job cancelled", "job", j.ID, "elapsed", time.Since(start))
		return
	}
	s.finish(j, art, snap, err, start)
}

func (s *Server) finish(j *Job, artifact string, snap stats.Snapshot, err error, start time.Time) {
	j.mutate(func() {
		j.artifact = artifact
		if err != nil {
			j.errMsg = err.Error()
		}
	})
	if len(snap.Samples) > 0 {
		s.mu.Lock()
		s.jobStats = stats.Merge(s.jobStats, snap)
		s.jobSnaps++
		s.mu.Unlock()
	}
	if err != nil {
		s.setState(j, StateFailed)
		s.log.Warn("job failed", "job", j.ID, "elapsed", time.Since(start), "err", err)
		return
	}
	s.setState(j, StateDone)
	s.log.Info("job done", "job", j.ID, "elapsed", time.Since(start), "artifact_bytes", len(artifact))
}

// Submit validates and enqueues a request. It fails with ErrQueueFull
// when the queue is at depth.
func (s *Server) Submit(req Request) (*Job, error) {
	if err := req.Validate(); err != nil {
		s.log.Debug("submission rejected", "type", req.Type, "err", err)
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	j := &Job{
		ID:      fmt.Sprintf("j%04d", s.nextID),
		Req:     req,
		updated: make(chan struct{}),
		publish: s.fh.publish,
	}
	s.mu.Unlock()

	// The job is registered and its queued event appended and published
	// while j.mu is held across the enqueue, so the executor (which takes
	// j.mu first thing) cannot move it on ahead of either.
	j.mu.Lock()
	select {
	case s.queue <- j:
	default:
		j.mu.Unlock()
		s.log.Warn("job refused: queue full", "type", req.Type, "queue_capacity", cap(s.queue))
		return nil, ErrQueueFull
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.transitionLocked(j, StateQueued)
	j.mu.Unlock()

	depth, capacity := len(s.queue), cap(s.queue)
	s.log.Info("job queued", "job", j.ID, "type", req.Type, "queue_depth", depth, "queue_capacity", capacity)
	if depth*4 >= capacity*3 {
		s.log.Warn("queue pressure", "queue_depth", depth, "queue_capacity", capacity)
	}
	return j, nil
}

// ErrQueueFull reports a submission refused because the bounded queue is
// at depth.
var ErrQueueFull = fmt.Errorf("serve: job queue full")

// Cancel requests cooperative cancellation of a job. A queued job is
// cancelled immediately; a running one stops at its next engine poll, and
// its worker processes are killed.
func (s *Server) Cancel(id string) error {
	j, ok := s.job(id)
	if !ok {
		return fmt.Errorf("serve: no job %q", id)
	}
	j.mutate(func() {
		switch {
		case terminal(j.state):
		case j.cancel != nil:
			j.cancel()
		default:
			s.transitionLocked(j, StateCancelled) // still queued; the executor skips it
		}
	})
	s.log.Info("job cancel requested", "job", id)
	return nil
}

func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshotJobs returns every retained job in submission order.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	return jobs
}

// jobsByState counts every job ever accepted, retained or not, by its
// current state (every state present, zero or not — a fixed label set
// keeps scrapers simple).
func (s *Server) jobsByState() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := make(map[string]int, len(States))
	for _, st := range States {
		counts[st] = s.states[st]
	}
	return counts
}

// uptime returns how long the executor has been running (0 before Start).
func (s *Server) uptime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.startedAt.IsZero() {
		return 0
	}
	return time.Since(s.startedAt)
}

// Health is the enriched /v1/healthz document.
type Health struct {
	OK            bool           `json:"ok"`
	Version       string         `json:"version"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[string]int `json:"jobs"`
	CacheEntries  int            `json:"cache_entries"`
}

func (s *Server) health() Health {
	return Health{
		OK:            true,
		Version:       s.version,
		UptimeSeconds: s.uptime().Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Jobs:          s.jobsByState(),
		CacheEntries:  s.cache.len(),
	}
}

// doneCh returns a channel that closes when the server shuts down (never,
// before Start) — long-lived streams select on it so shutdown does not
// hang on idle subscribers.
func (s *Server) doneCh() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		return nil // nil channel: blocks forever
	}
	return s.ctx.Done()
}

// Handler returns the service's HTTP API:
//
//	GET    /v1/healthz           — liveness: uptime, queue, jobs by state, version
//	GET    /v1/metrics           — Prometheus text exposition (daemon + job series)
//	GET    /v1/watch             — NDJSON firehose of every job's events (?after=cursor)
//	POST   /v1/jobs              — submit a Request (202, or 400/503)
//	GET    /v1/jobs              — retained job statuses, submission order
//	GET    /v1/jobs/{id}         — one job status
//	GET    /v1/jobs/{id}/events  — NDJSON progress stream until terminal (?after=seq)
//	GET    /v1/jobs/{id}/artifact — rendered artifact (text/plain)
//	DELETE /v1/jobs/{id}         — cooperative cancellation
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.health())
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.writeMetrics(w)
	})
	mux.HandleFunc("GET /v1/watch", func(w http.ResponseWriter, r *http.Request) {
		after, err := afterParam(r, "cursor")
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		s.serveWatch(w, r, after)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		body := http.MaxBytesReader(w, r.Body, MaxRequestBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		j, err := s.Submit(req)
		switch {
		case err == ErrQueueFull:
			httpError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusAccepted, j.status())
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.snapshotJobs()
		out := make([]JobStatus, len(jobs))
		for i, j := range jobs {
			out[i] = j.status()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, j.status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		j.mu.Lock()
		state, art := j.state, j.artifact
		j.mu.Unlock()
		if !terminal(state) {
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; artifact not ready", j.ID, state))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = strings.NewReader(art).WriteTo(w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		after, err := afterParam(r, "seq")
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		seq := int(after)
		for {
			events, state, changed := j.eventsSince(seq)
			for _, e := range events {
				if err := enc.Encode(e); err != nil {
					return
				}
				seq = e.Seq
			}
			if flusher != nil {
				flusher.Flush()
			}
			if terminal(state) {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-changed:
			}
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cancel(r.PathValue("id")); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return s.accessLog(mux)
}

// serveWatch streams the daemon firehose as NDJSON from the given cursor
// until the client disconnects or the server shuts down. A subscriber that
// falls behind the bounded ring receives an explicit drop marker before
// delivery resumes at the oldest retained event.
func (s *Server) serveWatch(w http.ResponseWriter, r *http.Request, after uint64) {
	s.fh.subscribe()
	defer s.fh.unsubscribe()
	s.log.Debug("watch subscribed", "after", after, "remote", r.RemoteAddr)
	defer s.log.Debug("watch unsubscribed", "remote", r.RemoteAddr)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers so clients see the stream open
	}
	enc := json.NewEncoder(w)
	done := s.doneCh()
	cur := after
	for {
		events, dropped, wait := s.fh.since(cur)
		if dropped > 0 {
			s.log.Warn("watch subscriber dropped events", "dropped", dropped, "remote", r.RemoteAddr)
			if err := enc.Encode(s.fh.dropMarker(cur, dropped)); err != nil {
				return
			}
			cur += dropped
		}
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
			cur = e.Cursor
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-done:
			return
		case <-wait:
		}
	}
}

// afterParam parses an optional non-negative ?after= query parameter.
func afterParam(r *http.Request, what string) (uint64, error) {
	raw := r.URL.Query().Get("after")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 63)
	if err != nil {
		return 0, fmt.Errorf("bad after=%q (want a non-negative %s)", raw, what)
	}
	return v, nil
}

// accessLog wraps the API with a debug-level request log. The wrapper
// forwards Flush so the streaming endpoints keep working.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		lw := &loggingWriter{ResponseWriter: w}
		next.ServeHTTP(lw, r)
		status := lw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.log.Debug("request",
			"method", r.Method, "path", r.URL.Path, "status", status,
			"bytes", lw.bytes, "elapsed", time.Since(start), "remote", r.RemoteAddr)
	})
}

type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *loggingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *loggingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *loggingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
