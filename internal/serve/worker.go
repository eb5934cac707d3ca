// Worker protocol: the orchestrator partitions a sweep grid round-robin
// across `bctool worker` processes, ships each its cell list (with
// content-addressed traces) as one JSON request on stdin, and reads one
// NDJSON row record per cell back on stdout, then an end record. A worker
// serves requests one after another until its stdin closes, so the daemon
// keeps warm workers in a pool across jobs; a worker keeps nothing from
// one request to the next. Workers accept no inbound connections and touch
// no shared state; logs go to inherited stderr.
//
// Determinism argument: the grid is built deterministically, each cell is
// an independent deterministic simulation, every row is keyed by its
// canonical cell index, and the merge walks canonical order — so the
// merged rows (and anything rendered from them) are byte-identical to the
// in-process path at ANY worker count, including the first-failing-cell
// error choice.

package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/tracerec"
)

// workerTrace ships one encoded .bctrace blob, content-addressed by the
// hex sha256 of the blob. The worker re-hashes and fails closed on
// mismatch, so a corrupted ship can never silently change results.
type workerTrace struct {
	Hash string `json:"hash"`
	Data []byte `json:"data"` // .bctrace bytes (JSON base64)
}

// workerCell is one sweep cell on the wire: the canonical grid index (the
// merge key), the label, a trace reference, and the configuration axes.
// Params are NOT shipped: both ends build harness.DefaultParams() and
// apply Border — the same contract RecordedCells uses, and the only base
// the daemon and CLI ever sweep over.
type workerCell struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	Trace string `json:"trace"` // hash of an entry in workerRequest.Traces
	Mode  string `json:"mode"`  // mode slug
	Class string `json:"class"` // class slug
	// Border is the design for BC modes; empty means the mode carries no
	// border (the "-" axis of RecordedCells).
	Border string `json:"border,omitempty"`
	Shards int    `json:"shards,omitempty"`
}

// workerRequest is one stdin document.
type workerRequest struct {
	// Jobs bounds the worker's host parallelism (0 = GOMAXPROCS).
	Jobs   int           `json:"jobs,omitempty"`
	Traces []workerTrace `json:"traces"`
	Cells  []workerCell  `json:"cells"`
}

// workerRow is one stdout NDJSON record: the canonical index plus either
// the row or the cell's error text. Workers run every cell (no
// first-error abort) so the orchestrator — not completion timing — picks
// which failure surfaces. After a request's last row comes the end
// record, {"index":-1,"end":true}.
type workerRow struct {
	Index int               `json:"index"`
	Row   *harness.SweepRow `json:"row,omitempty"`
	Err   string            `json:"err,omitempty"`
	End   bool              `json:"end,omitempty"`
}

// RunWorker is the `bctool worker` entry point: it serves requests from
// stdin until EOF, executing every cell of each and streaming its rows,
// then the end record, to stdout. It returns nil at EOF between requests.
// It returns an error for a protocol failure (a request cut short,
// malformed input, hash mismatch, broken pipe); per-cell simulation
// failures travel in workerRow.Err.
func RunWorker(ctx context.Context, stdin io.Reader, stdout io.Writer) error {
	dec := json.NewDecoder(stdin)
	for {
		var req workerRequest
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("serve: worker: decoding request: %w", err)
		}
		if err := serveRequest(ctx, req, stdout); err != nil {
			return err
		}
	}
}

// serveRequest executes one request and writes its rows and end record,
// each in one write as soon as it is ready, so the orchestrator sees a
// cell's row when the cell finishes. Its traces are decoded for this
// request alone.
func serveRequest(ctx context.Context, req workerRequest, out io.Writer) error {
	traces := make(map[string]*tracerec.Trace, len(req.Traces))
	for _, wt := range req.Traces {
		sum := sha256.Sum256(wt.Data)
		if got := hex.EncodeToString(sum[:]); got != wt.Hash {
			return fmt.Errorf("serve: worker: trace %s arrived as %s (corrupt ship)", wt.Hash, got)
		}
		tr, err := tracerec.Decode(wt.Data)
		if err != nil {
			return fmt.Errorf("serve: worker: trace %s: %w", wt.Hash, err)
		}
		traces[wt.Hash] = tr
	}

	cells := make([]harness.SweepCell, len(req.Cells))
	for i, wc := range req.Cells {
		c, err := wc.rebuild(traces)
		if err != nil {
			return err
		}
		cells[i] = c
	}

	enc := json.NewEncoder(out)
	var encErr error
	runner := &exp.Runner{
		Workers: req.Jobs,
		// OnDone calls are serialized, so the NDJSON stream needs no extra
		// locking; rows go out in completion order and carry their
		// canonical index.
		OnDone: func(r exp.Result) {
			wr := workerRow{Index: req.Cells[r.Index].Index}
			if r.Err != nil {
				wr.Err = r.Err.Error()
			} else {
				row := r.Value.(harness.SweepRow)
				wr.Row = &row
			}
			if err := enc.Encode(wr); err != nil && encErr == nil {
				encErr = err
			}
		},
	}
	jobs := make([]exp.Job, len(cells))
	for i := range cells {
		c := cells[i]
		jobs[i] = exp.Job{
			Name: c.Label,
			Run:  func(ctx context.Context) (any, error) { return harness.RunCell(ctx, c) },
		}
	}
	runner.Run(ctx, jobs)
	if encErr == nil {
		encErr = enc.Encode(workerRow{Index: -1, End: true})
	}
	if encErr != nil {
		return fmt.Errorf("serve: worker: emitting rows: %w", encErr)
	}
	return nil
}

// rebuild turns a wire cell back into a runnable SweepCell, mirroring
// RecordedCells' parameter contract (DefaultParams base, Border override).
func (wc workerCell) rebuild(traces map[string]*tracerec.Trace) (harness.SweepCell, error) {
	tr, ok := traces[wc.Trace]
	if !ok {
		return harness.SweepCell{}, fmt.Errorf("serve: worker: cell %q references unshipped trace %s", wc.Label, wc.Trace)
	}
	mode, err := harness.ParseModeSlug(wc.Mode)
	if err != nil {
		return harness.SweepCell{}, fmt.Errorf("serve: worker: cell %q: %w", wc.Label, err)
	}
	class, err := harness.ParseClassSlug(wc.Class)
	if err != nil {
		return harness.SweepCell{}, fmt.Errorf("serve: worker: cell %q: %w", wc.Label, err)
	}
	p := harness.DefaultParams()
	if wc.Border != "" {
		p.Border = wc.Border
	}
	return harness.SweepCell{
		Label: wc.Label, Trace: tr, Mode: mode, Class: class, P: p, Shards: wc.Shards,
	}, nil
}

// workerProc is one live worker process. Its pipes come from os.Pipe, not
// from exec's StdinPipe/StdoutPipe, because a background goroutine waits on
// the process as soon as it starts, and exec.Cmd.Wait closes the pipes exec
// made — the stdout reader of a request in flight among them.
type workerProc struct {
	id     int // the pool's start sequence number, 1 for the first process
	cmd    *exec.Cmd
	stdin  *os.File      // write end of the worker's stdin
	stdout *os.File      // read end of the worker's stdout
	rows   *json.Decoder // over stdout, kept across requests
	exited chan struct{} // closed once the process has exited and been reaped
}

func (w *workerProc) String() string {
	return fmt.Sprintf("worker %d (pid %d)", w.id, w.cmd.Process.Pid)
}

// run sends one request and feeds each row record to emit until the end
// record. Cancelling ctx kills the process. After any error the worker is
// mid-request or gone, so the caller kills it rather than reuse it.
func (w *workerProc) run(ctx context.Context, req workerRequest, emit func(workerRow) error) error {
	stop := context.AfterFunc(ctx, func() { _ = w.cmd.Process.Kill() })
	err := w.exchange(req, emit)
	if !stop() {
		// The kill has fired, so the job was cancelled whatever the
		// exchange saw.
		return ctx.Err()
	}
	return err
}

func (w *workerProc) exchange(req workerRequest, emit func(workerRow) error) error {
	if err := json.NewEncoder(w.stdin).Encode(req); err != nil {
		return fmt.Errorf("sending request: %w", err)
	}
	for {
		var wr workerRow
		if err := w.rows.Decode(&wr); err == io.EOF {
			return errors.New("reading rows: output ended before the end record")
		} else if err != nil {
			return fmt.Errorf("reading rows: %w", err)
		}
		if wr.End {
			return nil
		}
		if err := emit(wr); err != nil {
			return err
		}
	}
}

// stop closes the worker's stdin, which ends its request loop, and waits
// for the process to be reaped.
func (w *workerProc) stop() {
	_ = w.stdin.Close()
	<-w.exited
	_ = w.stdout.Close()
}

// kill ends a worker that failed, or whose job was cancelled, and waits for
// the process to be reaped.
func (w *workerProc) kill() {
	_ = w.cmd.Process.Kill() // fails only once the process has exited
	<-w.exited
	_ = w.stdin.Close()
	_ = w.stdout.Close()
}

// workerPool keeps warm worker processes between fan-outs. It starts a
// process the first time a fan-out needs one. A worker whose request ended
// cleanly goes back to the idle list; any other worker is killed and
// reaped, never reused. The pool owns every process it starts until close
// has reaped it.
type workerPool struct {
	argv []string // default: this executable with the argument "worker"
	env  []string // appended to the inherited environment
	log  *slog.Logger
	// maxIdle bounds the workers kept between fan-outs; a worker returned
	// past it is stopped.
	maxIdle int

	spawned atomic.Uint64 // processes started
	active  atomic.Int64  // processes started and not yet reaped

	mu     sync.Mutex
	idle   []*workerProc
	nextID int
	closed bool
	procs  sync.WaitGroup // one count per process until it is reaped
}

func newWorkerPool(argv, env []string, log *slog.Logger, maxIdle int) *workerPool {
	return &workerPool{argv: argv, env: env, log: log, maxIdle: maxIdle}
}

// errPoolClosed refuses a fan-out on a daemon that has stopped.
var errPoolClosed = errors.New("serve: worker pool is closed")

// get checks out n workers: idle ones first, dropping any that exited
// while idle, then newly started ones. A closed pool has no idle workers
// and starts none.
func (p *workerPool) get(n int) ([]*workerProc, error) {
	var out []*workerProc
	p.mu.Lock()
	for len(out) < n && len(p.idle) > 0 {
		w := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		select {
		case <-w.exited:
			w.kill()
		default:
			out = append(out, w)
		}
	}
	p.mu.Unlock()
	for len(out) < n {
		w, err := p.start()
		if err != nil {
			for _, w := range out {
				p.put(w)
			}
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// start launches one worker process and the goroutine that reaps it.
func (p *workerPool) start() (_ *workerProc, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	p.nextID++
	id := p.nextID
	p.procs.Add(1)
	p.mu.Unlock()
	defer func() {
		if err != nil {
			p.procs.Done()
		}
	}()

	argv := p.argv
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("serve: locating worker executable: %w", err)
		}
		argv = []string{self, "worker"}
	}
	stdinR, stdinW, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("serve: worker stdin: %w", err)
	}
	stdoutR, stdoutW, err := os.Pipe()
	if err != nil {
		stdinR.Close()
		stdinW.Close()
		return nil, fmt.Errorf("serve: worker stdout: %w", err)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), p.env...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = stdinR, stdoutW, os.Stderr
	err = cmd.Start()
	// The child holds its own copies of its ends.
	stdinR.Close()
	stdoutW.Close()
	if err != nil {
		stdinW.Close()
		stdoutR.Close()
		return nil, fmt.Errorf("serve: starting worker %q: %w", argv[0], err)
	}

	w := &workerProc{
		id: id, cmd: cmd, stdin: stdinW, stdout: stdoutR,
		rows: json.NewDecoder(stdoutR), exited: make(chan struct{}),
	}
	p.spawned.Add(1)
	p.active.Add(1)
	p.log.Info("worker spawned", "worker", id, "pid", cmd.Process.Pid)
	go func() {
		defer p.procs.Done()
		err := cmd.Wait()
		p.active.Add(-1)
		if err != nil {
			p.log.Warn("worker exited", "worker", id, "pid", cmd.Process.Pid, "err", err)
		} else {
			p.log.Info("worker exited", "worker", id, "pid", cmd.Process.Pid)
		}
		close(w.exited)
	}()
	return w, nil
}

// put returns a worker whose request ended cleanly. The pool keeps it idle
// unless the pool is closed or already holds maxIdle idle workers; then
// the worker is stopped.
func (p *workerPool) put(w *workerProc) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, w)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	w.stop()
}

// close stops every idle worker and waits until every process the pool
// started has been reaped. Safe to call more than once.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	// Close every stdin first, so the workers exit in parallel.
	for _, w := range idle {
		_ = w.stdin.Close()
	}
	for _, w := range idle {
		w.stop()
	}
	p.procs.Wait()
}

// FanoutConfig shapes a SweepFanout execution. Everything here is
// execution machinery: the returned rows are byte-identical at any
// Workers/Jobs setting.
type FanoutConfig struct {
	// Workers is the number of worker processes; 0 or negative runs the
	// sweep in-process.
	Workers int
	// Jobs bounds host parallelism inside each worker (or in-process).
	Jobs int
	// Argv is the worker command line (default: this executable with the
	// single argument "worker"); Env entries are appended to the inherited
	// environment. A call given the daemon's pool uses the pool's instead.
	Argv []string
	Env  []string
	// Progress, when non-nil, receives one line per finished cell in
	// completion order (advisory; ordering varies with parallelism).
	Progress func(msg string)
	// pool supplies warm workers that outlive the call: the daemon's.
	// Without one, SweepFanout starts a pool from Argv and Env for the call
	// and closes it before returning.
	pool *workerPool
}

// SweepFanout executes a validated sweep grid, either in-process
// (Workers <= 0) or by partitioning cells round-robin across Workers
// worker processes, and merges rows in canonical cell order. On failure it
// reports the first failing cell in canonical order — the same cell the
// in-process path would have reported (the error text is the worker's
// rendering of the same underlying error). A worker that dies, sends a
// malformed record or is cancelled fails the call with an error naming the
// worker and the first of its cells it did not return.
func SweepFanout(ctx context.Context, cells []harness.SweepCell, cfg FanoutConfig) ([]harness.SweepRow, error) {
	if err := harness.ValidateCells(cells); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		ex := harness.Exec{Jobs: cfg.Jobs}
		if cfg.Progress != nil {
			progress := cfg.Progress
			ex.Progress = func(r exp.Result) { progress(cellNote(r.Name, r.Err)) }
		}
		return harness.RunSweepExec(ctx, ex, cells)
	}

	// Content-address every distinct trace once, however many cells share
	// it (cells of one grid share decoded trace pointers).
	hashOf := make(map[*tracerec.Trace]string)
	blobs := make(map[string][]byte)
	for _, c := range cells {
		if _, done := hashOf[c.Trace]; done {
			continue
		}
		blob, err := tracerec.Encode(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("serve: encoding trace for cell %q: %w", c.Label, err)
		}
		sum := sha256.Sum256(blob)
		h := hex.EncodeToString(sum[:])
		hashOf[c.Trace] = h
		blobs[h] = blob
	}

	workers := min(cfg.Workers, len(cells))
	parts := make([][]workerCell, workers)
	for i, c := range cells {
		wc := workerCell{
			Index: i, Label: c.Label, Trace: hashOf[c.Trace],
			Mode: harness.ModeSlug(c.Mode), Class: harness.ClassSlug(c.Class),
			Shards: c.Shards,
		}
		// RecordedCells leaves the base border untouched for borderless
		// modes; shipping the border only for BC modes reproduces that.
		if c.Mode == harness.BCNoBCC || c.Mode == harness.BCBCC {
			wc.Border = c.P.Border
		}
		parts[i%workers] = append(parts[i%workers], wc)
	}

	pool := cfg.pool
	if pool == nil {
		pool = newWorkerPool(cfg.Argv, cfg.Env, slog.New(discardHandler{}), workers)
		defer pool.close()
	}
	procs, err := pool.get(workers)
	if err != nil {
		return nil, err
	}

	rows := make([]*harness.SweepRow, len(cells))
	cellErrs := make([]string, len(cells))
	workerErrs := make([]error, workers)
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for slot, w := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := w.run(ctx, workerRequest{
				Jobs: cfg.Jobs, Traces: shippedTraces(parts[slot], blobs), Cells: parts[slot],
			}, func(wr workerRow) error {
				// Slot s owns the canonical indices i with i mod workers = s,
				// so distinct workers never write the same element.
				if wr.Index < 0 || wr.Index >= len(cells) || wr.Index%workers != slot {
					return fmt.Errorf("returned index %d, which is not one of its cells", wr.Index)
				}
				rows[wr.Index] = wr.Row
				cellErrs[wr.Index] = wr.Err
				if cfg.Progress != nil {
					progressMu.Lock()
					cfg.Progress(cellNote(cells[wr.Index].Label, errOrNil(wr.Err)))
					progressMu.Unlock()
				}
				return nil
			})
			if err == nil {
				pool.put(w)
				return
			}
			w.kill()
			for _, wc := range parts[slot] {
				if rows[wc.Index] == nil && cellErrs[wc.Index] == "" {
					workerErrs[slot] = fmt.Errorf("serve: %v failed before returning cell %q: %w", w, wc.Label, err)
					return
				}
			}
			workerErrs[slot] = fmt.Errorf("serve: %v failed after returning its cells: %w", w, err)
		}()
	}
	wg.Wait()
	for _, err := range workerErrs {
		if err != nil {
			return nil, err
		}
	}

	// Canonical-order merge: the first failing cell in grid order wins,
	// exactly as exp.FirstErr picks it for the in-process path.
	out := make([]harness.SweepRow, len(cells))
	for i := range cells {
		if cellErrs[i] != "" {
			return nil, fmt.Errorf("serve: cell %q: %s", cells[i].Label, cellErrs[i])
		}
		if rows[i] == nil {
			return nil, fmt.Errorf("serve: worker dropped cell %d (%q)", i, cells[i].Label)
		}
		out[i] = *rows[i]
	}
	return out, nil
}

// shippedTraces selects, in first-reference order, the trace blobs a
// worker's cell list needs — each worker receives only what it will run.
func shippedTraces(part []workerCell, blobs map[string][]byte) []workerTrace {
	var out []workerTrace
	seen := make(map[string]bool)
	for _, wc := range part {
		if seen[wc.Trace] {
			continue
		}
		seen[wc.Trace] = true
		out = append(out, workerTrace{Hash: wc.Trace, Data: blobs[wc.Trace]})
	}
	return out
}

func cellNote(label string, err error) string {
	if err != nil {
		return fmt.Sprintf("cell %s: FAILED: %v", label, err)
	}
	return fmt.Sprintf("cell %s: ok", label)
}

func errOrNil(s string) error {
	if s == "" {
		return nil
	}
	return fmt.Errorf("%s", s)
}
