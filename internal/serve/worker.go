// Worker protocol: the orchestrator partitions a sweep grid round-robin
// across `bctool worker` subprocesses, ships each its cell list (with
// content-addressed traces) as one JSON document on stdin, and reads one
// NDJSON row result per cell back on stdout. Workers accept no inbound
// connections and touch no shared state; logs go to inherited stderr.
//
// Determinism argument: the grid is built deterministically, each cell is
// an independent deterministic simulation, every row is keyed by its
// canonical cell index, and the merge walks canonical order — so the
// merged rows (and anything rendered from them) are byte-identical to the
// in-process path at ANY worker count, including the first-failing-cell
// error choice.

package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"

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

// workerRequest is the single stdin document.
type workerRequest struct {
	// Jobs bounds the worker's host parallelism (0 = GOMAXPROCS).
	Jobs   int           `json:"jobs,omitempty"`
	Traces []workerTrace `json:"traces"`
	Cells  []workerCell  `json:"cells"`
}

// workerRow is one stdout NDJSON record: the canonical index plus either
// the row or the cell's error text. Workers run every cell (no
// first-error abort) so the orchestrator — not completion timing — picks
// which failure surfaces.
type workerRow struct {
	Index int               `json:"index"`
	Row   *harness.SweepRow `json:"row,omitempty"`
	Err   string            `json:"err,omitempty"`
}

// RunWorker is the `bctool worker` entry point: decode the request from
// stdin, execute every cell, stream rows to stdout. It returns only
// protocol-level failures (malformed input, hash mismatch, broken pipe);
// per-cell simulation failures travel in workerRow.Err.
func RunWorker(ctx context.Context, stdin io.Reader, stdout io.Writer) error {
	var req workerRequest
	if err := json.NewDecoder(bufio.NewReader(stdin)).Decode(&req); err != nil {
		return fmt.Errorf("serve: worker: decoding request: %w", err)
	}
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

	out := bufio.NewWriter(stdout)
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
	if encErr != nil {
		return fmt.Errorf("serve: worker: emitting rows: %w", encErr)
	}
	return out.Flush()
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

// FanoutConfig shapes a SweepFanout execution. Everything here is
// execution machinery: the returned rows are byte-identical at any
// Workers/Jobs setting.
type FanoutConfig struct {
	// Workers is the number of worker subprocesses; 0 or negative runs the
	// sweep in-process.
	Workers int
	// Jobs bounds host parallelism inside each worker (or in-process).
	Jobs int
	// Argv is the worker command line (default: this executable with the
	// single argument "worker").
	Argv []string
	// Env entries are appended to the inherited environment.
	Env []string
	// Progress, when non-nil, receives one line per finished cell in
	// completion order (advisory; ordering varies with parallelism).
	Progress func(msg string)
	// OnWorkerStart/OnWorkerExit, when non-nil, observe worker-subprocess
	// lifecycle: start fires just before the spawn with the worker's cell
	// count, exit fires after the process finishes with its error (nil on
	// success). Telemetry only — they never influence results.
	OnWorkerStart func(worker, cells int)
	OnWorkerExit  func(worker int, err error)
	// Stderr receives the workers' stderr (default os.Stderr).
	Stderr io.Writer
}

func (cfg FanoutConfig) argv() ([]string, error) {
	if len(cfg.Argv) > 0 {
		return cfg.Argv, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("serve: locating worker executable: %w", err)
	}
	return []string{self, "worker"}, nil
}

// SweepFanout executes a validated sweep grid, either in-process
// (Workers <= 0) or by partitioning cells round-robin across Workers
// subprocesses speaking the worker protocol, and merges rows in canonical
// cell order. On failure it reports the first failing cell in canonical
// order — the same cell the in-process path would have reported (the
// error text is the worker's rendering of the same underlying error).
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

	workers := cfg.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
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

	argv, err := cfg.argv()
	if err != nil {
		return nil, err
	}
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}

	rows := make([]*harness.SweepRow, len(cells))
	cellErrs := make([]string, len(cells))
	workerErrs := make([]error, workers)
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if cfg.OnWorkerStart != nil {
				cfg.OnWorkerStart(w, len(parts[w]))
			}
			workerErrs[w] = runWorkerProc(ctx, argv, cfg.Env, stderr, workerRequest{
				Jobs: cfg.Jobs, Traces: shippedTraces(parts[w], blobs), Cells: parts[w],
			}, func(wr workerRow) error {
				if wr.Index < 0 || wr.Index >= len(cells) {
					return fmt.Errorf("serve: worker %d returned out-of-range index %d", w, wr.Index)
				}
				// Distinct workers own distinct canonical indices, so these
				// writes never race.
				rows[wr.Index] = wr.Row
				cellErrs[wr.Index] = wr.Err
				if cfg.Progress != nil {
					progressMu.Lock()
					cfg.Progress(cellNote(cells[wr.Index].Label, errOrNil(wr.Err)))
					progressMu.Unlock()
				}
				return nil
			})
			if cfg.OnWorkerExit != nil {
				cfg.OnWorkerExit(w, workerErrs[w])
			}
		}(w)
	}
	wg.Wait()
	for w, err := range workerErrs {
		if err != nil {
			return nil, fmt.Errorf("serve: worker %d: %w", w, err)
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

// runWorkerProc spawns one worker, feeds it the request, and streams its
// rows into emit.
func runWorkerProc(ctx context.Context, argv, env []string, stderr io.Writer, req workerRequest, emit func(workerRow) error) error {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning %q: %w", argv[0], err)
	}
	feedErr := make(chan error, 1)
	go func() {
		err := json.NewEncoder(stdin).Encode(req)
		if cerr := stdin.Close(); err == nil {
			err = cerr
		}
		feedErr <- err
	}()

	dec := json.NewDecoder(bufio.NewReader(stdout))
	var readErr error
	for {
		var wr workerRow
		if err := dec.Decode(&wr); err != nil {
			if err != io.EOF {
				readErr = fmt.Errorf("reading rows: %w", err)
			}
			break
		}
		if err := emit(wr); err != nil {
			readErr = err
			break
		}
	}
	// Drain any remaining output so a failed merge can't deadlock a worker
	// blocked on a full stdout pipe.
	_, _ = io.Copy(io.Discard, stdout)
	// The feeder must be done with stdin before Wait, which closes the pipe
	// itself (os/exec's StdinPipe contract). A worker that exits without
	// reading everything unblocks the feeder with a broken pipe.
	fed := <-feedErr
	waitErr := cmd.Wait()
	if readErr != nil {
		return readErr
	}
	if fed != nil && waitErr == nil {
		return fmt.Errorf("feeding request: %w", fed)
	}
	if waitErr != nil {
		return fmt.Errorf("worker exited: %w", waitErr)
	}
	return nil
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
