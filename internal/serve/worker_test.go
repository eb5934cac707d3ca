package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"testing"

	"bordercontrol/internal/harness"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
)

func blobHash(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestMain doubles the test binary as a worker process: when spawned with
// BC_SERVE_WORKER=1 it speaks the worker protocol on stdin/stdout instead
// of running tests. Fan-out tests point FanoutConfig.Argv (or the daemon's
// Options.WorkerArgv) at os.Args[0] with that variable set, so they
// exercise real worker processes without needing a built bctool on PATH.
//
// With BC_SERVE_WORKER=read it only reads its first request and exits at
// once, the earliest a worker can leave.
func TestMain(m *testing.M) {
	switch os.Getenv("BC_SERVE_WORKER") {
	case "1":
		if err := RunWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "read":
		var req workerRequest
		if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerEnv is the environment of a worker process in the given
// BC_SERVE_WORKER mode. A race-enabled binary sleeps for a second at exit
// (GORACE's atexit_sleep_ms) to let late race reports through; these
// workers exit after every test, so the sleep is turned off.
func workerEnv(mode string) []string {
	return []string{"BC_SERVE_WORKER=" + mode, "GORACE=" + os.Getenv("GORACE") + " atexit_sleep_ms=0"}
}

func workerFanoutConfig(workers int) FanoutConfig {
	return FanoutConfig{
		Workers: workers,
		Argv:    []string{os.Args[0]},
		Env:     workerEnv("1"),
	}
}

// tinyGrid builds a small but multi-trace, multi-mode grid: 2 shapes x
// 2 modes x 1 border x 1 class = 4 cells over 2 distinct traces.
func tinyGrid(t *testing.T) []harness.SweepCell {
	t.Helper()
	traces := map[string]*tracerec.Trace{}
	var names []string
	for _, shape := range []string{traffic.Bursty, traffic.Stream} {
		tr, err := traffic.Generate(traffic.Config{Shape: shape, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		name := shape + "-s1"
		traces[name] = tr
		names = append(names, name)
	}
	return harness.RecordedCells(traces, names,
		[]harness.Mode{harness.BCNoBCC, harness.BCBCC}, []string{"flat"},
		[]harness.GPUClass{harness.ModeratelyThreaded}, harness.DefaultParams(), 0)
}

// TestSweepFanoutByteIdentical is the tentpole's acceptance check in
// miniature: the same grid rendered via 1, 2 and 4 worker subprocesses is
// byte-identical to the in-process sweep — CSV and table both.
func TestSweepFanoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	cells := tinyGrid(t)
	want, err := harness.RunSweepExec(context.Background(), harness.Exec{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	wantArt := harness.SweepCSV(want) + harness.RenderSweep(want)

	for _, workers := range []int{1, 2, 4} {
		var notes []string
		cfg := workerFanoutConfig(workers)
		cfg.Progress = func(msg string) { notes = append(notes, msg) }
		rows, err := SweepFanout(context.Background(), cells, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := harness.SweepCSV(rows) + harness.RenderSweep(rows)
		if got != wantArt {
			t.Errorf("workers=%d: artifact differs from in-process:\n--- want\n%s--- got\n%s", workers, wantArt, got)
		}
		if len(notes) != len(cells) {
			t.Errorf("workers=%d: got %d progress notes, want one per cell (%d)", workers, len(notes), len(cells))
		}
	}
}

// TestSweepFanoutInProcess: Workers<=0 short-circuits to the in-process
// path and still reports per-cell progress.
func TestSweepFanoutInProcess(t *testing.T) {
	cells := tinyGrid(t)
	var notes []string
	rows, err := SweepFanout(context.Background(), cells, FanoutConfig{
		Workers:  0,
		Progress: func(msg string) { notes = append(notes, msg) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cells) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cells))
	}
	if len(notes) != len(cells) {
		t.Errorf("got %d progress notes, want %d", len(notes), len(cells))
	}
	// Duplicate labels are refused before anything runs, same as RunSweepExec.
	bad := append([]harness.SweepCell{}, cells...)
	bad[1].Label = bad[0].Label
	if _, err := SweepFanout(context.Background(), bad, FanoutConfig{}); err == nil {
		t.Error("duplicate labels: want error")
	}
}

// TestRunWorkerRoundTrip drives the worker protocol in-process: encode two
// requests on one stream, run RunWorker, decode the NDJSON records, and
// check each request's rows carry the same results RunCell produces
// directly and end with exactly one end record. RunWorker returns nil at
// the EOF after the second request.
func TestRunWorkerRoundTrip(t *testing.T) {
	cells := tinyGrid(t)
	req := serialRequest(t, cells)
	var in, out bytes.Buffer
	for range 2 {
		if err := json.NewEncoder(&in).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := RunWorker(context.Background(), &in, &out); err != nil {
		t.Fatal(err)
	}

	want, err := harness.RunSweepExec(context.Background(), harness.Exec{Jobs: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	for r := range 2 {
		rows := make([]*harness.SweepRow, len(cells))
		for {
			var wr workerRow
			if err := dec.Decode(&wr); err != nil {
				t.Fatalf("request %d: %v before the end record", r, err)
			}
			if wr.End {
				if wr.Index != -1 || wr.Row != nil || wr.Err != "" {
					t.Errorf("request %d: end record %+v, want index -1 alone", r, wr)
				}
				break
			}
			if wr.Err != "" {
				t.Fatalf("request %d: cell %d failed: %s", r, wr.Index, wr.Err)
			}
			rows[wr.Index] = wr.Row
		}
		for i := range cells {
			if rows[i] == nil {
				t.Fatalf("request %d: worker dropped cell %d", r, i)
			}
			if *rows[i] != want[i] {
				t.Errorf("request %d: cell %d: worker row %+v != in-process row %+v", r, i, *rows[i], want[i])
			}
		}
	}
	if dec.More() {
		t.Error("records after the second request's end record")
	}

	// A request cut short is an error, not a clean EOF.
	var cut bytes.Buffer
	if err := json.NewEncoder(&cut).Encode(req); err != nil {
		t.Fatal(err)
	}
	cut.Truncate(cut.Len() / 2)
	if err := RunWorker(context.Background(), &cut, io.Discard); err == nil {
		t.Error("RunWorker on a truncated request: want an error")
	}
}

// serialRequest is the worker request for cells at Jobs 1, shipping each
// distinct trace once.
func serialRequest(t *testing.T, cells []harness.SweepCell) workerRequest {
	t.Helper()
	hashOf := map[*tracerec.Trace]string{}
	req := workerRequest{Jobs: 1}
	for i, c := range cells {
		if _, ok := hashOf[c.Trace]; !ok {
			blob, err := tracerec.Encode(c.Trace)
			if err != nil {
				t.Fatal(err)
			}
			hashOf[c.Trace] = blobHash(blob)
			req.Traces = append(req.Traces, workerTrace{Hash: hashOf[c.Trace], Data: blob})
		}
		req.Cells = append(req.Cells, workerCell{
			Index: i, Label: c.Label, Trace: hashOf[c.Trace],
			Mode: harness.ModeSlug(c.Mode), Class: harness.ClassSlug(c.Class),
			Border: c.P.Border,
		})
	}
	return req
}

// writeCounter counts the writes made to it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestRunWorkerWritesEachRow: a worker writes each row as its cell
// finishes, and then the end record, rather than holding rows back until a
// buffer fills or the request ends — the orchestrator's progress events
// follow cells.
func TestRunWorkerWritesEachRow(t *testing.T) {
	req := serialRequest(t, tinyGrid(t)[:3])
	var in bytes.Buffer
	if err := json.NewEncoder(&in).Encode(req); err != nil {
		t.Fatal(err)
	}
	var out writeCounter
	if err := RunWorker(context.Background(), &in, &out); err != nil {
		t.Fatal(err)
	}
	if want := len(req.Cells) + 1; out.writes != want {
		t.Errorf("worker made %d writes for %d rows and the end record, want %d", out.writes, len(req.Cells), want)
	}
	if n := bytes.Count(out.Bytes(), []byte("\n")); n != len(req.Cells)+1 {
		t.Errorf("worker wrote %d records, want %d", n, len(req.Cells)+1)
	}
}

// TestWorkerExitingAfterReadFailsOnlyItsJob drives many fan-outs through one
// pool whose workers exit as soon as they have read their request
// (BC_SERVE_WORKER=read). Each fan-out must fail with an error naming its
// own, freshly started worker and the first cell it did not return: a dead
// worker is never handed to the next fan-out, and no fan-out hangs.
func TestWorkerExitingAfterReadFailsOnlyItsJob(t *testing.T) {
	cells := tinyGrid(t)
	jobs := 300
	if testing.Short() {
		jobs = 50
	}
	pool := newWorkerPool([]string{os.Args[0]}, workerEnv("read"), slog.New(discardHandler{}), 1)
	for i := 0; i < jobs; i++ {
		_, err := SweepFanout(context.Background(), cells, FanoutConfig{Workers: 1, pool: pool})
		want := fmt.Sprintf("worker %d (pid ", i+1)
		if err == nil || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), fmt.Sprintf("before returning cell %q", cells[0].Label)) {
			t.Fatalf("job %d: err = %v, want %q failing before cell %q", i, err, want, cells[0].Label)
		}
	}
	pool.close()
	if got := pool.spawned.Load(); got != uint64(jobs) {
		t.Errorf("spawned %d workers for %d jobs, want one each", got, jobs)
	}
	if got := pool.active.Load(); got != 0 {
		t.Errorf("%d workers still active after close", got)
	}
}

// TestRunWorkerCorruptTrace: a shipped blob whose bytes don't match its
// hash is refused outright — the worker fails closed rather than running
// a trace it can't authenticate.
func TestRunWorkerCorruptTrace(t *testing.T) {
	tr, err := traffic.Generate(traffic.Config{Shape: traffic.Bursty, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tracerec.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	h := blobHash(blob)
	blob[len(blob)-1] ^= 0x01
	req := workerRequest{
		Traces: []workerTrace{{Hash: h, Data: blob}},
		Cells:  []workerCell{{Index: 0, Label: "x", Trace: h, Mode: "bc-bcc", Class: "mod", Border: "flat"}},
	}
	var in, out bytes.Buffer
	if err := json.NewEncoder(&in).Encode(req); err != nil {
		t.Fatal(err)
	}
	err = RunWorker(context.Background(), &in, &out)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("RunWorker on corrupted trace: err = %v, want corrupt-ship refusal", err)
	}
}
