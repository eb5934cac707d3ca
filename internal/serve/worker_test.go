package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
// of running tests. Fan-out tests point FanoutConfig.Argv at os.Args[0]
// with that variable set, so they exercise the real subprocess path
// without needing a built bctool on PATH.
//
// With BC_SERVE_WORKER=read it only reads its request and exits at once,
// the earliest a worker can leave.
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

func workerFanoutConfig(workers int) FanoutConfig {
	return FanoutConfig{
		Workers: workers,
		Argv:    []string{os.Args[0]},
		Env:     []string{"BC_SERVE_WORKER=1"},
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

// TestRunWorkerRoundTrip drives the worker protocol in-process: encode a
// request, run RunWorker, decode the NDJSON rows, and check they carry the
// same results RunCell produces directly.
func TestRunWorkerRoundTrip(t *testing.T) {
	cells := tinyGrid(t)
	hashOf := map[*tracerec.Trace]string{}
	var wts []workerTrace
	for _, c := range cells {
		if _, ok := hashOf[c.Trace]; ok {
			continue
		}
		blob, err := tracerec.Encode(c.Trace)
		if err != nil {
			t.Fatal(err)
		}
		h := blobHash(blob)
		hashOf[c.Trace] = h
		wts = append(wts, workerTrace{Hash: h, Data: blob})
	}
	req := workerRequest{Jobs: 1, Traces: wts}
	for i, c := range cells {
		req.Cells = append(req.Cells, workerCell{
			Index: i, Label: c.Label, Trace: hashOf[c.Trace],
			Mode: harness.ModeSlug(c.Mode), Class: harness.ClassSlug(c.Class),
			Border: c.P.Border,
		})
	}
	var in, out bytes.Buffer
	if err := json.NewEncoder(&in).Encode(req); err != nil {
		t.Fatal(err)
	}
	if err := RunWorker(context.Background(), &in, &out); err != nil {
		t.Fatal(err)
	}

	rows := make([]*harness.SweepRow, len(cells))
	dec := json.NewDecoder(&out)
	for dec.More() {
		var wr workerRow
		if err := dec.Decode(&wr); err != nil {
			t.Fatal(err)
		}
		if wr.Err != "" {
			t.Fatalf("cell %d failed: %s", wr.Index, wr.Err)
		}
		rows[wr.Index] = wr.Row
	}
	want, err := harness.RunSweepExec(context.Background(), harness.Exec{Jobs: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if rows[i] == nil {
			t.Fatalf("worker dropped cell %d", i)
		}
		if *rows[i] != want[i] {
			t.Errorf("cell %d: worker row %+v != in-process row %+v", i, *rows[i], want[i])
		}
	}
}

// TestRunWorkerProcFeederFinishesFirst drives many jobs through a worker
// that exits as soon as it has read its request. None may fail: cmd.Wait
// closes stdin, so calling it while the feeder goroutine may still be
// closing stdin fails the job with "feeding request: close |1: file
// already closed".
func TestRunWorkerProcFeederFinishesFirst(t *testing.T) {
	req := workerRequest{Jobs: 1, Traces: []workerTrace{{Hash: "pad", Data: make([]byte, 96<<10)}}}
	jobs := 300
	if testing.Short() {
		jobs = 50
	}
	noRows := func(wr workerRow) error { return fmt.Errorf("unexpected row %+v", wr) }
	for i := 0; i < jobs; i++ {
		err := runWorkerProc(context.Background(), []string{os.Args[0]}, []string{"BC_SERVE_WORKER=read"},
			os.Stderr, req, noRows)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
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
