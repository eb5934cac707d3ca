package main

import (
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bordercontrol/internal/harness"
)

// spin burns CPU in this package, so its samples bucket as "other".
func spin(d time.Duration) uint64 {
	var x uint64
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestCPUSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("decoded no samples from a 300 ms busy profile")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("a loop in this package got other share %v, want most samples", shares["other"])
	}
}

func TestCPUSharesRejectsTruncatedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = spin(50 * time.Millisecond)
	pprof.StopCPUProfile()
	if _, _, err := cpuShares(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestBucketOf(t *testing.T) {
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_fast64", "bordercontrol/internal/hostos.(*Process).access", "bordercontrol/internal/harness.RunCtx"}, "hostos"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "bordercontrol/internal/sim.(*Engine).Run"}, "runtime.gc"},
		{[]string{"bordercontrol/internal/exp.Map[...].func1"}, "exp"},
		{[]string{"bordercontrol/internal/prof.(*Profiler).Enter", "bordercontrol/internal/sim.(*Engine).Run"}, "other"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
	} {
		if got := bucketOf(tc.stack, known); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestTailLatencyPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{1, "max"}, {19, "max"}, {20, "p50"}, {70, "p75"}, {200, "p90"}, {2016, "p99"}, {10000, "p99.9"},
	} {
		if got, _ := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile for %d jobs is %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestFigure4BlocksFromResults(t *testing.T) {
	blob, err := os.ReadFile("../RESULTS.txt")
	if err != nil {
		t.Skip("RESULTS.txt not found:", err)
	}
	blocks, err := figure4Blocks(string(blob))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range fig4Classes {
		b := blocks[class]
		lines := strings.Split(strings.TrimSuffix(b, "\n"), "\n")
		if !strings.HasPrefix(lines[0], "Figure 4 (") || !strings.HasPrefix(lines[len(lines)-1], "geomean") {
			t.Errorf("%s block is not one rendered figure:\n%s", class, b)
		}
		if want := 2 + 7 + 1; len(lines) != want {
			t.Errorf("%s block has %d lines, want %d", class, len(lines), want)
		}
	}
	if blocks[harness.HighlyThreaded] == blocks[harness.ModeratelyThreaded] {
		t.Error("both classes parsed to the same block")
	}
}
