package exp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestResultOrdering submits jobs that finish in scrambled order and
// checks results land in submission order with the right values.
func TestResultOrdering(t *testing.T) {
	const n = 32
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%d", i),
			Run: func(ctx context.Context) (any, error) {
				// Later jobs sleep less, so completion order inverts
				// submission order under parallelism.
				time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
				return i * i, nil
			},
		}
	}
	r := &Runner{Workers: 8}
	results := r.Run(context.Background(), jobs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Index != i || res.Name != fmt.Sprintf("job-%d", i) {
			t.Errorf("slot %d holds job %d (%s)", i, res.Index, res.Name)
		}
		if res.Err != nil {
			t.Errorf("job %d failed: %v", i, res.Err)
		}
		if v, ok := res.Value.(int); !ok || v != i*i {
			t.Errorf("job %d value = %v, want %d", i, res.Value, i*i)
		}
		if i > 0 && res.Elapsed <= 0 {
			t.Errorf("job %d has no elapsed time", i)
		}
	}
	if err := FirstErr(results); err != nil {
		t.Errorf("FirstErr = %v, want nil", err)
	}
}

// TestSerialMatchesParallel checks Workers=1 and Workers=8 produce
// identical result slices for deterministic jobs.
func TestSerialMatchesParallel(t *testing.T) {
	build := func() []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			i := i
			jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) {
				if i%5 == 4 {
					return nil, fmt.Errorf("planned failure %d", i)
				}
				return i * 3, nil
			}}
		}
		return jobs
	}
	serial := (&Runner{Workers: 1}).Run(context.Background(), build())
	parallel := (&Runner{Workers: 8}).Run(context.Background(), build())
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Index != p.Index || s.Name != p.Name || s.Value != p.Value ||
			(s.Err == nil) != (p.Err == nil) {
			t.Errorf("slot %d: serial %+v != parallel %+v", i, s, p)
		}
	}
	if err := FirstErr(serial); err == nil || err.Error() != "planned failure 4" {
		t.Errorf("FirstErr = %v, want planned failure 4", err)
	}
}

// TestCancellation cancels mid-run: started jobs finish (or honor ctx),
// unstarted jobs fail with ctx.Err() without running.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	release := make(chan struct{})
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) {
			ran.Add(1)
			<-release
			return "done", nil
		}}
	}
	r := &Runner{Workers: 2}
	go func() {
		// Wait for both workers to pick up a job, then cancel and unblock.
		for ran.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	results := r.Run(ctx, jobs)
	var ok, cancelled int
	for _, res := range results {
		switch {
		case res.Err == nil:
			ok++
		case errors.Is(res.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("job %s: unexpected error %v", res.Name, res.Err)
		}
	}
	if ok == 0 || cancelled == 0 || ok+cancelled != len(jobs) {
		t.Errorf("ok=%d cancelled=%d, want both nonzero summing to %d", ok, cancelled, len(jobs))
	}
	if int(ran.Load()) != ok {
		t.Errorf("%d jobs ran but %d succeeded", ran.Load(), ok)
	}
}

// TestTimeout checks a context-honoring job fails with DeadlineExceeded
// when it exceeds the per-job timeout, without affecting fast jobs.
func TestTimeout(t *testing.T) {
	jobs := []Job{
		{Name: "fast", Run: func(ctx context.Context) (any, error) { return 1, nil }},
		{Name: "slow", Run: func(ctx context.Context) (any, error) {
			<-ctx.Done() // a cooperative job: the sim polls ctx between events
			return nil, ctx.Err()
		}},
	}
	r := &Runner{Workers: 2, Timeout: 20 * time.Millisecond}
	results := r.Run(context.Background(), jobs)
	if results[0].Err != nil {
		t.Errorf("fast job failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.DeadlineExceeded) {
		t.Errorf("slow job error = %v, want DeadlineExceeded", results[1].Err)
	}
}

// TestPanicCapture checks a panicking job fails its own slot and the rest
// of the sweep completes.
func TestPanicCapture(t *testing.T) {
	jobs := []Job{
		{Name: "ok", Run: func(ctx context.Context) (any, error) { return "fine", nil }},
		{Name: "boom", Run: func(ctx context.Context) (any, error) { panic("simulated crash") }},
		{Name: "after", Run: func(ctx context.Context) (any, error) { return "also fine", nil }},
	}
	results := (&Runner{Workers: 2}).Run(context.Background(), jobs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("boom error = %T %v, want *PanicError", results[1].Err, results[1].Err)
	}
	if pe.Value != "simulated crash" || pe.Stack == "" {
		t.Errorf("panic detail lost: value=%v stack-len=%d", pe.Value, len(pe.Stack))
	}
}

// TestOnDoneSerialized checks the progress callback sees every job exactly
// once and is never called concurrently.
func TestOnDoneSerialized(t *testing.T) {
	const n = 24
	var inCb atomic.Int32
	seen := make(map[int]bool)
	r := &Runner{Workers: 8, OnDone: func(res Result) {
		if inCb.Add(1) != 1 {
			t.Error("OnDone called concurrently")
		}
		seen[res.Index] = true
		inCb.Add(-1)
	}}
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) { return i, nil }}
	}
	r.Run(context.Background(), jobs)
	if len(seen) != n {
		t.Errorf("OnDone saw %d jobs, want %d", len(seen), n)
	}
}

// TestMap checks the typed wrapper preserves input order and surfaces the
// first error in input order.
func TestMap(t *testing.T) {
	items := []int{5, 3, 8, 1}
	out, err := Map(context.Background(), &Runner{Workers: 4}, items,
		func(i int, v int) string { return fmt.Sprintf("sq-%d", v) },
		func(ctx context.Context, v int) (int, error) { return v * v, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range items {
		if out[i] != v*v {
			t.Errorf("out[%d] = %d, want %d", i, out[i], v*v)
		}
	}

	_, err = Map(context.Background(), &Runner{Workers: 4}, items,
		func(i int, v int) string { return "x" },
		func(ctx context.Context, v int) (int, error) {
			if v < 4 {
				return 0, fmt.Errorf("reject %d", v)
			}
			return v, nil
		})
	// Input order is 5,3,8,1: the first error in input order is for 3.
	if err == nil || err.Error() != "reject 3" {
		t.Errorf("Map error = %v, want reject 3", err)
	}
}

// TestRunOrder: jobs start in the given order, while the results, the
// indices OnDone reports and FirstErr stay in submission order; a
// cancellation marks every job after the cancelling one in start order as
// never started.
func TestRunOrder(t *testing.T) {
	order := []int{3, 0, 5, 1, 4, 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started, reported []int
	jobs := make([]Job, len(order))
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (any, error) {
			started = append(started, i)
			switch i {
			case 1, 3:
				return nil, fmt.Errorf("planned failure %d", i)
			case 4:
				cancel()
			}
			return i * 10, nil
		}}
	}
	// One worker: start order is execution order.
	r := &Runner{Workers: 1, OnDone: func(res Result) { reported = append(reported, res.Index) }}
	results := r.run(ctx, jobs, order)

	if want := order[:5]; fmt.Sprint(started) != fmt.Sprint(want) {
		t.Errorf("started %v, want %v", started, want)
	}
	if fmt.Sprint(reported[:5]) != fmt.Sprint(order[:5]) || len(reported) != len(order) {
		t.Errorf("OnDone reported indices %v, want %v then the cancelled job", reported, order[:5])
	}
	for i, res := range results {
		if res.Index != i || res.Name != fmt.Sprintf("j%d", i) {
			t.Errorf("slot %d holds job %d (%s)", i, res.Index, res.Name)
		}
	}
	if !errors.Is(results[2].Err, context.Canceled) {
		t.Errorf("job 2 (started after the cancel) error = %v, want context.Canceled", results[2].Err)
	}
	if v, _ := results[5].Value.(int); v != 50 {
		t.Errorf("job 5 value = %v, want 50", results[5].Value)
	}
	// Job 3 failed first in time; job 1 is first in submission order.
	if err := FirstErr(results); err == nil || err.Error() != "planned failure 1" {
		t.Errorf("FirstErr = %v, want planned failure 1", err)
	}

	out, err := MapOrder(context.Background(), &Runner{Workers: 4}, []int{5, 3, 8, 1}, []int{2, 0, 3, 1},
		func(_ int, v int) string { return fmt.Sprint(v) },
		func(_ context.Context, v int) (int, error) { return v * v, nil })
	if err != nil || fmt.Sprint(out) != "[25 9 64 1]" {
		t.Errorf("MapOrder = %v, %v; want [25 9 64 1] in input order", out, err)
	}
}

// TestZeroRunner checks the zero Runner works with GOMAXPROCS workers.
func TestZeroRunner(t *testing.T) {
	var r Runner
	results := r.Run(context.Background(), []Job{
		{Name: "only", Run: func(ctx context.Context) (any, error) { return 42, nil }},
	})
	if results[0].Err != nil || results[0].Value != 42 {
		t.Errorf("zero runner: %+v", results[0])
	}
}
