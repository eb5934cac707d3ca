// Package exp is the experiment-execution layer shared by every sweep in
// the repository: it runs lists of independent, named jobs on a bounded
// worker pool with deterministic, submission-order result collection.
//
// Each simulation in an evaluation sweep builds a fresh System and is a
// pure function of its inputs, so the experiment space is embarrassingly
// parallel. The runner exploits that while preserving the one property a
// serial sweep gives for free: because results land in submission order
// regardless of completion order, a parallel sweep's rendered artifact is
// byte-identical to the serial one.
//
// Jobs must be self-contained — everything a job touches is freshly built
// inside its closure or immutable. Cancellation is cooperative: a job
// receives a context and is expected to honor it (the simulator polls it
// between events via sim.Engine.Interrupt); the runner additionally
// refuses to start new jobs once the context is done.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one named unit of work. Run executes concurrently with other
// jobs, so it must not touch shared mutable state.
type Job struct {
	Name string
	Run  func(ctx context.Context) (any, error)
}

// Result is the outcome of one job. The runner collects results in
// submission order regardless of completion order.
type Result struct {
	// Index is the job's position in the submitted list.
	Index int
	Name  string
	// Value is what the job returned; nil when Err is non-nil.
	Value any
	Err   error
	// Elapsed is the host wall-clock time the job took (zero for jobs that
	// never started because the context was cancelled).
	Elapsed time.Duration
}

// PanicError reports a job whose closure panicked: the job fails instead
// of the panic killing the process and the rest of the sweep.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("exp: job panicked: %v", e.Value) }

// Runner executes job lists on a bounded worker pool. The zero Runner is
// ready to use: GOMAXPROCS workers, no per-job timeout.
type Runner struct {
	// Workers bounds how many jobs run concurrently. Zero or negative
	// means GOMAXPROCS; 1 executes the list serially.
	Workers int
	// Timeout, when positive, bounds each job's execution; a job that
	// honors its context fails with context.DeadlineExceeded when exceeded.
	Timeout time.Duration
	// OnDone, when non-nil, is called once per job as it finishes (or is
	// skipped), in completion order. Calls are serialized; the callback
	// must not block for long.
	OnDone func(Result)
}

// PoolSize returns how many workers the runner's pool has: Workers, or
// GOMAXPROCS when that is zero or negative. A job list shorter than the
// pool uses only as many.
func (r *Runner) PoolSize() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Run executes the jobs and returns one Result per job, in submission
// order. Cancelling ctx stops new jobs from starting; jobs that never
// started fail with ctx.Err(). Run itself never fails — inspect the
// results, or use FirstErr for the serial-equivalent first failure.
func (r *Runner) Run(ctx context.Context, jobs []Job) []Result {
	return r.run(ctx, jobs, nil)
}

// run is Run with an explicit start order: order is a permutation of the
// job indices, and the pool starts jobs in that sequence (nil means
// submission order). Only scheduling changes — the results, each
// Result.Index handed to OnDone, and therefore FirstErr stay in submission
// order.
func (r *Runner) run(ctx context.Context, jobs []Job, order []int) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if order == nil {
		order = make([]int, len(jobs))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(jobs) {
		panic(fmt.Sprintf("exp: start order has %d entries for %d jobs", len(order), len(jobs)))
	}
	results := make([]Result, len(jobs))
	workers := r.PoolSize()
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var mu sync.Mutex // serializes OnDone
	done := func(res Result) {
		results[res.Index] = res
		if cb := r.onDone(); cb != nil {
			mu.Lock()
			cb(res)
			mu.Unlock()
		}
	}

	idxc := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				done(r.runOne(ctx, i, jobs[i]))
			}
		}()
	}

feed:
	for k, i := range order {
		select {
		case idxc <- i:
		case <-ctx.Done():
			// Mark this job and every later one as never started. Workers
			// may still be finishing earlier jobs; they write other slots.
			for _, j := range order[k:] {
				done(Result{Index: j, Name: jobs[j].Name, Err: ctx.Err()})
			}
			break feed
		}
	}
	close(idxc)
	wg.Wait()
	return results
}

func (r *Runner) onDone() func(Result) {
	if r == nil {
		return nil
	}
	return r.OnDone
}

// runOne executes a single job with panic capture and the per-job timeout.
func (r *Runner) runOne(ctx context.Context, i int, j Job) (res Result) {
	res = Result{Index: i, Name: j.Name}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Value = nil
			res.Err = &PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	jctx := ctx
	if r != nil && r.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	if err := jctx.Err(); err != nil {
		res.Err = err
		return res
	}
	res.Value, res.Err = j.Run(jctx)
	if res.Err != nil {
		res.Value = nil
	}
	return res
}

// FirstErr returns the error of the first failed result in submission
// order — the same error a serial sweep stopping at its first failure
// would have surfaced — or nil when every job succeeded.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Map runs fn over items on the runner and returns the typed outputs in
// input order. It fails with the first error in input order (the
// serial-equivalent failure). name labels each job for progress reporting.
func Map[I, O any](ctx context.Context, r *Runner, items []I, name func(int, I) string, fn func(ctx context.Context, item I) (O, error)) ([]O, error) {
	return MapOrder(ctx, r, items, nil, name, fn)
}

// MapOrder is Map with an explicit start order: order is a permutation of
// the item indices and the pool starts items in that sequence. The
// outputs, the first error and the indices OnDone reports stay in input
// order.
func MapOrder[I, O any](ctx context.Context, r *Runner, items []I, order []int, name func(int, I) string, fn func(ctx context.Context, item I) (O, error)) ([]O, error) {
	jobs := make([]Job, len(items))
	for i := range items {
		i := i
		item := items[i]
		jobs[i] = Job{
			Name: name(i, item),
			Run:  func(ctx context.Context) (any, error) { return fn(ctx, item) },
		}
	}
	results := r.run(ctx, jobs, order)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]O, len(items))
	for i, res := range results {
		v, _ := res.Value.(O)
		out[i] = v
	}
	return out, nil
}
