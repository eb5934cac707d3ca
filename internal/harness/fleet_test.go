package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"bordercontrol/internal/workload"
)

// fleetSpec returns a small fleet configuration used across the fleet
// tests: few tenants, churn on, fixed seed.
func fleetSpec(t *testing.T) (FleetParams, workload.Spec) {
	t.Helper()
	spec, ok := workload.ByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder not registered")
	}
	fp := DefaultFleetParams()
	fp.Tenants = 5
	return fp, spec
}

// TestFleetCompletes checks the basic fleet contract: every tenant
// launches via a host doorbell, runs, raises its completion interrupt, and
// verifies; the border traffic (2 crossings per tenant plus churn
// commands) is accounted.
func TestFleetCompletes(t *testing.T) {
	fp, spec := fleetSpec(t)
	res, err := RunFleetCtx(context.Background(), DefaultParams(), fp, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != fp.Tenants || res.Verified != fp.Tenants {
		t.Errorf("completed %d verified %d, want %d of each", res.Completed, res.Verified, fp.Tenants)
	}
	if min := uint64(2 * fp.Tenants); res.Messages < min {
		t.Errorf("Messages = %d, want >= %d (launch + completion per tenant)", res.Messages, min)
	}
	if res.Downgrades == 0 {
		t.Error("churn enabled but no downgrade landed")
	}
	if res.FirstDone == 0 || res.LastDone < res.FirstDone || res.SimTime < res.LastDone {
		t.Errorf("inconsistent times: first %d last %d sim %d", res.FirstDone, res.LastDone, res.SimTime)
	}
	if res.LastDone == res.FirstDone {
		t.Error("launch spread produced identical completion times for all tenants")
	}
	// The merged snapshot must aggregate tenant counters: fleet gpu.ops
	// equals the sum the scalar field reports.
	found := false
	for _, smp := range res.Stats.Samples {
		if smp.Name == "gpu.ops" {
			found = true
			if smp.Count != res.Ops {
				t.Errorf("merged gpu.ops = %d, want %d", smp.Count, res.Ops)
			}
		}
	}
	if !found {
		t.Error("merged snapshot missing gpu.ops")
	}
}

// TestFleetDeterministicAcrossWorkers is the tentpole acceptance check at
// the harness layer: one fleet, executed serially and on 2, 4 and 8
// worker goroutines, must produce bit-identical results — same simulated
// times, same event counts, same downgrade targeting, same merged stats,
// byte-identical rendered report. Host self-measurement is the one
// legitimately nondeterministic field and is cleared first.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	fp, spec := fleetSpec(t)
	var want FleetResult
	var wantText string
	for _, workers := range []int{1, 2, 4, 8} {
		fp.Workers = workers
		res, err := RunFleetCtx(context.Background(), DefaultParams(), fp, spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res.Host = HostStats{}
		text := res.Render()
		if workers == 1 {
			want, wantText = res, text
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("workers=%d result differs from serial:\nserial: %+v\ngot:    %+v", workers, want, res)
		}
		if text != wantText {
			t.Errorf("workers=%d render differs from serial:\n%s\nvs\n%s", workers, wantText, text)
		}
	}
}

// TestFleetSeedMatters checks the seed actually drives the scenario: a
// different seed must move launches, and with them completion times.
func TestFleetSeedMatters(t *testing.T) {
	fp, spec := fleetSpec(t)
	a, err := RunFleetCtx(context.Background(), DefaultParams(), fp, spec)
	if err != nil {
		t.Fatal(err)
	}
	fp.Seed = 99
	b, err := RunFleetCtx(context.Background(), DefaultParams(), fp, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.FirstDone == b.FirstDone && a.LastDone == b.LastDone {
		t.Error("changing the seed changed nothing")
	}
}

// TestFleetCancelled checks cooperative cancellation stops a sharded
// fleet promptly with a typed RunError, at several worker counts — the
// satellite interrupt fix must hold when shards run concurrently.
func TestFleetCancelled(t *testing.T) {
	fp, spec := fleetSpec(t)
	for _, workers := range []int{1, 4} {
		fp.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: every shard stops at its first poll
		_, err := RunFleetCtx(ctx, DefaultParams(), fp, spec)
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("workers=%d: error = %T %v, want *RunError", workers, err, err)
		}
		if re.Stage != "interrupted" {
			t.Errorf("workers=%d: stage = %q, want interrupted", workers, re.Stage)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error %v does not unwrap to context.Canceled", workers, err)
		}
	}
}

// TestFleetValidate checks parameter rejection.
func TestFleetValidate(t *testing.T) {
	_, spec := fleetSpec(t)
	bad := DefaultFleetParams()
	bad.Tenants = 0
	if _, err := RunFleetCtx(context.Background(), DefaultParams(), bad, spec); err == nil {
		t.Error("Tenants=0 accepted")
	}
	bad = DefaultFleetParams()
	bad.Lookahead = 0
	if _, err := RunFleetCtx(context.Background(), DefaultParams(), bad, spec); err == nil {
		t.Error("Lookahead=0 accepted")
	}
}
