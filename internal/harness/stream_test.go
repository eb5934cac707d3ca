package harness

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/exp"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/workload"
)

// TestPlanStreamsGroupsByStream: runs share a stream exactly when they
// share a workload name and Params.Scale; at one worker the start order
// groups each stream's runs in caller order, streams by first appearance.
// With more workers each stream's recording run starts workers-1 streams
// ahead, and with more workers than streams every recording run starts
// first.
func TestPlanStreamsGroupsByStream(t *testing.T) {
	a, _ := workload.ByName("hotspot")
	b, _ := workload.ByName("nn")
	p := DefaultParams()
	scaled := p
	scaled.Scale = 2
	list := []runSpec{
		{Label: "a/base", Mode: ATSOnly, Spec: a},
		{Label: "b/base", Mode: ATSOnly, Spec: b},
		{Label: "a/bcc", Mode: BCBCC, Spec: a},
		{Label: "b/bcc", Mode: BCBCC, Spec: b},
		{Label: "a/x2", Mode: BCBCC, Spec: a, P: &scaled},
	}
	for workers, want := range map[int][]int{
		1: {0, 2, 1, 3, 4},
		2: {0, 1, 2, 4, 3},
		3: {0, 1, 4, 2, 3},
		8: {0, 1, 4, 2, 3},
	} {
		if _, order := planStreams(p, list, workers); !reflect.DeepEqual(order, want) {
			t.Errorf("%d workers: start order %v, want %v", workers, order, want)
		}
	}
	cells, _ := planStreams(p, list, 1)
	if cells[0].st == nil || cells[0].st != cells[2].st || cells[1].st != cells[3].st {
		t.Error("runs of one stream do not share it")
	}
	if cells[0].st == cells[1].st || cells[4].st == nil || cells[4].st == cells[0].st {
		t.Error("different workloads or scales share a stream")
	}
	for i, want := range map[int]int64{0: 2, 1: 2, 4: 1} {
		if got := cells[i].st.left.Load(); got != want {
			t.Errorf("stream of %s counts %d runs, want %d", list[i].Label, got, want)
		}
	}
}

// TestPlanStreamsLeadsRecordings: Figure 4's shape, seven streams of five
// runs each. At two workers every stream's recording run starts before the
// other runs of the stream ahead of it: r0, r1, s0, r2, s1, ..., r6, s5, s6.
func TestPlanStreamsLeadsRecordings(t *testing.T) {
	var list []runSpec
	for _, mode := range Modes() {
		for _, spec := range workload.All() {
			list = append(list, runSpec{Label: spec.Name + "/" + shortMode(mode), Mode: mode, Spec: spec})
		}
	}
	const streams, runs = 7, 5
	if len(list) != streams*runs {
		t.Fatalf("%d runs, want %d", len(list), streams*runs)
	}
	run := func(s, k int) int { return k*streams + s } // run k of stream s
	var want []int
	want = append(want, run(0, 0), run(1, 0))
	for s := 0; s < streams; s++ {
		for k := 1; k < runs; k++ {
			want = append(want, run(s, k))
		}
		if s+2 < streams {
			want = append(want, run(s+2, 0))
		}
	}
	_, order := planStreams(DefaultParams(), list, 2)
	if !reflect.DeepEqual(order, want) {
		t.Errorf("start order\n%v, want\n%v", order, want)
	}
}

// TestRunAllStreamsMatchLive: a job list that interleaves two streams,
// several runs each, executes concurrently (run it under -race) and every
// result equals a live run of the same cell, in the caller's slot. Progress
// reports each caller index exactly once, under its own label.
func TestRunAllStreamsMatchLive(t *testing.T) {
	p := DefaultParams()
	var list []runSpec
	for _, mode := range []Mode{ATSOnly, BCBCC, CAPILike} {
		for _, name := range []string{"hotspot", "nn"} {
			spec, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			list = append(list, runSpec{
				Label: "streams/" + name + "/" + shortMode(mode),
				Mode:  mode, Class: ModeratelyThreaded, Spec: spec,
			})
		}
	}
	var mu sync.Mutex
	seen := map[int]string{}
	ex := Exec{Jobs: 4, Progress: func(r exp.Result) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[r.Index]; dup {
			t.Errorf("progress reported index %d twice", r.Index)
		}
		seen[r.Index] = r.Name
	}}
	got, err := runAll(context.Background(), ex, p, list)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range list {
		if seen[i] != s.Label {
			t.Errorf("progress index %d labelled %q, want %q", i, seen[i], s.Label)
		}
		live, err := RunCtx(context.Background(), s.Mode, s.Class, s.Spec, p, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if live.VerifyErr != nil || got[i].VerifyErr != nil {
			t.Fatalf("%s: verify: live=%v replayed=%v", s.Label, live.VerifyErr, got[i].VerifyErr)
		}
		live.Host, got[i].Host = HostStats{}, HostStats{}
		if !reflect.DeepEqual(live, got[i]) {
			t.Errorf("%s: replayed run differs from live:\nlive:     %+v\nreplayed: %+v", s.Label, live, got[i])
		}
	}
}

// TestRecordFailureFailsCell: a job list holding a workload whose own
// output check fails cannot record it, and fails with a build-stage
// *RunError naming the first such cell in caller order — workload, mode
// and class. A fleet of that workload fails the same way.
func TestRecordFailureFailsCell(t *testing.T) {
	good, ok := workload.ByName("hotspot")
	if !ok {
		t.Fatal("hotspot not registered")
	}
	wrong := errors.New("outputs rejected")
	bad := good
	bad.Name = "hotspot-wrong"
	bad.Build = func(p *hostos.Process, scale int) (*accel.Program, error) {
		prog, err := good.Build(p, scale)
		if err != nil {
			return nil, err
		}
		prog.Verify = func(*hostos.Process) error { return wrong }
		return prog, nil
	}
	list := []runSpec{
		{Label: "fig/hotspot/base", Mode: ATSOnly, Class: HighlyThreaded, Spec: good},
		{Label: "fig/bad/bcc", Mode: BCBCC, Class: HighlyThreaded, Spec: bad},
		{Label: "fig/bad/base", Mode: ATSOnly, Class: HighlyThreaded, Spec: bad},
	}
	_, err := runAll(context.Background(), Exec{Jobs: 2}, DefaultParams(), list)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error = %T %v, want *RunError", err, err)
	}
	if re.Workload != bad.Name || re.Mode != BCBCC || re.Class != HighlyThreaded || re.Stage != "build" {
		t.Errorf("RunError = %+v, want build stage of %s on %v (%v)", re, bad.Name, BCBCC, HighlyThreaded)
	}
	if !errors.Is(err, wrong) {
		t.Errorf("error %v does not wrap the generator's check failure", err)
	}

	fp := DefaultFleetParams()
	fp.Tenants = 2
	_, err = RunFleetCtx(context.Background(), DefaultParams(), fp, bad)
	if !errors.As(err, &re) || re.Workload != "fleet/"+bad.Name || re.Stage != "build" || !errors.Is(err, wrong) {
		t.Errorf("fleet error = %v, want a build-stage *RunError for fleet/%s", err, bad.Name)
	}
}
