package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/workload"
)

// TestReplayMatchesLiveGolden is the replay-equivalence guarantee: for
// every workload, recording its reference trace once and replaying it
// through the full border/ATS/cache path produces artifacts byte-identical
// to running the generator live — same simulated runtime, same event
// count, same full stats snapshot — in all five modes on both GPU classes
// (every cell the figures replay), and across all four protocol variants
// (BCNoBCC/BCBCC x SelectiveFlush) and all three border designs. This is
// what lets a figure or a sweep record once and fan its cells out over one
// recording.
func TestReplayMatchesLiveGolden(t *testing.T) {
	specs := workload.All()
	if testing.Short() {
		specs = specs[:2] // full matrix on the CI path; a taste under -short
	}
	dir := t.TempDir()
	for _, spec := range specs {
		tr, err := tracerec.Record(spec, 1)
		if err != nil {
			t.Fatalf("record %s: %v", spec.Name, err)
		}
		if err := tracerec.WriteFile(tracerec.Resolve(dir, spec.Name), tr); err != nil {
			t.Fatalf("write %s: %v", spec.Name, err)
		}
	}

	for _, spec := range specs {
		for _, mode := range []Mode{BCNoBCC, BCBCC} {
			for _, selective := range []bool{true, false} {
				for _, border := range []string{"flat", "sparta", "range"} {
					name := fmt.Sprintf("%s/%v/sf=%v/%s", spec.Name, mode, selective, border)
					t.Run(name, func(t *testing.T) {
						t.Parallel() // every cell is an independent simulation
						p := DefaultParams()
						p.SelectiveFlush = selective
						p.Border = border
						checkReplayMatchesLive(t, mode, ModeratelyThreaded, spec, p, dir)
					})
				}
			}
		}
		for _, class := range []GPUClass{HighlyThreaded, ModeratelyThreaded} {
			for _, mode := range Modes() {
				if (mode == BCNoBCC || mode == BCBCC) && class == ModeratelyThreaded {
					continue // the protocol variants above cover these cells
				}
				t.Run(fmt.Sprintf("%s/%v/%v", spec.Name, mode, class), func(t *testing.T) {
					t.Parallel()
					checkReplayMatchesLive(t, mode, class, spec, DefaultParams(), dir)
				})
			}
		}
	}
}

// checkReplayMatchesLive runs one cell live and replayed from the
// recordings in dir, and requires identical results.
func checkReplayMatchesLive(t *testing.T, mode Mode, class GPUClass, spec workload.Spec, p Params, dir string) {
	t.Helper()
	live, err := Run(mode, class, spec, p, RunOptions{})
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	rp := p
	rp.Trace = dir
	rep, err := Run(mode, class, spec, rp, RunOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if live.VerifyErr != nil || rep.VerifyErr != nil {
		t.Fatalf("verify: live=%v replay=%v", live.VerifyErr, rep.VerifyErr)
	}
	if live.Runtime != rep.Runtime {
		t.Errorf("sim_ps: live %d, replay %d", live.Runtime, rep.Runtime)
	}
	if live.Host.Events != rep.Host.Events {
		t.Errorf("events: live %d, replay %d", live.Host.Events, rep.Host.Events)
	}
	if live.Ops != rep.Ops || live.BCChecks != rep.BCChecks ||
		live.BCCMissRatio != rep.BCCMissRatio {
		t.Errorf("counters diverged: live ops=%d checks=%d miss=%g, replay ops=%d checks=%d miss=%g",
			live.Ops, live.BCChecks, live.BCCMissRatio,
			rep.Ops, rep.BCChecks, rep.BCCMissRatio)
	}
	lj, err := json.Marshal(live.Stats)
	if err != nil {
		t.Fatal(err)
	}
	rj, err := json.Marshal(rep.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lj, rj) {
		t.Errorf("stats snapshots differ:\n live  %s\n replay %s", lj, rj)
	}
}

// TestReplayDecodeErrorTyped: a corrupt or truncated recording must
// surface from Run as a typed *RunError in the build stage wrapping the
// codec's *FormatError — never a panic, never an untyped string. This is
// the regression test for the replay-layer failure path.
func TestReplayDecodeErrorTyped(t *testing.T) {
	spec, _ := workload.ByName("pathfinder")
	tr, err := tracerec.Record(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tracerec.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := map[string][]byte{
		"corrupt": func() []byte {
			b := bytes.Clone(blob)
			b[len(b)/2] ^= 0x20
			return b
		}(),
		"truncated": blob[:len(blob)/3],
	}
	for name, b := range cases {
		path := dir + "/" + name + tracerec.Ext
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.Trace = path
		_, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
		if err == nil {
			t.Fatalf("%s: replay of a damaged trace succeeded", name)
		}
		var re *RunError
		if !errors.As(err, &re) || re.Stage != "build" {
			t.Fatalf("%s: error %v is not a build-stage *RunError", name, err)
		}
		var fe *tracerec.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v does not wrap a *tracerec.FormatError", name, err)
		}
	}
}
