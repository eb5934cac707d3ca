package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
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
// (BCNoBCC/BCBCC x SelectiveFlush) and all three border designs. Each
// recording goes through an Encode/Decode round trip first, so what is
// replayed is what a .bctrace file holds. This is what lets a figure or a
// sweep record once and fan its cells out over one recording.
func TestReplayMatchesLiveGolden(t *testing.T) {
	specs := workload.All()
	if testing.Short() {
		specs = specs[:2] // full matrix on the CI path; a taste under -short
	}
	replays := make(map[string]workload.Spec, len(specs))
	for _, spec := range specs {
		tr, err := tracerec.Record(spec, 1)
		if err != nil {
			t.Fatalf("record %s: %v", spec.Name, err)
		}
		blob, err := tracerec.Encode(tr)
		if err != nil {
			t.Fatalf("encode %s: %v", spec.Name, err)
		}
		if tr, err = tracerec.Decode(blob); err != nil {
			t.Fatalf("decode %s: %v", spec.Name, err)
		}
		if replays[spec.Name], err = tracerec.ReplaySpec(tr); err != nil {
			t.Fatalf("replay spec %s: %v", spec.Name, err)
		}
	}

	for _, spec := range specs {
		replay := replays[spec.Name]
		for _, mode := range []Mode{BCNoBCC, BCBCC} {
			for _, selective := range []bool{true, false} {
				for _, border := range []string{"flat", "sparta", "range"} {
					name := fmt.Sprintf("%s/%v/sf=%v/%s", spec.Name, mode, selective, border)
					t.Run(name, func(t *testing.T) {
						t.Parallel() // every cell is an independent simulation
						p := DefaultParams()
						p.SelectiveFlush = selective
						p.Border = border
						checkReplayMatchesLive(t, mode, ModeratelyThreaded, spec, replay, p)
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
					checkReplayMatchesLive(t, mode, class, spec, replay, DefaultParams())
				})
			}
		}
	}
}

// checkReplayMatchesLive runs one cell live and replayed from the
// workload's recording, and requires identical results.
func checkReplayMatchesLive(t *testing.T, mode Mode, class GPUClass, spec, replay workload.Spec, p Params) {
	t.Helper()
	live, err := RunCtx(context.Background(), mode, class, spec, p, RunOptions{})
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	rep, err := RunCtx(context.Background(), mode, class, replay, p, RunOptions{})
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

// TestReplayDecodeErrorTyped: a corrupt or truncated recording file must
// fail where recordings are read, ReadFile, with the codec's typed
// *FormatError naming the file — never a panic, never an untyped string,
// and never a trace to replay. This is the regression test for the replay
// layer's failure path.
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
		got, err := tracerec.ReadFile(path)
		if err == nil || got != nil {
			t.Fatalf("%s: reading a damaged trace gave (%v, %v), want only an error", name, got, err)
		}
		var fe *tracerec.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v does not wrap a *tracerec.FormatError", name, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %v does not name the file", name, err)
		}
	}
}
