package traffic

import (
	"bytes"
	"context"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/tracerec"
)

// TestSameSeedWorkerIndependent: the generator's core determinism
// property. Equal (shape, seed) must produce byte-identical traces at any
// worker count, because every segment and wavefront derives its stream
// from its index alone; and a different seed must actually change the
// bytes (the streams are live, not constant).
func TestSameSeedWorkerIndependent(t *testing.T) {
	for _, shape := range Shapes() {
		var want []byte
		for _, workers := range []int{1, 3, 8} {
			tr, err := Generate(Config{Shape: shape, Seed: 42, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", shape, err)
			}
			blob, err := tracerec.Encode(tr)
			if err != nil {
				t.Fatalf("%s: %v", shape, err)
			}
			if want == nil {
				want = blob
			} else if !bytes.Equal(want, blob) {
				t.Errorf("%s: workers=%d changed the generated trace", shape, workers)
			}
		}
		other, err := Generate(Config{Shape: shape, Seed: 43})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		blob, err := tracerec.Encode(other)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if bytes.Equal(want, blob) {
			t.Errorf("%s: seed change did not change the trace", shape)
		}
	}
}

// TestBenignReferencesInsideGrants: every op a shape emits must fall
// entirely inside one of its segment's reserved mmap ranges. The only
// out-of-range references allowed are the explicitly flagged adversarial
// probes, and only the mix shape emits those.
func TestBenignReferencesInsideGrants(t *testing.T) {
	inGrant := func(ms []tracerec.Mmap, addr arch.Virt, size uint8) bool {
		for _, m := range ms {
			if addr >= m.Base && uint64(addr-m.Base)+uint64(size) <= m.Size {
				return true
			}
		}
		return false
	}
	for _, shape := range Shapes() {
		tr, err := Generate(Config{Shape: shape, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		for _, seg := range tr.Segments {
			for _, ph := range seg.Phases {
				for _, wf := range ph.Traces {
					for _, op := range wf {
						if op.Size == 0 || op.Size > 32 {
							t.Fatalf("%s/%s: op size %d out of range", shape, seg.Name, op.Size)
						}
						if !inGrant(seg.Mmaps, op.Addr, op.Size) {
							t.Fatalf("%s/%s: benign op at %#x size %d outside every grant",
								shape, seg.Name, op.Addr, op.Size)
						}
					}
				}
			}
			if shape != Mix && len(seg.Probes) > 0 {
				t.Errorf("%s/%s: unexpected adversarial probes", shape, seg.Name)
			}
			if shape == Mix && len(seg.Probes) == 0 {
				t.Errorf("%s/%s: mix segment carries no probes", shape, seg.Name)
			}
			for i, pr := range seg.Probes {
				if pr.Addr%arch.BlockSize != 0 {
					t.Errorf("%s/%s: probe %d not block-aligned", shape, seg.Name, i)
				}
				if i > 0 && seg.Probes[i-1].At > pr.At {
					t.Errorf("%s/%s: probes not time-sorted", shape, seg.Name)
				}
			}
		}
	}
}

// TestLayoutMatchesReplay: the layout arithmetic the generators use must
// agree with what hostos actually assigns at replay time —
// tracerec.BuildSegment validates every mmap base, so a full replay of
// each shape is the proof. Churn additionally asserts its headline
// property: the OS hands every short-lived segment a fresh ASID, never
// one that is (or ever was) live.
func TestLayoutMatchesReplay(t *testing.T) {
	for _, shape := range Shapes() {
		tr, err := Generate(Config{Shape: shape, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		res, err := harness.RunTraceCtx(context.Background(), harness.BCBCC, harness.ModeratelyThreaded, tr,
			harness.DefaultParams(), harness.RunOptions{})
		if err != nil {
			t.Fatalf("%s: replay: %v", shape, err)
		}
		if len(res.Segments) != len(tr.Segments) {
			t.Fatalf("%s: replayed %d of %d segments", shape, len(res.Segments), len(tr.Segments))
		}
		seen := make(map[arch.ASID]bool)
		for _, s := range res.Segments {
			if s.VerifyErr != nil {
				t.Errorf("%s/%s: verify: %v", shape, s.Name, s.VerifyErr)
			}
			if seen[s.ASID] {
				t.Errorf("%s/%s: ASID %d reused across segments", shape, s.Name, s.ASID)
			}
			seen[s.ASID] = true
		}
	}
}

func TestUnknownShape(t *testing.T) {
	if _, err := Generate(Config{Shape: "nope"}); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

// TestOpsMatchesGenerate: Ops predicts the op count of what Generate
// emits, at the shape defaults and at explicit sizes, and refuses an
// unknown shape like Generate does.
func TestOpsMatchesGenerate(t *testing.T) {
	for _, shape := range Shapes() {
		for _, cfg := range []Config{
			{Shape: shape, Seed: 3},
			{Shape: shape, Seed: 3, Segments: 3, Wavefronts: 5, Ops: 7},
		} {
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, err := Ops(cfg)
			if err != nil || n != tr.Ops() {
				t.Errorf("%+v: Ops = %d, %v; generated %d", cfg, n, err, tr.Ops())
			}
		}
	}
	if _, err := Ops(Config{Shape: "warp"}); err == nil {
		t.Error("Ops of an unknown shape: want error")
	}
}
