package stats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// TestBucketScheme checks the log-linear mapping: every value lands in a
// bucket whose bound is >= the value, bounds are boundaries of the scheme
// (round-tripping through bucketIndex is the identity), and indices are
// monotone in the value.
func TestBucketScheme(t *testing.T) {
	values := []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1025,
		1 << 20, 1<<40 + 12345, 1<<63 - 1, 1 << 63, ^uint64(0)}
	prevIdx := -1
	for _, v := range values {
		i := bucketIndex(v)
		if i < 0 || i >= HistBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if b := bucketBound(i); b < v {
			t.Errorf("bucketBound(bucketIndex(%d)) = %d < value", v, b)
		}
		if i < prevIdx {
			t.Errorf("bucketIndex not monotone at %d: %d after %d", v, i, prevIdx)
		}
		prevIdx = i
	}
	for i := 0; i < HistBuckets; i += 7 {
		if got := bucketIndex(bucketBound(i)); got != i {
			t.Errorf("bucketIndex(bucketBound(%d)) = %d", i, got)
		}
	}
}

// TestHistogramExact checks count/sum/min/max and the small-value exact
// buckets.
func TestHistogramExact(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{3, 3, 7, 0, 15} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Sum() != 28 || h.Min() != 0 || h.Max() != 15 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 5 {
		t.Errorf("mean = %d, want 5", h.Mean())
	}
	// Values below histSub are exact: the p50 sample is the 3rd of 5 (=3).
	if p := h.Percentile(50); p != 3 {
		t.Errorf("p50 = %d, want 3", p)
	}
	if p := h.Percentile(100); p != 15 {
		t.Errorf("p100 = %d, want 15", p)
	}
}

// TestPercentileIsPermille: over random histograms, Percentile(p) equals
// the percentile rank walk it used to run — the sample of rank
// ⌈count·p/100⌉, at least 1 — and Permille(10·p), on both the live
// histogram and its snapshot.
func TestPercentileIsPermille(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			h.Record(uint64(rng.Int63n(1 << uint(rng.Intn(40)+1))))
		}
		snap := h.Snapshot()
		for p := 0; p <= 100; p++ {
			var want uint64
			if n > 0 {
				rank := max((uint64(n)*uint64(p)+99)/100, 1)
				var cum uint64
				for _, b := range snap.Buckets {
					if cum += b.Count; cum >= rank {
						want = b.Bound
						break
					}
				}
			}
			if got := h.Percentile(p); got != want || got != h.Permille(10*p) {
				t.Fatalf("trial %d (n=%d): Percentile(%d) = %d, want %d (Permille(%d) = %d)",
					trial, n, p, got, want, 10*p, h.Permille(10*p))
			}
			if got := snap.Percentile(p); got != want {
				t.Fatalf("trial %d (n=%d): snapshot Percentile(%d) = %d, want %d", trial, n, p, got, want)
			}
		}
	}
}

// TestHistogramMergeOrderIndependent splits one sample stream into shards,
// merges them in different orders (both the in-place Histogram merge and
// the snapshot merge), and requires byte-identical JSON — the property the
// parallel sweep aggregation relies on.
func TestHistogramMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]*Histogram, 4)
	var whole Histogram
	for i := range shards {
		shards[i] = new(Histogram)
	}
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(60))
		shards[i%len(shards)].Record(v)
		whole.Record(v)
	}

	var fwd, rev Histogram
	for i := 0; i < len(shards); i++ {
		fwd.Merge(shards[i])
		rev.Merge(shards[len(shards)-1-i])
	}
	snapJSON := func(s HistSnapshot) []byte {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := snapJSON(whole.Snapshot())
	if got := snapJSON(fwd.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("forward merge differs from whole:\n%s\n%s", got, want)
	}
	if got := snapJSON(rev.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("reverse merge differs from whole:\n%s\n%s", got, want)
	}

	// Snapshot-level merge, both orders.
	a := shards[0].Snapshot().Merge(shards[1].Snapshot()).Merge(shards[2].Snapshot()).Merge(shards[3].Snapshot())
	b := shards[3].Snapshot().Merge(shards[2].Snapshot()).Merge(shards[1].Snapshot()).Merge(shards[0].Snapshot())
	if ga, gb := snapJSON(a), snapJSON(b); !bytes.Equal(ga, gb) {
		t.Errorf("snapshot merge is order-dependent:\n%s\n%s", ga, gb)
	}
	if got := snapJSON(a); !bytes.Equal(got, want) {
		t.Errorf("snapshot merge differs from whole:\n%s\n%s", got, want)
	}
}

// TestHistogramJSONRoundTrip marshals a snapshot, validates it against the
// schema checker, and restores it.
func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for i := uint64(1); i < 4000; i += 13 {
		h.Record(i * i)
	}
	snap := h.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateHistogramJSON(blob); err != nil {
		t.Fatalf("marshalled snapshot fails its own schema: %v\n%s", err, blob)
	}
	var back HistSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Errorf("round trip changed the encoding:\n%s\n%s", blob, blob2)
	}
}

// TestValidateHistogramJSONRejects checks the schema checker catches
// corrupted documents.
func TestValidateHistogramJSONRejects(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(2000)
	good, _ := json.Marshal(h.Snapshot())
	for name, corrupt := range map[string][]byte{
		"missing-key":   []byte(`{"count":1,"sum":1,"min":1,"max":1,"p50":1,"p90":1,"buckets":[[1,1]]}`),
		"bad-bound":     bytes.Replace(good, []byte(`"buckets":[[103`), []byte(`"buckets":[[102`), 1),
		"count-drift":   bytes.Replace(good, []byte(`"count":2`), []byte(`"count":3`), 1),
		"bad-p50":       bytes.Replace(good, []byte(`"p50":103`), []byte(`"p50":104`), 1),
		"nonempty-zero": []byte(`{"count":0,"sum":5,"min":0,"max":0,"p50":0,"p90":0,"p99":0,"buckets":[]}`),
	} {
		if bytes.Equal(corrupt, good) {
			t.Fatalf("%s: corruption did not apply to %s", name, good)
		}
		if err := ValidateHistogramJSON(corrupt); err == nil {
			t.Errorf("%s: validator accepted %s", name, corrupt)
		}
	}
	if err := ValidateHistogramJSON(good); err != nil {
		t.Fatalf("validator rejects a genuine snapshot: %v", err)
	}
}

// TestValidateSnapshotJSON checks the document-level checker over a real
// registry marshal containing both scalars and histograms.
func TestValidateSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	var h Histogram
	h.Record(42)
	s := reg.Scope("x")
	s.Counter("ops", &c)
	s.Histogram("lat", &h)
	blob, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	hists, err := ValidateSnapshotJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if hists != 1 {
		t.Errorf("validated %d histograms, want 1", hists)
	}
	if _, err := ValidateSnapshotJSON([]byte(`{"x":"nope"}`)); err == nil {
		t.Error("validator accepted a string-valued entry")
	}
}

// TestHistogramRecordNoAllocs pins the record path at zero allocations —
// the property that makes always-on recording safe in the hot path.
func TestHistogramRecordNoAllocs(t *testing.T) {
	var h Histogram
	v := uint64(123456)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*2654435761 + 1
	}); allocs != 0 {
		t.Errorf("Record allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkHistogramRecord measures the always-on record path; it must
// report 0 allocs/op.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	v := uint64(1)
	for i := 0; i < b.N; i++ {
		h.Record(v)
		v = v*2654435761 + 1
	}
}
