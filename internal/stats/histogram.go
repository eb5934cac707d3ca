package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
)

// This file holds the fixed-bucket log-linear histogram the simulator uses
// for latency distributions. The bucket scheme is HDR-style: values below
// histSub land in exact unit buckets; above that, each power-of-two octave
// is split into histSub linear sub-buckets, so the relative bucket width is
// bounded by 1/histSub (~6%) across the whole uint64 range. The bucket
// array is a flat fixed-size array — the zero Histogram is ready to use,
// recording allocates nothing, and two histograms fed the same values are
// bit-identical, which is what makes always-on recording safe in a
// deterministic simulator.

const (
	// histSubBits is the number of linear sub-bucket bits per octave.
	histSubBits = 4
	// histSub is the number of linear sub-buckets per octave (and the
	// boundary below which values are counted exactly).
	histSub = 1 << histSubBits
	// HistBuckets is the total bucket count covering all of uint64.
	HistBuckets = histSub + (64-histSubBits)*histSub
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	m := bits.Len64(v) - 1 // histSubBits..63
	sub := int((v >> uint(m-histSubBits)) & (histSub - 1))
	return histSub + (m-histSubBits)*histSub + sub
}

// bucketBound returns the inclusive upper bound of bucket i's value range.
func bucketBound(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	i -= histSub
	m := uint(i/histSub + histSubBits)
	sub := uint64(i % histSub)
	width := uint64(1) << (m - histSubBits)
	return uint64(1)<<m + sub*width + width - 1
}

// Histogram is a fixed-bucket log-linear distribution of uint64 samples
// (simulated-time latencies in picoseconds, queue depths, ...). The zero
// value is ready to use; Record allocates nothing and is safe to leave on
// in the simulation hot path. Histogram is not safe for concurrent use —
// like every stats structure here it is owned by one run's System.
type Histogram struct {
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
	counts [HistBuckets]uint64
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketIndex(v)]++
}

// Count returns how many samples were recorded.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the integer mean sample (0 when empty).
func (h *Histogram) Mean() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Percentile returns the upper bound of the bucket holding the p-th
// percentile sample (integer p in [0,100]): Permille(10*p) exactly, since
// both ranks are ⌈count·p/100⌉. Returns 0 when empty.
func (h *Histogram) Percentile(p int) uint64 { return h.Permille(10 * p) }

// Permille returns the upper bound of the bucket holding the p-th permille
// sample (integer p in [0,1000]; rank is computed with integer ceiling
// arithmetic, so the result is exact with respect to the bucket counts and
// identical on every platform). Returns 0 when empty.
func (h *Histogram) Permille(p int) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := (h.count*uint64(p) + 999) / 1000
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketBound(i)
		}
	}
	return h.max
}

// Merge adds other's samples into h. Buckets are identical by construction,
// so merging is a plain element-wise sum and therefore order-independent.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Snapshot captures the histogram as a sparse, immutable value.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, HistBucket{Bound: bucketBound(i), Count: c})
		}
	}
	return s
}

// HistBucket is one non-empty bucket of a histogram snapshot: the inclusive
// upper bound of the bucket's value range and how many samples fell in it.
type HistBucket struct {
	Bound uint64
	Count uint64
}

// HistSnapshot is the immutable capture of a Histogram: sparse non-empty
// buckets in ascending bound order plus the exact count/sum/min/max.
// Percentiles are recomputed from the buckets on demand, so snapshots merge
// without losing quantile fidelity.
type HistSnapshot struct {
	Count uint64
	Sum   uint64
	Min   uint64
	Max   uint64
	// Buckets lists the non-empty buckets in ascending Bound order.
	Buckets []HistBucket
}

// Mean returns the integer mean sample (0 when empty).
func (s HistSnapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Percentile mirrors Histogram.Percentile on the sparse bucket list.
func (s HistSnapshot) Percentile(p int) uint64 { return s.Permille(10 * p) }

// Permille mirrors Histogram.Permille on the sparse bucket list.
func (s HistSnapshot) Permille(p int) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := (s.Count*uint64(p) + 999) / 1000
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.Bound
		}
	}
	return s.Max
}

// Merge returns the combination of s and other: bucket counts sum (matched
// by bound — both sides come from the same fixed scheme), count/sum add,
// min/max extend. Addition commutes, so merging is order-independent.
func (s HistSnapshot) Merge(other HistSnapshot) HistSnapshot {
	if other.Count == 0 {
		return s
	}
	if s.Count == 0 {
		return other
	}
	out := HistSnapshot{
		Count: s.Count + other.Count,
		Sum:   s.Sum + other.Sum,
		Min:   s.Min,
		Max:   s.Max,
	}
	if other.Min < out.Min {
		out.Min = other.Min
	}
	if other.Max > out.Max {
		out.Max = other.Max
	}
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Bound < other.Buckets[j].Bound):
			out.Buckets = append(out.Buckets, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].Bound < s.Buckets[i].Bound:
			out.Buckets = append(out.Buckets, other.Buckets[j])
			j++
		default:
			out.Buckets = append(out.Buckets, HistBucket{
				Bound: s.Buckets[i].Bound,
				Count: s.Buckets[i].Count + other.Buckets[j].Count,
			})
			i++
			j++
		}
	}
	return out
}

// appendJSON renders the snapshot as a deterministic JSON object: fixed key
// order, integer values, buckets as [bound,count] pairs in ascending bound
// order. p50/p90/p99 are derived from the buckets at render time.
func (s HistSnapshot) appendJSON(b *bytes.Buffer) {
	b.WriteString(`{"count":`)
	b.WriteString(strconv.FormatUint(s.Count, 10))
	b.WriteString(`,"sum":`)
	b.WriteString(strconv.FormatUint(s.Sum, 10))
	b.WriteString(`,"min":`)
	b.WriteString(strconv.FormatUint(s.Min, 10))
	b.WriteString(`,"max":`)
	b.WriteString(strconv.FormatUint(s.Max, 10))
	b.WriteString(`,"p50":`)
	b.WriteString(strconv.FormatUint(s.Percentile(50), 10))
	b.WriteString(`,"p90":`)
	b.WriteString(strconv.FormatUint(s.Percentile(90), 10))
	b.WriteString(`,"p99":`)
	b.WriteString(strconv.FormatUint(s.Percentile(99), 10))
	b.WriteString(`,"buckets":[`)
	for i, bk := range s.Buckets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		b.WriteString(strconv.FormatUint(bk.Bound, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(bk.Count, 10))
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
}

// MarshalJSON renders the snapshot deterministically (see appendJSON).
func (s HistSnapshot) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	s.appendJSON(&b)
	return b.Bytes(), nil
}

// histJSON is the wire form of a histogram snapshot, shared by
// UnmarshalJSON and ValidateHistogramJSON.
type histJSON struct {
	Count   uint64      `json:"count"`
	Sum     uint64      `json:"sum"`
	Min     uint64      `json:"min"`
	Max     uint64      `json:"max"`
	P50     uint64      `json:"p50"`
	P90     uint64      `json:"p90"`
	P99     uint64      `json:"p99"`
	Buckets [][2]uint64 `json:"buckets"`
}

func (j histJSON) snapshot() HistSnapshot {
	s := HistSnapshot{Count: j.Count, Sum: j.Sum, Min: j.Min, Max: j.Max}
	for _, b := range j.Buckets {
		s.Buckets = append(s.Buckets, HistBucket{Bound: b[0], Count: b[1]})
	}
	return s
}

// UnmarshalJSON restores a snapshot from the MarshalJSON form. The stored
// percentiles are ignored — they are derived values, recomputed from the
// buckets.
func (s *HistSnapshot) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = j.snapshot()
	return nil
}

// ValidateHistogramJSON checks that raw is a well-formed histogram
// snapshot: every required key present, bucket bounds are genuine bucket
// boundaries of the fixed scheme in strictly ascending order with non-zero
// counts summing to count, min/max bracket the buckets, and the stored
// percentiles match recomputation. It is the schema check behind
// `bctool tracecheck -stats`.
// ValidateSnapshotJSON checks a marshalled Snapshot document: a flat JSON
// object whose object-valued entries must each pass ValidateHistogramJSON
// and whose remaining entries must be plain numbers. It returns how many
// histograms it validated, so callers can require at least one.
func ValidateSnapshotJSON(blob []byte) (int, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		return 0, err
	}
	names := make([]string, 0, len(doc))
	for k := range doc {
		names = append(names, k)
	}
	sort.Strings(names)
	hists := 0
	for _, k := range names {
		raw := bytes.TrimSpace(doc[k])
		if len(raw) > 0 && raw[0] == '{' {
			if err := ValidateHistogramJSON(raw); err != nil {
				return hists, fmt.Errorf("%s: %w", k, err)
			}
			hists++
			continue
		}
		if _, err := strconv.ParseFloat(string(raw), 64); err != nil {
			return hists, fmt.Errorf("%s: neither a number nor a histogram object", k)
		}
	}
	return hists, nil
}

func ValidateHistogramJSON(raw []byte) error {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return err
	}
	for _, k := range []string{"count", "sum", "min", "max", "p50", "p90", "p99", "buckets"} {
		if _, ok := keys[k]; !ok {
			return fmt.Errorf("missing key %q", k)
		}
	}
	var j histJSON
	if err := json.Unmarshal(raw, &j); err != nil {
		return err
	}
	var total uint64
	var prev uint64
	for i, b := range j.Buckets {
		bound, count := b[0], b[1]
		if count == 0 {
			return fmt.Errorf("bucket %d (bound %d) has a zero count", i, bound)
		}
		if i > 0 && bound <= prev {
			return fmt.Errorf("bucket bounds not ascending: %d after %d", bound, prev)
		}
		if bucketBound(bucketIndex(bound)) != bound {
			return fmt.Errorf("bucket bound %d is not a boundary of the fixed scheme", bound)
		}
		prev = bound
		total += count
	}
	if total != j.Count {
		return fmt.Errorf("bucket counts sum to %d, count says %d", total, j.Count)
	}
	if j.Count == 0 {
		if j.Sum != 0 || j.Min != 0 || j.Max != 0 || j.P50 != 0 || j.P90 != 0 || j.P99 != 0 {
			return fmt.Errorf("empty histogram with non-zero summary fields")
		}
		return nil
	}
	if j.Min > j.Max {
		return fmt.Errorf("min %d > max %d", j.Min, j.Max)
	}
	first, last := j.Buckets[0][0], j.Buckets[len(j.Buckets)-1][0]
	if j.Min > first {
		return fmt.Errorf("min %d above the first bucket bound %d", j.Min, first)
	}
	if bucketIndex(j.Max) != bucketIndex(last) {
		return fmt.Errorf("max %d outside the last bucket (bound %d)", j.Max, last)
	}
	s := j.snapshot()
	for _, pc := range []struct {
		p    int
		want uint64
	}{{50, j.P50}, {90, j.P90}, {99, j.P99}} {
		if got := s.Percentile(pc.p); got != pc.want {
			return fmt.Errorf("p%d is %d, recomputation from buckets says %d", pc.p, pc.want, got)
		}
	}
	return nil
}
