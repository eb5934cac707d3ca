package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and returns each bucket's share of sampled CPU time, plus the sample
// count. A sample belongs to runtime.gc when any frame of its stack is
// garbage-collector work; otherwise to the innermost simulator package on
// its stack (so a map lookup or allocation is charged to the package that
// asked for it); otherwise to "other".
func cpuShares(raw []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, b := range cpuBuckets {
		known[b] = true
	}
	weights := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		b := bucketOf(stack, known)
		weights[b] += float64(s.value)
		total += float64(s.value)
	}
	shares := map[string]float64{}
	if total > 0 {
		for b, w := range weights {
			shares[b] = w / total
		}
	}
	return shares, len(p.samples), nil
}

const internalPrefix = "bordercontrol/internal/"

// bucketOf classifies one stack, leaf frame first.
func bucketOf(stack []string, known map[string]bool) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if known[rest] {
			return rest
		}
		return "other"
	}
	return "other"
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
		"runtime.sweepone", "runtime.wbBufFlush", "runtime.wbBufFlush1":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// profile is the part of profile.proto the bucketing needs.
type profile struct {
	samples []sample
	// locations maps a location id to its function ids, innermost
	// (inlined) first.
	locations map[uint64][]uint64
	// functions maps a function id to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	value     int64    // the last sample value: CPU nanoseconds
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// profile.proto field numbers.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	r := pbReader{buf: data}
	for r.more() {
		field, wire := r.key()
		switch {
		case field == fieldProfileSample && wire == wireBytes:
			p.samples = append(p.samples, parseSample(r.bytes(), &r))
		case field == fieldProfileLocation && wire == wireBytes:
			id, fns := parseLocation(r.bytes(), &r)
			p.locations[id] = fns
		case field == fieldProfileFunction && wire == wireBytes:
			id, name := parseFunction(r.bytes(), &r)
			p.functions[id] = name
		case field == fieldProfileStrings && wire == wireBytes:
			p.strings = append(p.strings, string(r.bytes()))
		default:
			r.skip(wire)
		}
	}
	return p, r.err
}

// The sub-message parsers report malformed input through the outer
// reader's sticky error.
func parseSample(b []byte, outer *pbReader) sample {
	var s sample
	r := pbReader{buf: b}
	for r.more() {
		field, wire := r.key()
		switch field {
		case fieldSampleLocation:
			s.locations = r.uints(wire, s.locations)
		case fieldSampleValue:
			vs := r.uints(wire, nil)
			if len(vs) > 0 {
				s.value = int64(vs[len(vs)-1])
			}
		default:
			r.skip(wire)
		}
	}
	outer.fail(r.err)
	return s
}

func parseLocation(b []byte, outer *pbReader) (uint64, []uint64) {
	var id uint64
	var fns []uint64
	r := pbReader{buf: b}
	for r.more() {
		field, wire := r.key()
		switch {
		case field == fieldLocationID && wire == wireVarint:
			id = r.varint()
		case field == fieldLocationLine && wire == wireBytes:
			lr := pbReader{buf: r.bytes()}
			for lr.more() {
				f, w := lr.key()
				if f == fieldLineFunction && w == wireVarint {
					fns = append(fns, lr.varint())
				} else {
					lr.skip(w)
				}
			}
			r.fail(lr.err)
		default:
			r.skip(wire)
		}
	}
	outer.fail(r.err)
	return id, fns
}

func parseFunction(b []byte, outer *pbReader) (uint64, int64) {
	var id uint64
	var name int64
	r := pbReader{buf: b}
	for r.more() {
		field, wire := r.key()
		switch {
		case field == fieldFunctionID && wire == wireVarint:
			id = r.varint()
		case field == fieldFunctionName && wire == wireVarint:
			name = int64(r.varint())
		default:
			r.skip(wire)
		}
	}
	outer.fail(r.err)
	return id, name
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

var errTruncated = errors.New("truncated protobuf")

// pbReader is a minimal protobuf decoder with a sticky error: after the
// first failure every read returns zero and more reports false.
type pbReader struct {
	buf []byte
	off int
	err error
}

func (r *pbReader) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *pbReader) more() bool { return r.err == nil && r.off < len(r.buf) }

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.off >= len(r.buf) {
			r.fail(errTruncated)
			return 0
		}
		c := r.buf[r.off]
		r.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.fail(fmt.Errorf("varint overflows 64 bits at offset %d", r.off))
	return 0
}

func (r *pbReader) key() (field, wire int) {
	k := r.varint()
	return int(k >> 3), int(k & 7)
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail(errTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// uints reads a repeated integer field in either encoding: packed (one
// length-delimited run) or one varint per key.
func (r *pbReader) uints(wire int, out []uint64) []uint64 {
	switch wire {
	case wireVarint:
		return append(out, r.varint())
	case wireBytes:
		pr := pbReader{buf: r.bytes()}
		for pr.more() {
			out = append(out, pr.varint())
		}
		r.fail(pr.err)
	default:
		r.skip(wire)
	}
	return out
}

func (r *pbReader) skip(wire int) {
	switch wire {
	case wireVarint:
		r.varint()
	case wireFixed64:
		r.advance(8)
	case wireBytes:
		r.bytes()
	case wireFixed32:
		r.advance(4)
	default:
		r.fail(fmt.Errorf("unsupported wire type %d at offset %d", wire, r.off))
	}
}

func (r *pbReader) advance(n int) {
	if n > len(r.buf)-r.off {
		r.fail(errTruncated)
		return
	}
	r.off += n
}
