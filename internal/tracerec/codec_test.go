package tracerec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/workload"
)

// sampleTrace exercises every feature of the format: multiple segments,
// huge and small mmaps, fault and image delta chains, read ops, payload
// and payload-free writes, compute gaps, and adversarial probes.
func sampleTrace() *Trace {
	return &Trace{
		Workload: "sample",
		Scale:    3,
		Segments: []Segment{
			{
				Name: "seg-a",
				Mmaps: []Mmap{
					{Base: 0x1000_0000, Size: 4 * arch.PageSize, Perm: arch.PermRW},
					{Base: 0x1040_0000, Size: arch.HugePageSize, Perm: arch.PermRead, Huge: true},
				},
				Faults: []arch.VPN{0x10000, 0x10003, 0x10001, 0x10400},
				Image: []Page{
					{VPN: 0x10000, Data: []byte{1, 2, 3}},
					{VPN: 0x10003, Data: bytes.Repeat([]byte{0xab}, arch.PageSize)},
				},
				Phases: []accel.Phase{
					{Name: "k1", Traces: []accel.Trace{
						{
							{Kind: arch.Read, Size: 32, Addr: 0x1000_0000, Compute: 7},
							{Kind: arch.Write, Size: 8, Addr: 0x1000_0020, Payload: 1},
							{Kind: arch.Write, Size: 4, Addr: 0x1000_0010}, // zero-fill store, no payload
						},
						{{Kind: arch.Read, Size: 16, Addr: 0x1040_0000, Compute: 65535}},
					}, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
					{Name: "k2", Traces: []accel.Trace{{}}},
				},
				Probes: []Probe{
					{At: 1000, Kind: arch.Read, Addr: 0x80},
					{At: 2000, Kind: arch.Write, Addr: 0x40}, // negative delta
				},
			},
			{Name: "seg-b"}, // fully empty segment
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"sample": sampleTrace(),
		"empty":  {Workload: "empty"},
	} {
		blob, err := Encode(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, tr)
		}
	}
}

// TestRecordedRoundTrip: a real workload recording survives the codec
// losslessly (the checked-in-trace guarantee).
func TestRecordedRoundTrip(t *testing.T) {
	spec, _ := workload.ByName("pathfinder")
	tr, err := Record(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("recorded trace did not round-trip")
	}
	// Re-encoding the decode is byte-identical: the format is canonical.
	blob2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encode is not canonical")
	}
}

func TestHashChangesWithContent(t *testing.T) {
	a := sampleTrace()
	h1, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	a.Segments[0].Phases[0].Traces[0][0].Addr += 32
	h2, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("hash did not change with content")
	}
}

// TestEncodeRejectsMalformed: traces the format cannot represent fail at
// encode time instead of producing undecodable bytes.
func TestEncodeRejectsMalformed(t *testing.T) {
	bad := map[string]*Trace{
		"oversized op": {Segments: []Segment{{Phases: []accel.Phase{{Traces: []accel.Trace{
			{{Size: 64}}}}}}}},
		"payload outside its arena": {Segments: []Segment{{Phases: []accel.Phase{{Traces: []accel.Trace{
			{{Kind: arch.Write, Size: 8, Payload: 1}}}, Data: []byte{1}}}}}},
		"bad probe kind": {Segments: []Segment{{Probes: []Probe{{Kind: 7}}}}},
		"oversized image page": {Segments: []Segment{{Image: []Page{
			{VPN: 1, Data: make([]byte, arch.PageSize+1)}}}}},
	}
	for name, tr := range bad {
		if _, err := Encode(tr); err == nil {
			t.Errorf("%s: encode should fail", name)
		}
	}
}

// TestDecodeFailsClosed: every corruption yields a typed *FormatError and
// never a partial trace.
func TestDecodeFailsClosed(t *testing.T) {
	blob, err := Encode(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     blob[:headerSize-1],
		"bad magic": append([]byte("XXXX"), blob[4:]...),
		"bad version": func() []byte {
			b := bytes.Clone(blob)
			b[4] = 0xff
			return b
		}(),
		"flipped body byte": func() []byte {
			b := bytes.Clone(blob)
			b[headerSize+10] ^= 0x40
			return b
		}(),
		"flipped hash byte": func() []byte {
			b := bytes.Clone(blob)
			b[6] ^= 0x01
			return b
		}(),
		"truncated body": blob[:len(blob)-5],
		"trailing bytes": append(bytes.Clone(blob), 0),
	}
	for name, b := range cases {
		tr, err := Decode(b)
		if err == nil {
			t.Errorf("%s: decode should fail", name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v (%T) is not a *FormatError", name, err, err)
		}
		if tr != nil {
			t.Errorf("%s: decode returned a partial trace alongside the error", name)
		}
	}
}

// TestDecodeBoundsHostileCounts: a forged body claiming enormous element
// counts must fail on the count check, not attempt the allocation. The
// body is re-hashed so it passes the container check and reaches the
// structural decoder.
func TestDecodeBoundsHostileCounts(t *testing.T) {
	var e enc
	e.str("hostile")
	e.uvarint(1)                // scale
	e.uvarint(0xffff_ffff_ffff) // segment count far beyond the body
	tr, err := Decode(reseal(e.buf))
	if err == nil || tr != nil {
		t.Fatal("hostile count decoded")
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a *FormatError", err)
	}
}

func TestLoadCachesByPath(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sample" + Ext
	if err := WriteFile(path, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	a, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Load did not cache: two decodes of the same path")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleTrace()) {
		t.Error("file round trip mismatch")
	}
}

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	if got := Resolve(dir, "bfs"); got != dir+"/bfs"+Ext {
		t.Errorf("dir resolve = %q", got)
	}
	if got := Resolve(dir+"/x.bctrace", "bfs"); got != dir+"/x.bctrace" {
		t.Errorf("file resolve = %q", got)
	}
}
