package tracerec

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/sim"
)

// The .bctrace container: a 4-byte magic, a little-endian format version,
// a SHA-256 content hash of the body, then the varint-encoded body. The
// hash makes recordings content-addressable (two traces are the same
// experiment input iff their hashes match) and turns silent corruption of
// checked-in files into a typed decode error.
//
// Body layout (all integers varint; addresses delta-encoded):
//
//	str workload | uvarint scale | uvarint #segments
//	per segment:
//	  str name
//	  uvarint #mmaps   | per mmap:  uvarint base, uvarint size, byte perm, byte huge
//	  uvarint #faults  | per fault: svarint VPN delta (previous fault's VPN)
//	  uvarint #pages   | per page:  svarint VPN delta, uvarint len, bytes
//	  uvarint #phases  | per phase: str name, uvarint #traces
//	                     per trace: uvarint #ops
//	                     per op:    byte flag (bit7 write, bit6 payload,
//	                                low 6 bits size), uvarint compute,
//	                                svarint addr delta, payload[size]
//	  uvarint #probes  | per probe: uvarint at, byte kind, svarint addr delta
//
// Delta chains reset per list (faults, image, each wavefront trace, the
// probe list), so a wavefront's typically-sequential addresses encode in
// one or two bytes each.
const (
	magic      = "BCTR"
	Version    = 1
	headerSize = 4 + 2 + sha256.Size
)

// FormatError is the typed, fail-closed decode failure: any malformed,
// truncated, version-skewed or corrupted input produces one (never a
// panic, never a partial trace).
type FormatError struct {
	// Offset is the byte position the failure was detected at.
	Offset int
	Msg    string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("tracerec: invalid trace at byte %d: %s", e.Offset, e.Msg)
}

const (
	flagWrite   = 0x80
	flagPayload = 0x40
	flagSizeMax = 0x3f
)

// enc is the append-only encoder.
type enc struct {
	buf []byte
	err error
}

func (e *enc) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("tracerec: cannot encode: "+format, args...)
	}
}

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) svarint(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) byte(b byte)      { e.buf = append(e.buf, b) }

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Encode serializes t. It validates the trace shape (op sizes must fit the
// flag byte, payloads must lie inside their phase's arena, access kinds
// must be read or write) and fails rather than emit an undecodable file.
// Only the payload bytes are written, not where they sit in the arena, so
// two traces with the same ops and payloads encode identically however
// their arenas are laid out.
func Encode(t *Trace) ([]byte, error) {
	e := &enc{}
	e.str(t.Workload)
	e.uvarint(uint64(t.Scale))
	e.uvarint(uint64(len(t.Segments)))
	for si := range t.Segments {
		seg := &t.Segments[si]
		e.str(seg.Name)
		e.uvarint(uint64(len(seg.Mmaps)))
		for _, m := range seg.Mmaps {
			e.uvarint(uint64(m.Base))
			e.uvarint(m.Size)
			e.byte(byte(m.Perm))
			if m.Huge {
				e.byte(1)
			} else {
				e.byte(0)
			}
		}
		e.uvarint(uint64(len(seg.Faults)))
		prev := int64(0)
		for _, vpn := range seg.Faults {
			e.svarint(int64(vpn) - prev)
			prev = int64(vpn)
		}
		e.uvarint(uint64(len(seg.Image)))
		prev = 0
		for _, pg := range seg.Image {
			if len(pg.Data) > arch.PageSize {
				e.fail("image page %#x holds %d bytes", pg.VPN.Base(), len(pg.Data))
			}
			e.svarint(int64(pg.VPN) - prev)
			prev = int64(pg.VPN)
			e.uvarint(uint64(len(pg.Data)))
			e.buf = append(e.buf, pg.Data...)
		}
		e.uvarint(uint64(len(seg.Phases)))
		for _, ph := range seg.Phases {
			e.str(ph.Name)
			e.uvarint(uint64(len(ph.Traces)))
			for _, tr := range ph.Traces {
				e.uvarint(uint64(len(tr)))
				prevAddr := int64(0)
				for i := range tr {
					op := &tr[i]
					flag := byte(op.Size)
					if op.Size > flagSizeMax {
						e.fail("op size %d exceeds %d", op.Size, flagSizeMax)
					}
					switch op.Kind {
					case arch.Read:
					case arch.Write:
						flag |= flagWrite
					default:
						e.fail("op kind %v", op.Kind)
					}
					var payload []byte
					if op.Payload != 0 {
						if end := uint64(op.Payload-1) + uint64(op.Size); end > uint64(len(ph.Data)) {
							e.fail("op payload ends at byte %d of a %d-byte arena", end, len(ph.Data))
						} else {
							payload = op.PayloadIn(ph.Data)
						}
						flag |= flagPayload
					}
					e.byte(flag)
					e.uvarint(uint64(op.Compute))
					e.svarint(int64(op.Addr) - prevAddr)
					prevAddr = int64(op.Addr)
					e.buf = append(e.buf, payload...)
				}
			}
		}
		e.uvarint(uint64(len(seg.Probes)))
		prev = 0
		for _, pr := range seg.Probes {
			if pr.Kind != arch.Read && pr.Kind != arch.Write {
				e.fail("probe kind %v", pr.Kind)
			}
			e.uvarint(uint64(pr.At))
			e.byte(byte(pr.Kind))
			e.svarint(int64(pr.Addr) - prev)
			prev = int64(pr.Addr)
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	sum := sha256.Sum256(e.buf)
	out := make([]byte, 0, headerSize+len(e.buf))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = append(out, sum[:]...)
	out = append(out, e.buf...)
	return out, nil
}

// Hash returns the trace's content hash — the SHA-256 of its encoded body,
// the same digest embedded in the file header.
func (t *Trace) Hash() ([sha256.Size]byte, error) {
	blob, err := Encode(t)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(blob[headerSize:]), nil
}

// dec is the bounds-checked decoder. Every read validates against the
// remaining input and records a FormatError instead of advancing, so a
// decode of arbitrary bytes terminates with either a complete trace or a
// typed failure — never a panic, never unbounded allocation.
type dec struct {
	buf []byte
	off int
	err *FormatError
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &FormatError{Offset: d.off, Msg: fmt.Sprintf(format, args...)}
	}
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or oversized varint (%s)", what)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) svarint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or oversized varint (%s)", what)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated (%s)", what)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *dec) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.remaining() < n {
		d.fail("truncated: %d bytes remain of %d-byte %s", d.remaining(), n, what)
		return nil
	}
	out := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// count reads a list length and bounds it by the remaining input (each
// element costs at least minBytes encoded bytes), so corrupt counts fail
// instead of driving huge allocations.
func (d *dec) count(minBytes int, what string) int {
	v := d.uvarint(what)
	if d.err != nil {
		return 0
	}
	if v > uint64(d.remaining()/minBytes) {
		d.fail("%s count %d exceeds the %d bytes remaining", what, v, d.remaining())
		return 0
	}
	return int(v)
}

func (d *dec) str(what string) string {
	n := d.count(1, what+" length")
	return string(d.bytes(n, what))
}

// Decode parses an encoded trace, verifying the container (magic, version,
// content hash) and every structural invariant. Any problem yields a
// *FormatError; Decode never panics on any input.
func Decode(blob []byte) (t *Trace, err error) {
	// The decoder is written to fail explicitly on every malformed input;
	// this recover is the enforcement of that contract at the API boundary
	// (certified by FuzzTraceCodec): an escaped panic becomes a typed
	// error, never a crash in a caller.
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, &FormatError{Msg: fmt.Sprintf("decoder panic: %v", r)}
		}
	}()
	if len(blob) < headerSize {
		return nil, &FormatError{Offset: len(blob), Msg: "shorter than the container header"}
	}
	if string(blob[:4]) != magic {
		return nil, &FormatError{Msg: fmt.Sprintf("bad magic %q", blob[:4])}
	}
	if v := binary.LittleEndian.Uint16(blob[4:6]); v != Version {
		return nil, &FormatError{Offset: 4, Msg: fmt.Sprintf("format version %d, this build reads %d", v, Version)}
	}
	var want [sha256.Size]byte
	copy(want[:], blob[6:headerSize])
	body := blob[headerSize:]
	if got := sha256.Sum256(body); got != want {
		return nil, &FormatError{Offset: 6, Msg: "content hash mismatch — the trace is corrupt"}
	}

	d := &dec{buf: body}
	t = &Trace{}
	t.Workload = d.str("workload name")
	t.Scale = int(d.uvarint("scale"))
	nseg := d.count(1, "segment")
	for si := 0; si < nseg && d.err == nil; si++ {
		var seg Segment
		seg.Name = d.str("segment name")
		nmmap := d.count(4, "mmap")
		for i := 0; i < nmmap && d.err == nil; i++ {
			m := Mmap{
				Base: arch.Virt(d.uvarint("mmap base")),
				Size: d.uvarint("mmap size"),
				Perm: arch.Perm(d.byte("mmap perm")),
			}
			switch d.byte("mmap huge") {
			case 0:
			case 1:
				m.Huge = true
			default:
				d.fail("mmap huge flag")
			}
			seg.Mmaps = append(seg.Mmaps, m)
		}
		nfault := d.count(1, "fault")
		prev := int64(0)
		for i := 0; i < nfault && d.err == nil; i++ {
			prev += d.svarint("fault VPN delta")
			if prev < 0 {
				d.fail("fault VPN underflow")
			}
			seg.Faults = append(seg.Faults, arch.VPN(prev))
		}
		nimage := d.count(2, "image page")
		prev = 0
		for i := 0; i < nimage && d.err == nil; i++ {
			prev += d.svarint("image VPN delta")
			if prev < 0 {
				d.fail("image VPN underflow")
			}
			n := int(d.uvarint("image page length"))
			if n > arch.PageSize {
				d.fail("image page of %d bytes exceeds the page size", n)
			}
			seg.Image = append(seg.Image, Page{VPN: arch.VPN(prev), Data: d.bytes(n, "image page")})
		}
		nphase := d.count(2, "phase")
		for i := 0; i < nphase && d.err == nil; i++ {
			ph := accel.Phase{Name: d.str("phase name")}
			ntrace := d.count(1, "trace")
			for j := 0; j < ntrace && d.err == nil; j++ {
				nops := d.count(3, "op")
				tr := make(accel.Trace, 0, nops)
				prevAddr := int64(0)
				for k := 0; k < nops && d.err == nil; k++ {
					flag := d.byte("op flag")
					op := accel.Op{Size: flag & flagSizeMax}
					if flag&flagWrite != 0 {
						op.Kind = arch.Write
					}
					c := d.uvarint("op compute")
					if c > 0xffff {
						d.fail("op compute %d exceeds 16 bits", c)
					}
					op.Compute = uint16(c)
					prevAddr += d.svarint("op addr delta")
					if prevAddr < 0 {
						d.fail("op address underflow")
					}
					op.Addr = arch.Virt(prevAddr)
					if flag&flagPayload != 0 {
						var ok bool
						if op.Payload, ok = accel.PayloadAt(len(ph.Data)); !ok {
							d.fail("phase payload arena exceeds %d bytes", accel.MaxPayloadOffset)
						}
						ph.Data = append(ph.Data, d.bytes(int(op.Size), "op payload")...)
					}
					tr = append(tr, op)
				}
				ph.Traces = append(ph.Traces, tr)
			}
			seg.Phases = append(seg.Phases, ph)
		}
		nprobe := d.count(3, "probe")
		prev = 0
		for i := 0; i < nprobe && d.err == nil; i++ {
			pr := Probe{At: sim.Time(d.uvarint("probe time"))}
			switch d.byte("probe kind") {
			case byte(arch.Read):
				pr.Kind = arch.Read
			case byte(arch.Write):
				pr.Kind = arch.Write
			default:
				d.fail("probe kind")
			}
			prev += d.svarint("probe addr delta")
			if prev < 0 {
				d.fail("probe address underflow")
			}
			pr.Addr = arch.Phys(prev)
			seg.Probes = append(seg.Probes, pr)
		}
		t.Segments = append(t.Segments, seg)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, &FormatError{Offset: d.off, Msg: fmt.Sprintf("%d trailing bytes after the trace", d.remaining())}
	}
	return t, nil
}
