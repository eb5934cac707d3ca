// Package traffic generates synthetic accelerator traffic as recorded
// traces (tracerec.Trace), giving the sweep harness workload shapes the
// Rodinia-derived generators do not produce: multi-tenant process churn,
// bursty DMA-style streaming, LLM-inference-like weight streaming, and
// adversarial mixes that interleave benign traffic with border probes.
//
// Generation is deterministic and worker-count-independent: every segment
// and every wavefront derives its own RNG stream from (Config.Seed, its
// index) alone, so the same seed produces a byte-identical trace whether
// the generator runs on one worker or sixteen. Workers only parallelize
// generation; they never influence content.
//
// All benign references fall inside the segment's reserved ranges; the only
// out-of-range traffic a shape emits is explicitly flagged as adversarial
// (tracerec.Probe). Segments pre-fault every reserved page, so replay needs
// no demand paging beyond the recorded first-touch order.
package traffic

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/tracerec"
)

// Shape names, in sorted order.
const (
	Bursty = "bursty"
	Churn  = "churn"
	Mix    = "mix"
	Stream = "stream"
)

// Shapes returns all generator shapes in deterministic order.
func Shapes() []string { return []string{Bursty, Churn, Mix, Stream} }

// Config selects and seeds a generator. The zero value of every knob means
// "the shape's default"; defaults are deliberately small so a sweep cell
// stays cheap.
type Config struct {
	// Shape is one of Shapes().
	Shape string
	// Seed drives all pseudo-randomness. Equal seeds give byte-identical
	// traces.
	Seed uint64
	// Segments is the number of short-lived processes (churn and mix
	// shapes; others always emit one segment).
	Segments int
	// Wavefronts per phase.
	Wavefronts int
	// Ops per wavefront.
	Ops int
	// Workers bounds generation parallelism. It has no effect on the
	// generated trace — only on how fast it is produced. 0 means
	// GOMAXPROCS.
	Workers int
}

// Generate produces the trace cfg describes.
func Generate(cfg Config) (*tracerec.Trace, error) {
	switch cfg.Shape {
	case Churn:
		return genChurn(cfg), nil
	case Bursty:
		return genBursty(cfg), nil
	case Stream:
		return genStream(cfg), nil
	case Mix:
		return genMix(cfg), nil
	default:
		return nil, fmt.Errorf("traffic: unknown shape %q (have %v)", cfg.Shape, Shapes())
	}
}

// rng is a splitmix64 stream — tiny, fast, and stable. Each segment and
// wavefront owns a private stream keyed by its index, which is what makes
// generation order (and worker count) irrelevant to the output.
type rng struct{ s uint64 }

func newRNG(seed uint64, idx ...uint64) *rng {
	s := seed ^ 0x9e3779b97f4a7c15
	for _, i := range idx {
		s = mix(s ^ mix(i+0x632be59bd9b4e019))
	}
	if s == 0 {
		s = 1
	}
	return &rng{s: s}
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// layout mirrors hostos.Process address-space reservation exactly (brk at
// 0x1000_0000, aligned bases, a one-page guard gap), so the Mmap records a
// shape emits match the bases replay will observe — tracerec.BuildSegment
// validates them.
type layout struct {
	brk   arch.Virt
	mmaps []tracerec.Mmap
}

func newLayout() *layout { return &layout{brk: 0x1000_0000} }

func (l *layout) mmap(size uint64, perm arch.Perm, huge bool) arch.Virt {
	align := uint64(arch.PageSize)
	if huge {
		align = arch.HugePageSize
	}
	size = arch.AlignUp(size, align)
	base := arch.Virt(arch.AlignUp(uint64(l.brk), align))
	l.mmaps = append(l.mmaps, tracerec.Mmap{Base: base, Size: size, Perm: perm, Huge: huge})
	l.brk = base + arch.Virt(size) + arch.PageSize
	return base
}

// faults returns every reserved page in reservation order — synthetic
// segments pre-touch their whole footprint.
func (l *layout) faults() []arch.VPN {
	var vpns []arch.VPN
	for _, m := range l.mmaps {
		for off := uint64(0); off < m.Size; off += arch.PageSize {
			vpns = append(vpns, (m.Base + arch.Virt(off)).PageOf())
		}
	}
	return vpns
}

// forEachIndex runs fn(i) for i in [0, n) across at most workers
// goroutines. fn must write results only into its own index's slot.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// Per-shape defaults. Small on purpose: a sweep multiplies these by
// thousands of cells.
func defaulted(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

// genChurn emits many short-lived single-phase processes — the
// multi-tenant churn scenario. Every segment is a fresh ASID hammering
// ProcessStart / ProcessComplete and the downgrade-flush path at exit; its
// handful of wavefronts touch a few pages and die.
func genChurn(cfg Config) *tracerec.Trace {
	nseg := defaulted(cfg.Segments, 12)
	nwf := defaulted(cfg.Wavefronts, 2)
	nops := defaulted(cfg.Ops, 24)
	segs := make([]tracerec.Segment, nseg)
	forEachIndex(nseg, cfg.Workers, func(i int) {
		r := newRNG(cfg.Seed, uint64(i))
		l := newLayout()
		pages := 1 + r.intn(4)
		base := l.mmap(uint64(pages)*arch.PageSize, arch.PermRW, false)
		span := uint64(pages) * arch.PageSize
		seg := tracerec.Segment{
			Name:   fmt.Sprintf("churn-%04d", i),
			Mmaps:  l.mmaps,
			Faults: l.faults(),
		}
		seg.Phases = []accel.Phase{genPhase("touch", cfg.Seed, uint64(i), nwf, nops, base, span, 3)}
		segs[i] = seg
	})
	return &tracerec.Trace{Workload: Churn, Scale: nseg, Segments: segs}
}

// genBursty emits DMA-like traffic: long back-to-back sequential bursts
// separated by large compute gaps, alternating read and write bursts.
func genBursty(cfg Config) *tracerec.Trace {
	nwf := defaulted(cfg.Wavefronts, 4)
	nops := defaulted(cfg.Ops, 192)
	l := newLayout()
	const pages = 64
	base := l.mmap(pages*arch.PageSize, arch.PermRW, false)
	span := uint64(pages * arch.PageSize)
	traces := make([]accel.Trace, nwf)
	bufs := make([][]byte, nwf)
	forEachIndex(nwf, cfg.Workers, func(w int) {
		r := newRNG(cfg.Seed, 0, uint64(w))
		tr := make(accel.Trace, 0, nops)
		var buf []byte
		addr := base + arch.Virt(uint64(r.next())%span)&^31
		write := w%2 == 1
		for len(tr) < nops {
			burst := 32 + r.intn(32)
			gap := uint16(20000 + r.intn(30000))
			for b := 0; b < burst && len(tr) < nops; b++ {
				op := accel.Op{Size: 32, Addr: addr}
				if b == 0 {
					op.Compute = gap // the inter-burst silence
				}
				if write {
					op.Kind = arch.Write
					op.Payload = payloadRef(len(buf))
					buf = appendPayload(buf, r, 32)
				}
				tr = append(tr, op)
				addr += 32
				if uint64(addr-base) >= span {
					addr = base
				}
			}
			write = !write
		}
		traces[w], bufs[w] = tr, buf
	})
	seg := tracerec.Segment{
		Name:   "bursty-dma",
		Mmaps:  l.mmaps,
		Faults: l.faults(),
		Phases: []accel.Phase{{Name: "dma", Traces: traces, Data: joinPayloads(traces, bufs)}},
	}
	return &tracerec.Trace{Workload: Bursty, Scale: 1, Segments: []tracerec.Segment{seg}}
}

// genStream emits inference-like traffic: wavefronts stream sequential
// reads over a huge-page weights region (read-only, shared working set far
// larger than any L1) with sparse small writes into an activations buffer.
func genStream(cfg Config) *tracerec.Trace {
	nwf := defaulted(cfg.Wavefronts, 8)
	nops := defaulted(cfg.Ops, 256)
	l := newLayout()
	weights := l.mmap(arch.HugePageSize, arch.PermRead, true)
	acts := l.mmap(8*arch.PageSize, arch.PermRW, false)
	traces := make([]accel.Trace, nwf)
	bufs := make([][]byte, nwf)
	forEachIndex(nwf, cfg.Workers, func(w int) {
		r := newRNG(cfg.Seed, 1, uint64(w))
		// Each wavefront owns a disjoint stripe of the weights.
		stripe := uint64(arch.HugePageSize) / uint64(nwf) &^ 31
		addr := weights + arch.Virt(uint64(w)*stripe)
		tr := make(accel.Trace, 0, nops)
		var buf []byte
		for i := 0; i < nops; i++ {
			if i%16 == 15 {
				// Accumulate an activation. The draws go address,
				// payload, compute.
				act := acts + arch.Virt(uint64(w*64+r.intn(4)*16))
				ref := payloadRef(len(buf))
				buf = appendPayload(buf, r, 16)
				tr = append(tr, accel.Op{Kind: arch.Write, Size: 16, Addr: act, Payload: ref, Compute: uint16(200 + r.intn(100))})
				continue
			}
			tr = append(tr, accel.Op{Size: 32, Addr: addr, Compute: uint16(10 + r.intn(20))})
			addr += 32
			if uint64(addr-weights) >= uint64(w+1)*stripe {
				addr = weights + arch.Virt(uint64(w)*stripe)
			}
		}
		traces[w], bufs[w] = tr, buf
	})
	seg := tracerec.Segment{
		Name:   "stream-infer",
		Mmaps:  l.mmaps,
		Faults: l.faults(),
		Phases: []accel.Phase{{Name: "decode", Traces: traces, Data: joinPayloads(traces, bufs)}},
	}
	return &tracerec.Trace{Workload: Stream, Scale: 1, Segments: []tracerec.Segment{seg}}
}

// genMix interleaves benign churn-style segments with adversarial border
// probes: each segment carries fabricated physical-address crossings fired
// at deterministic simulated times while the benign traffic runs. Probes
// are the only references outside granted ranges, and they are explicitly
// flagged as such in the trace.
func genMix(cfg Config) *tracerec.Trace {
	nseg := defaulted(cfg.Segments, 4)
	nwf := defaulted(cfg.Wavefronts, 4)
	nops := defaulted(cfg.Ops, 96)
	segs := make([]tracerec.Segment, nseg)
	forEachIndex(nseg, cfg.Workers, func(i int) {
		r := newRNG(cfg.Seed, 2, uint64(i))
		l := newLayout()
		pages := 4 + r.intn(8)
		base := l.mmap(uint64(pages)*arch.PageSize, arch.PermRW, false)
		span := uint64(pages) * arch.PageSize
		seg := tracerec.Segment{
			Name:   fmt.Sprintf("mix-%04d", i),
			Mmaps:  l.mmaps,
			Faults: l.faults(),
			Phases: []accel.Phase{genPhase("benign", cfg.Seed, uint64(0x1000+i), nwf, nops, base, span, 4)},
		}
		// A handful of probes spread across the expected run window,
		// aimed at physical addresses the segment was never granted.
		nprobe := 4 + r.intn(4)
		for p := 0; p < nprobe; p++ {
			pr := tracerec.Probe{
				At:   sim.Time(p+1) * 5 * sim.Microsecond,
				Addr: arch.Phys(uint64(r.next()) % (1 << 30) &^ (arch.BlockSize - 1)),
			}
			if r.intn(2) == 1 {
				pr.Kind = arch.Write
			}
			seg.Probes = append(seg.Probes, pr)
		}
		sort.Slice(seg.Probes, func(a, b int) bool { return seg.Probes[a].At < seg.Probes[b].At })
		segs[i] = seg
	})
	return &tracerec.Trace{Workload: Mix, Scale: nseg, Segments: segs}
}

// genPhase builds a phase of nwf wavefronts of mixed random-access traffic
// within [base, base+span), each from its own (seed, segment, wavefront)
// stream. One in writeRatio ops is a store carrying payload bytes.
func genPhase(name string, seed, segIdx uint64, nwf, nops int, base arch.Virt, span uint64, writeRatio int) accel.Phase {
	sizes := []uint8{4, 8, 16, 32}
	ph := accel.Phase{Name: name, Traces: make([]accel.Trace, nwf)}
	for w := range ph.Traces {
		r := newRNG(seed, segIdx, uint64(w)+0x10000)
		tr := make(accel.Trace, 0, nops)
		for i := 0; i < nops; i++ {
			size := sizes[r.intn(len(sizes))]
			addr := base + arch.Virt(uint64(r.next())%(span-uint64(size)))&^arch.Virt(size-1)
			op := accel.Op{Size: size, Addr: addr, Compute: uint16(r.intn(400))}
			if r.intn(writeRatio) == 0 {
				op.Kind = arch.Write
				op.Payload = payloadRef(len(ph.Data))
				ph.Data = appendPayload(ph.Data, r, int(size))
			}
			tr = append(tr, op)
		}
		ph.Traces[w] = tr
	}
	return ph
}

// appendPayload appends n payload bytes drawn from r to buf.
func appendPayload(buf []byte, r *rng, n int) []byte {
	for i := 0; i < n; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < n; j++ {
			buf = append(buf, byte(v>>(8*j)))
		}
	}
	return buf
}

// payloadRef is accel.PayloadAt for arenas a generator builds: far too
// small to overflow, so overflow is a bug.
func payloadRef(off int) uint32 {
	ref, ok := accel.PayloadAt(off)
	if !ok {
		panic(fmt.Sprintf("traffic: payload arena offset %d overflows accel.Op", off))
	}
	return ref
}

// joinPayloads concatenates the wavefronts' payload buffers, in wavefront
// order, into one phase arena and re-bases each trace's payload references
// onto it. Wavefront w's ops locate their payloads within bufs[w].
func joinPayloads(traces []accel.Trace, bufs [][]byte) []byte {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	if n > 0 {
		payloadRef(n - 1) // every payload starts below n
	}
	data := make([]byte, 0, n)
	for w, b := range bufs {
		base := uint32(len(data))
		for i := range traces[w] {
			if traces[w][i].Payload != 0 {
				traces[w][i].Payload += base
			}
		}
		data = append(data, b...)
	}
	return data
}
