// Package tracerec records and replays accelerator workloads as reference
// traces: the per-wavefront memory-operation streams a workload generator
// produced, plus exactly enough host-side context (address-space layout,
// first-touch order, post-build memory image) to rebuild a bit-identical
// process without re-running the generator.
//
// Only the reference trace matters to the timing model, but the timing
// model's inputs also include the *physical* layout demand paging produced:
// frame numbers follow allocation order, and allocation order follows the
// first-touch order of pages interleaved with page-table-node allocations.
// A recording therefore captures three things per segment:
//
//   - the mmap sequence (aligned size, permissions, huge-ness; the base
//     address is recorded for validation — it is a deterministic function
//     of the sequence),
//   - the fault order (the VPN of every demand-paging fault, in service
//     order — replaying faults in this order reproduces frame and
//     page-table allocation exactly), and
//   - the post-build memory image (per mapped page, trailing zeros
//     stripped). The workload generators run their algorithm functionally
//     at build time, so post-build memory already holds the final outputs;
//     the timed run re-applies the same payload bytes. One image therefore
//     serves both replay initialization and output verification.
//
// Replay builds a Program whose phases are the recorded traces and whose
// Verify compares final memory against the image — byte-identical results,
// without the generator, across every (mode, border design, shards)
// configuration.
//
// Traces serialize to a compact, versioned, content-hashed binary format
// (see codec.go) designed to be checked in.
package tracerec

import (
	"fmt"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/workload"
)

// Mmap is one recorded address-space reservation, post-alignment.
type Mmap struct {
	// Base is the address the reservation returned. Mmap bases are a
	// deterministic function of the reservation sequence; replay validates
	// rather than imposes them.
	Base arch.Virt
	Size uint64
	Perm arch.Perm
	Huge bool
}

// Page is one page of the recorded memory image, trailing zeros stripped.
type Page struct {
	VPN  arch.VPN
	Data []byte // len in [0, arch.PageSize]
}

// Probe is one adversarial border crossing: a fabricated physical-address
// request fired outside the translated path at a recorded simulated time
// (relative to its segment's launch). Probes are the trace vocabulary's
// explicit "flagged adversarial" references — everything else in a segment
// stays inside its granted ranges.
type Probe struct {
	At   sim.Time
	Kind arch.AccessKind
	Addr arch.Phys
}

// Segment is one process session: a short-lived address space, its replay
// recipe, the reference trace it runs, and any adversarial probes fired
// while it runs. Workload recordings have exactly one benign segment;
// synthetic traffic (multi-tenant churn) chains many.
type Segment struct {
	// Name labels the segment's process.
	Name string
	// Mmaps is the reservation sequence, in call order.
	Mmaps []Mmap
	// Faults is the first-touch order: one VPN per demand-paging fault.
	Faults []arch.VPN
	// Image is the post-build memory image in ascending VPN order. Empty
	// for synthetic segments (memory starts zeroed; no output check).
	Image []Page
	// Phases is the reference trace proper.
	Phases []accel.Phase
	// Probes are adversarial crossings fired while the segment runs.
	Probes []Probe
}

// Ops returns the segment's total memory-operation count.
func (s *Segment) Ops() uint64 {
	var n uint64
	for _, ph := range s.Phases {
		for _, t := range ph.Traces {
			n += uint64(len(t))
		}
	}
	return n
}

// Trace is one recorded (or generated) workload: a named, scaled sequence
// of process segments.
type Trace struct {
	// Workload names the source generator (a workload.Spec name or a
	// traffic shape).
	Workload string
	// Scale is the problem-size multiplier the recording ran at.
	Scale    int
	Segments []Segment
}

// Ops returns the total memory-operation count across all segments.
func (t *Trace) Ops() uint64 {
	var n uint64
	for i := range t.Segments {
		n += t.Segments[i].Ops()
	}
	return n
}

// ReplayError reports a divergence between a recorded segment and the
// process it is being replayed into — the recording and the host model no
// longer agree (a stale trace after an allocator change, or a corrupt
// recording that decoded cleanly but is self-inconsistent).
type ReplayError struct {
	Segment string
	Msg     string
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("tracerec: replaying %q: %s", e.Segment, e.Msg)
}

// recordMemBytes sizes the scratch machine a recording runs on. Frame
// numbers never enter the recording, so the scratch size only needs to fit
// the workload; the Table 3 capacity keeps recording and live builds
// failure-equivalent.
const recordMemBytes = 16 << 30

// Record executes spec's generator once on a scratch host and captures the
// full replay recipe: mmap sequence, fault order, post-build image, and
// the reference trace. The scratch host is discarded — recordings are
// position-independent (no frame numbers), so a trace recorded here
// replays onto any fresh process.
//
// The generator's own output check runs once, on the recording: post-build
// memory already holds the final outputs, so a generator whose Verify
// rejects them cannot be recorded. Every replay is then held to the
// recorded image byte for byte.
func Record(spec workload.Spec, scale int) (*Trace, error) {
	store, err := memory.NewStore(recordMemBytes)
	if err != nil {
		return nil, err
	}
	proc, err := hostos.New(store).NewProcess(spec.Name)
	if err != nil {
		return nil, err
	}
	seg := Segment{Name: spec.Name}
	proc.OnMmap = func(base arch.Virt, size uint64, perm arch.Perm, huge bool) {
		seg.Mmaps = append(seg.Mmaps, Mmap{Base: base, Size: size, Perm: perm, Huge: huge})
	}
	proc.OnFault = func(vpn arch.VPN) { seg.Faults = append(seg.Faults, vpn) }
	prog, err := spec.Build(proc, scale)
	if err != nil {
		return nil, err
	}
	proc.OnMmap, proc.OnFault = nil, nil
	seg.Phases = prog.Phases

	var vpns []arch.VPN
	proc.ForEachMapped(func(vpn arch.VPN, _ arch.PPN, _ arch.Perm) { vpns = append(vpns, vpn) })
	for _, vpn := range vpns {
		data, err := proc.PageBytes(vpn)
		if err != nil {
			return nil, err
		}
		n := len(data)
		for n > 0 && data[n-1] == 0 {
			n--
		}
		seg.Image = append(seg.Image, Page{VPN: vpn, Data: data[:n:n]})
	}
	// Verify runs after the image is taken, so nothing it touches can leak
	// into the recording.
	if prog.Verify != nil {
		if err := prog.Verify(proc); err != nil {
			return nil, fmt.Errorf("tracerec: recording %s: generator output check failed: %w", spec.Name, err)
		}
	}
	return &Trace{Workload: spec.Name, Scale: scale, Segments: []Segment{seg}}, nil
}

// BuildSegment replays seg's recipe into a fresh process: re-reserve the
// address space, re-fault pages in recorded order (reproducing frame and
// page-table allocation exactly), restore the memory image, and return the
// program to launch. When the segment carries an image, the program's
// Verify compares final memory to it byte-for-byte.
func BuildSegment(proc *hostos.Process, seg *Segment) (*accel.Program, error) {
	for i, m := range seg.Mmaps {
		var base arch.Virt
		var err error
		if m.Huge {
			base, err = proc.MmapHuge(m.Size, m.Perm)
		} else {
			base, err = proc.Mmap(m.Size, m.Perm)
		}
		if err != nil {
			return nil, &ReplayError{Segment: seg.Name, Msg: fmt.Sprintf("mmap %d: %v", i, err)}
		}
		if base != m.Base {
			return nil, &ReplayError{Segment: seg.Name,
				Msg: fmt.Sprintf("mmap %d landed at %#x, recorded %#x — layout diverged", i, base, m.Base)}
		}
	}
	for i, vpn := range seg.Faults {
		if err := proc.FaultPage(vpn); err != nil {
			return nil, &ReplayError{Segment: seg.Name, Msg: fmt.Sprintf("fault %d (%#x): %v", i, vpn.Base(), err)}
		}
	}
	for _, pg := range seg.Image {
		if err := proc.SetPageBytes(pg.VPN, pg.Data); err != nil {
			return nil, &ReplayError{Segment: seg.Name, Msg: fmt.Sprintf("image page %#x: %v", pg.VPN.Base(), err)}
		}
	}
	prog := &accel.Program{Name: seg.Name, Phases: seg.Phases}
	if len(seg.Image) > 0 {
		image := seg.Image
		prog.Verify = func(p *hostos.Process) error {
			return verifyImage(p, image)
		}
	}
	return prog, nil
}

// verifyImage compares final process memory against the recorded image.
// The timed run re-applies the recorded store payloads over the restored
// image, so a correct replay ends exactly where the build ended.
func verifyImage(p *hostos.Process, image []Page) error {
	for _, pg := range image {
		got, err := p.PageBytes(pg.VPN)
		if err != nil {
			return err
		}
		for i := range got {
			var want byte
			if i < len(pg.Data) {
				want = pg.Data[i]
			}
			if got[i] != want {
				return fmt.Errorf("tracerec: page %#x byte %d = %#x, want %#x",
					pg.VPN.Base(), i, got[i], want)
			}
		}
	}
	return nil
}

// ReplaySpec wraps a single-segment benign trace as a workload.Spec, so
// every harness entry point that takes a workload can run a recording
// instead. The Build ignores scale — the recording fixes it.
func ReplaySpec(t *Trace) (workload.Spec, error) {
	if len(t.Segments) != 1 {
		return workload.Spec{}, &ReplayError{Segment: t.Workload,
			Msg: fmt.Sprintf("ReplaySpec needs a single-segment trace, got %d segments", len(t.Segments))}
	}
	if len(t.Segments[0].Probes) != 0 {
		return workload.Spec{}, &ReplayError{Segment: t.Workload,
			Msg: "ReplaySpec cannot carry adversarial probes; use the harness trace runner"}
	}
	seg := &t.Segments[0]
	return workload.Spec{
		Name:        t.Workload,
		Description: fmt.Sprintf("replay of recorded trace (%d ops)", t.Ops()),
		Build: func(p *hostos.Process, _ int) (*accel.Program, error) {
			return BuildSegment(p, seg)
		},
	}, nil
}
