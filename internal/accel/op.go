// Package accel models the untrusted accelerators: a GPU built from compute
// units running many wavefronts, its L1 TLBs and L1/L2 caches, and the
// memory-path variants evaluated in the paper (ATS-only, full IOMMU,
// CAPI-like, Border Control with and without a BCC). It also provides the
// misbehaving accelerators used to exercise the threat model.
package accel

import (
	"math"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
)

// Op is one memory operation of a wavefront: some compute, then a single
// coalesced access. Traces are produced by internal/workload from real
// algorithm executions.
//
// An Op is 16 bytes with no pointers, so a trace is one flat array the GC
// never scans. A store's bytes live in its phase's payload arena
// (Phase.Data), located by Payload.
type Op struct {
	// Addr is the virtual address accessed.
	Addr arch.Virt
	// Payload locates a store's bytes in the arena of the phase holding
	// the op: they are Data[Payload-1 : Payload-1+Size]. Zero means the op
	// carries no payload — every load, and a store that writes zeros.
	// Replaying stores with their real values keeps simulated memory
	// functionally correct.
	Payload uint32
	// Compute is the number of GPU cycles of computation preceding the
	// access.
	Compute uint16
	// Kind is read or write.
	Kind arch.AccessKind
	// Size is the access width in bytes (1..32, one coalesced sector at
	// most; block-sized traffic is modelled by the caches, not the ops).
	Size uint8
}

// MaxPayloadOffset is the largest arena offset an Op.Payload can locate. An
// arena may end past it, but no payload may start beyond it.
const MaxPayloadOffset = math.MaxUint32 - 1

// PayloadAt returns the Op.Payload value locating a payload that starts at
// arena offset off, and false when off is beyond MaxPayloadOffset.
func PayloadAt(off int) (uint32, bool) {
	if off < 0 || off > MaxPayloadOffset {
		return 0, false
	}
	return uint32(off) + 1, true
}

// PayloadIn returns op's stored bytes from arena, the Data of the phase
// holding op, or nil when op carries no payload.
func (op *Op) PayloadIn(arena []byte) []byte {
	if op.Payload == 0 {
		return nil
	}
	off := op.Payload - 1
	return arena[off : off+uint32(op.Size)]
}

// Trace is the in-order memory behaviour of one wavefront within a phase.
type Trace []Op

// Phase is one kernel launch: its traces run concurrently across the GPU's
// wavefront slots, and the next phase starts only when all complete (the
// kernel-boundary barrier).
type Phase struct {
	Name   string
	Traces []Trace
	// Data is the payload arena of the phase's stores (see Op.Payload).
	Data []byte
}

// Program is a whole accelerator workload: an ordered list of phases plus
// an optional functional check of the results it left in process memory.
type Program struct {
	Name   string
	Phases []Phase
	// Verify, when set, checks the output the program left in the process
	// address space. It runs after the GPU finishes and all caches are
	// flushed.
	Verify func(p *hostos.Process) error
}

// Ops returns the total operation count across all phases.
func (p *Program) Ops() uint64 {
	var n uint64
	for _, ph := range p.Phases {
		for _, t := range ph.Traces {
			n += uint64(len(t))
		}
	}
	return n
}

// Reads returns the total read-operation count.
func (p *Program) Reads() uint64 {
	var n uint64
	for _, ph := range p.Phases {
		for _, t := range ph.Traces {
			for _, op := range t {
				if op.Kind == arch.Read {
					n++
				}
			}
		}
	}
	return n
}
