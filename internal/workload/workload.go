// Package workload implements the seven Rodinia-derived benchmarks the
// paper evaluates (backprop, bfs, hotspot, lud, nn, nw, pathfinder) as real
// algorithms over simulated process memory.
//
// Each generator allocates its arrays in the process address space, runs
// the algorithm functionally (reading and writing simulated memory), and
// records the per-wavefront, coalesced memory-reference traces a GPU
// implementation of the kernel would produce. Replaying the traces through
// the timing simulator is therefore driven by real, data-dependent access
// patterns — bfs really chases the edges of a random graph — and the final
// memory image can be verified after the timed run.
package workload

import (
	"encoding/binary"
	"fmt"
	"sort"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
)

// Spec names one benchmark and how to build it.
type Spec struct {
	// Name is the Rodinia benchmark name.
	Name string
	// Description summarizes the access pattern.
	Description string
	// Build generates the program in the given process. scale >= 1 grows
	// the problem size; 1 is the default used by the paper-figure harness.
	Build func(p *hostos.Process, scale int) (*accel.Program, error)
}

// registry is populated here and never mutated afterwards: concurrent
// sweeps read it from many goroutines, so it must stay effectively
// immutable. All returns a copy so no caller can alias (and then mutate)
// the backing array.
var registry = []Spec{
	{Name: "backprop", Description: "neural-net training layer; regular streaming with heavy input reuse", Build: BuildBackprop},
	{Name: "bfs", Description: "breadth-first search over a CSR random graph; irregular, data-dependent", Build: BuildBFS},
	{Name: "hotspot", Description: "2D thermal stencil; regular with 2D locality", Build: BuildHotspot},
	{Name: "lud", Description: "LU decomposition; triangular, shrinking working set", Build: BuildLUD},
	{Name: "nn", Description: "nearest-neighbor distance scan; pure streaming", Build: BuildNN},
	{Name: "nw", Description: "Needleman-Wunsch alignment; wavefront over tiled DP matrix", Build: BuildNW},
	{Name: "pathfinder", Description: "dynamic-programming grid walk; row streaming", Build: BuildPathfinder},
}

// All returns the seven benchmarks in the paper's order.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// Names returns the benchmark names in order.
func Names() []string {
	var names []string
	for _, s := range registry {
		names = append(names, s.Name)
	}
	return names
}

// ByName finds a benchmark.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// genError carries a generation failure up through the helper panics.
type genError struct{ err error }

// BuildError is the typed failure of a workload (or trace-replay) builder.
// It names the generator and wraps the underlying cause unmodified, so
// errors.As reaches typed causes — a replay-layer decode error surfaces as
// itself, not as a recovered panic flattened into a generation string.
type BuildError struct {
	// Workload is the generator that failed.
	Workload string
	// Err is the underlying cause, reachable via errors.As/Is.
	Err error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("workload: building %s: %v", e.Workload, e.Err)
}

func (e *BuildError) Unwrap() error { return e.Err }

// run invokes fn, converting helper panics back into a typed *BuildError.
// Only the package's own genError marker is captured; any foreign panic (a
// genuine bug) propagates — run must never disguise one as a generation
// failure.
func run(name string, fn func() *accel.Program) (prog *accel.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ge, ok := r.(genError); ok {
				err = &BuildError{Workload: name, Err: ge.err}
				return
			}
			panic(r)
		}
	}()
	return fn(), nil
}

func check(err error) {
	if err != nil {
		panic(genError{err})
	}
}

// f32 is a float32 array in process memory.
type f32 struct {
	p    *hostos.Process
	base arch.Virt
	n    int
}

func allocF32(p *hostos.Process, n int) f32 {
	base, err := p.Mmap(uint64(n)*4, arch.PermRW)
	check(err)
	return f32{p: p, base: base, n: n}
}

func (a f32) addr(i int) arch.Virt { return a.base + arch.Virt(i)*4 }

func (a f32) get(i int) float32 {
	v, err := a.p.ReadU32(a.addr(i))
	check(err)
	return f32frombits(v)
}

func (a f32) set(i int, v float32) {
	check(a.p.WriteU32(a.addr(i), f32bits(v)))
}

// i32 is an int32 array in process memory.
type i32 struct {
	p    *hostos.Process
	base arch.Virt
	n    int
}

func allocI32(p *hostos.Process, n int) i32 {
	base, err := p.Mmap(uint64(n)*4, arch.PermRW)
	check(err)
	return i32{p: p, base: base, n: n}
}

func (a i32) addr(i int) arch.Virt { return a.base + arch.Virt(i)*4 }

func (a i32) get(i int) int32 {
	v, err := a.p.ReadU32(a.addr(i))
	check(err)
	return int32(v)
}

func (a i32) set(i int, v int32) {
	check(a.p.WriteU32(a.addr(i), uint32(v)))
}

// wf records one wavefront's trace while the algorithm executes. Store
// payloads go straight into its phase's arena.
type wf struct {
	ph      *phase
	ops     accel.Trace
	pending uint32 // compute cycles to attach to the next op
}

// compute queues c cycles of computation before the next access.
func (w *wf) compute(c int) { w.pending += uint32(c) }

// record appends one op; payload is its Op.Payload (0 for none).
func (w *wf) record(kind arch.AccessKind, addr arch.Virt, size int, payload uint32) {
	c := w.pending
	if c > 0xffff {
		c = 0xffff
	}
	w.pending = 0
	w.ops = append(w.ops, accel.Op{
		Addr:    addr,
		Payload: payload,
		Compute: uint16(c),
		Kind:    kind,
		Size:    uint8(size),
	})
}

// sectorBytes is the coalescing granularity: a GPU memory unit merges a
// wavefront's lane accesses into 32-byte sectors, so a contiguous 128-byte
// block costs four requests at the L1 — which hit the same cached block.
// This preserves the cache-filtering effect the paper's configurations
// differ by (a cacheless path pays all four at DRAM).
const sectorBytes = 32

// coalesce records one op per 32-byte sector overlapped by [addr,
// addr+size), modelling the coalescing a GPU memory unit performs for a
// wavefront's lanes. For stores, payload is the Op.Payload of the whole
// range's bytes (indexed from addr) so each op carries its exact payload —
// replay is then byte-for-byte faithful even for in-place algorithms.
func (w *wf) coalesce(kind arch.AccessKind, addr arch.Virt, size int, payload uint32) {
	end := addr + arch.Virt(size)
	for a := addr; a < end; {
		sectorEnd := arch.Virt(arch.AlignDown(uint64(a), sectorBytes) + sectorBytes)
		if sectorEnd > end {
			sectorEnd = end
		}
		var ref uint32
		if payload != 0 {
			ref = payload + uint32(a-addr)
		}
		w.record(kind, a, int(sectorEnd-a), ref)
		a = sectorEnd
	}
}

// errArenaFull fails a generator whose phase holds more store payload than
// an Op can locate.
var errArenaFull = fmt.Errorf("phase payload arena exceeds %d bytes", accel.MaxPayloadOffset)

// appendWord appends a 32-bit little-endian store payload to the phase's
// arena and returns its Op.Payload.
func (w *wf) appendWord(v uint32) uint32 {
	ref, ok := accel.PayloadAt(len(w.ph.data))
	if !ok {
		check(errArenaFull)
	}
	w.ph.data = binary.LittleEndian.AppendUint32(w.ph.data, v)
	return ref
}

// loadF32s functionally reads n floats starting at index i0 and records
// coalesced load ops for the range.
func (w *wf) loadF32s(a f32, i0, n int) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		out[i] = a.get(i0 + i)
	}
	w.coalesce(arch.Read, a.addr(i0), n*4, 0)
	return out
}

// storeF32s functionally writes vals starting at i0 and records coalesced
// store ops carrying the stored bytes.
func (w *wf) storeF32s(a f32, i0 int, vals []float32) {
	var ref uint32
	for i, v := range vals {
		a.set(i0+i, v)
		if r := w.appendWord(f32bits(v)); i == 0 {
			ref = r
		}
	}
	w.coalesce(arch.Write, a.addr(i0), len(vals)*4, ref)
}

// loadF32 is a single, uncoalescable load (irregular access).
func (w *wf) loadF32(a f32, i int) float32 {
	v := a.get(i)
	w.record(arch.Read, a.addr(i), 4, 0)
	return v
}

// storeF32 is a single, uncoalescable store.
func (w *wf) storeF32(a f32, i int, v float32) {
	a.set(i, v)
	w.record(arch.Write, a.addr(i), 4, w.appendWord(f32bits(v)))
}

// loadI32 is a single int load.
func (w *wf) loadI32(a i32, i int) int32 {
	v := a.get(i)
	w.record(arch.Read, a.addr(i), 4, 0)
	return v
}

// storeI32 is a single int store.
func (w *wf) storeI32(a i32, i int, v int32) {
	a.set(i, v)
	w.record(arch.Write, a.addr(i), 4, w.appendWord(uint32(v)))
}

// loadI32s reads n ints from i0 with coalesced ops.
func (w *wf) loadI32s(a i32, i0, n int) []int32 {
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = a.get(i0 + i)
	}
	w.coalesce(arch.Read, a.addr(i0), n*4, 0)
	return out
}

// storeI32s writes n ints from i0 with coalesced ops.
func (w *wf) storeI32s(a i32, i0 int, vals []int32) {
	var ref uint32
	for i, v := range vals {
		a.set(i0+i, v)
		if r := w.appendWord(uint32(v)); i == 0 {
			ref = r
		}
	}
	w.coalesce(arch.Write, a.addr(i0), len(vals)*4, ref)
}

// phase collects wavefront traces and their store payloads into an
// accel.Phase.
type phase struct {
	name string
	wfs  []*wf
	data []byte // the payload arena
}

func newPhase(name string) *phase { return &phase{name: name} }

func (ph *phase) wavefront() *wf {
	w := &wf{ph: ph}
	ph.wfs = append(ph.wfs, w)
	return w
}

func (ph *phase) build() accel.Phase {
	out := accel.Phase{Name: ph.name, Data: ph.data}
	for _, w := range ph.wfs {
		if len(w.ops) > 0 {
			out.Traces = append(out.Traces, w.ops)
		}
	}
	return out
}

// expectF32 builds a Verify function comparing an f32 array to expected
// values within a tolerance.
func expectF32(a f32, want []float32, tol float32) func(p *hostos.Process) error {
	return func(p *hostos.Process) error {
		for i, w := range want {
			v, err := p.ReadU32(a.addr(i))
			if err != nil {
				return err
			}
			got := f32frombits(v)
			d := got - w
			if d < 0 {
				d = -d
			}
			lim := tol
			if w > 0 && w*tol > lim {
				lim = w * tol
			} else if w < 0 && -w*tol > lim {
				lim = -w * tol
			}
			if d > lim {
				return fmt.Errorf("workload: element %d = %v, want %v", i, got, w)
			}
		}
		return nil
	}
}

// expectI32 builds a Verify function comparing an i32 array exactly.
func expectI32(a i32, want []int32) func(p *hostos.Process) error {
	return func(p *hostos.Process) error {
		for i, w := range want {
			v, err := p.ReadU32(a.addr(i))
			if err != nil {
				return err
			}
			if int32(v) != w {
				return fmt.Errorf("workload: element %d = %d, want %d", i, int32(v), w)
			}
		}
		return nil
	}
}

// rng is a small deterministic xorshift generator so graphs and inputs are
// reproducible without math/rand's global state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float32 {
	return float32(r.next()%1000000) / 1000000
}

// sortedUnique sorts xs and drops duplicates.
func sortedUnique(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
