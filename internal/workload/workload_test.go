package workload

import (
	"bytes"
	"reflect"
	"testing"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
)

func newProc(t testing.TB) *hostos.Process {
	t.Helper()
	store, err := memory.NewStore(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := hostos.New(store).NewProcess("wl")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegistry(t *testing.T) {
	want := []string{"backprop", "bfs", "hotspot", "lud", "nn", "nw", "pathfinder"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v", got)
	}
	if len(All()) != 7 {
		t.Error("All() should list the seven Rodinia-derived benchmarks")
	}
	if _, ok := ByName("bfs"); !ok {
		t.Error("ByName(bfs) missed")
	}
	if _, ok := ByName("doom"); ok {
		t.Error("ByName(doom) should miss")
	}
	for _, s := range All() {
		if s.Description == "" || s.Build == nil {
			t.Errorf("%s: incomplete spec", s.Name)
		}
	}
}

// TestEveryWorkload builds each benchmark and checks the structural
// invariants every generator must satisfy: a non-trivial phased program,
// ops inside mapped memory, payloads on stores, sector-sized accesses, and
// a Verify that passes on the freshly generated state.
func TestEveryWorkload(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := newProc(t)
			prog, err := spec.Build(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Name != spec.Name {
				t.Errorf("program name %q", prog.Name)
			}
			if len(prog.Phases) == 0 {
				t.Fatal("no phases")
			}
			if prog.Ops() < 1000 {
				t.Errorf("only %d ops; not a meaningful workload", prog.Ops())
			}
			if prog.Verify == nil {
				t.Fatal("no verifier")
			}
			if err := prog.Verify(p); err != nil {
				t.Fatalf("fresh state fails verification: %v", err)
			}
			checkOps(t, p, prog)
		})
	}
}

func checkOps(t *testing.T, p *hostos.Process, prog *accel.Program) {
	t.Helper()
	var reads, writes uint64
	for _, ph := range prog.Phases {
		if len(ph.Traces) == 0 {
			t.Errorf("phase %q has no traces", ph.Name)
		}
		for _, tr := range ph.Traces {
			if len(tr) == 0 {
				t.Error("empty trace")
			}
			for _, op := range tr {
				if op.Size == 0 || int(op.Size) > 32 {
					t.Fatalf("op size %d out of range", op.Size)
				}
				// The access must stay inside one 32-byte sector (and
				// therefore one cache block).
				if uint64(op.Addr)/32 != (uint64(op.Addr)+uint64(op.Size)-1)/32 {
					t.Fatalf("op at %#x size %d crosses a sector", op.Addr, op.Size)
				}
				switch op.Kind {
				case arch.Read:
					reads++
					if op.Payload != 0 {
						t.Fatal("load carries data")
					}
				case arch.Write:
					writes++
					if op.Payload == 0 || int(op.Payload-1)+int(op.Size) > len(ph.Data) {
						t.Fatalf("store payload ref %d of %d bytes outside the %d-byte arena", op.Payload, op.Size, len(ph.Data))
					}
				}
				// Every access must translate (the page was faulted during
				// generation).
				if _, err := p.Translate(op.Addr, op.Kind); err != nil {
					t.Fatalf("op at %#x does not translate: %v", op.Addr, err)
				}
			}
		}
	}
	if reads == 0 || writes == 0 {
		t.Errorf("reads=%d writes=%d; expected both", reads, writes)
	}
}

// TestDeterministicGeneration: building the same workload twice in fresh
// processes yields identical traces — a requirement for reproducible
// experiments.
func TestDeterministicGeneration(t *testing.T) {
	for _, name := range []string{"bfs", "hotspot"} {
		spec, _ := ByName(name)
		p1, p2 := newProc(t), newProc(t)
		a, err := spec.Build(p1, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build(p2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Phases) != len(b.Phases) {
			t.Fatalf("%s: phase counts differ", name)
		}
		for i := range a.Phases {
			if !reflect.DeepEqual(a.Phases[i].Traces, b.Phases[i].Traces) {
				t.Fatalf("%s: phase %d traces differ", name, i)
			}
		}
	}
}

func TestScaleGrowsProblem(t *testing.T) {
	spec, _ := ByName("nn")
	small, err := spec.Build(newProc(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := spec.Build(newProc(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if big.Ops() <= small.Ops() {
		t.Errorf("scale 2 ops (%d) <= scale 1 ops (%d)", big.Ops(), small.Ops())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	// Verify must actually detect wrong results: corrupt one output word
	// and expect a failure.
	spec, _ := ByName("pathfinder")
	p := newProc(t)
	prog, err := spec.Build(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last store of the program and flip its memory location.
	var lastStore *accel.Op
	for pi := range prog.Phases {
		for ti := range prog.Phases[pi].Traces {
			for oi := range prog.Phases[pi].Traces[ti] {
				op := &prog.Phases[pi].Traces[ti][oi]
				if op.Kind == arch.Write {
					lastStore = op
				}
			}
		}
	}
	if lastStore == nil {
		t.Fatal("no store found")
	}
	if err := p.Write(lastStore.Addr, []byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	if err := prog.Verify(p); err == nil {
		t.Error("verifier missed deliberate corruption")
	}
}

func TestCoalescing(t *testing.T) {
	// A 32-float (128-byte) aligned store becomes exactly four 32-byte
	// sector ops carrying the full payload.
	p := newProc(t)
	arr := allocF32(p, 64) // panics (genError) only if the process is broken
	ph := newPhase("t")
	w := ph.wavefront()
	vals := make([]float32, 32)
	for i := range vals {
		vals[i] = float32(i)
	}
	w.storeF32s(arr, 0, vals)
	if len(w.ops) != 4 {
		t.Fatalf("coalesced into %d ops, want 4", len(w.ops))
	}
	total := 0
	for i, op := range w.ops {
		got := op.PayloadIn(ph.data)
		want := make([]byte, 32)
		if err := p.Read(op.Addr, want); err != nil {
			t.Fatal(err)
		}
		if op.Size != 32 || !bytes.Equal(got, want) {
			t.Errorf("sector op %d: size %d payload %v, memory holds %v", i, op.Size, got, want)
		}
		total += int(op.Size)
	}
	if total != 128 {
		t.Errorf("coverage %d bytes, want 128", total)
	}
	// Compute cycles attach to the first op only.
	w2 := ph.wavefront()
	w2.compute(10)
	w2.loadF32s(arr, 0, 32)
	if w2.ops[0].Compute != 10 || w2.ops[1].Compute != 0 {
		t.Error("pending compute should attach to the first coalesced op")
	}
}

func TestBFSGraphIsTraversed(t *testing.T) {
	// The bfs result must be a valid BFS labelling: level 0 exactly at the
	// root, and every level-k node found through the trace.
	spec, _ := ByName("bfs")
	p := newProc(t)
	prog, err := spec.Build(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Phases) < 3 {
		t.Errorf("bfs finished in %d levels; suspicious graph", len(prog.Phases))
	}
	// Phases shrink/grow with the frontier: at least one phase must have
	// many traces (wide frontier).
	max := 0
	for _, ph := range prog.Phases {
		if len(ph.Traces) > max {
			max = len(ph.Traces)
		}
	}
	if max < 8 {
		t.Errorf("widest frontier only %d wavefronts", max)
	}
}

func TestAllReturnsCopy(t *testing.T) {
	// Concurrent sweeps share the registry; a caller mutating the slice
	// All() hands out must not corrupt it for everyone else.
	mutated := All()
	if len(mutated) == 0 {
		t.Fatal("empty registry")
	}
	original := mutated[0]
	mutated[0] = Spec{Name: "corrupted", Build: nil}
	fresh := All()
	if fresh[0].Name != original.Name || fresh[0].Build == nil {
		t.Fatalf("All() aliases the registry: mutation leaked (got %q)", fresh[0].Name)
	}
	if names := Names(); names[0] != original.Name {
		t.Fatalf("Names()[0] = %q after mutation, want %q", names[0], original.Name)
	}
}
