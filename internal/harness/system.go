// Package harness assembles full simulated systems for the five safety
// configurations the paper evaluates (Table 2), runs the Rodinia-derived
// workloads on them, and regenerates every table and figure of the paper's
// evaluation section.
package harness

import (
	"fmt"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/ats"
	"bordercontrol/internal/coherence"
	"bordercontrol/internal/core"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
)

// Mode is one of the five evaluated safety configurations (paper Table 2).
type Mode int

// The configurations under study.
const (
	// ATSOnly is the unsafe baseline: the IOMMU serves only initial
	// translations, the GPU keeps physical TLBs and caches, and nothing
	// checks its physical requests.
	ATSOnly Mode = iota
	// FullIOMMU translates and checks every request at the IOMMU; the
	// accelerator keeps no TLB and no caches.
	FullIOMMU
	// CAPILike implements the TLB and a shared cache in trusted hardware,
	// farther from the accelerator.
	CAPILike
	// BCNoBCC is Border Control with only the in-memory Protection Table.
	BCNoBCC
	// BCBCC is Border Control with the Border Control Cache.
	BCBCC
)

// Modes lists the five configurations in the paper's order.
func Modes() []Mode { return []Mode{ATSOnly, FullIOMMU, CAPILike, BCNoBCC, BCBCC} }

// SafeModes lists the four configurations compared against the baseline in
// Figure 4.
func SafeModes() []Mode { return []Mode{FullIOMMU, CAPILike, BCNoBCC, BCBCC} }

func (m Mode) String() string {
	switch m {
	case ATSOnly:
		return "ATS-only IOMMU"
	case FullIOMMU:
		return "Full IOMMU"
	case CAPILike:
		return "CAPI-like"
	case BCNoBCC:
		return "Border Control-noBCC"
	case BCBCC:
		return "Border Control-BCC"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Safe reports whether the configuration provides memory safety from the
// accelerator.
func (m Mode) Safe() bool { return m != ATSOnly }

// GPUClass selects between the two GPU proxies of §5.1.
type GPUClass int

// The two GPU configurations.
const (
	// HighlyThreaded is the 8-CU latency-tolerant proxy.
	HighlyThreaded GPUClass = iota
	// ModeratelyThreaded is the 1-CU latency-sensitive proxy.
	ModeratelyThreaded
)

func (c GPUClass) String() string {
	if c == ModeratelyThreaded {
		return "moderately threaded"
	}
	return "highly threaded"
}

// Params collects every knob of the simulated system; DefaultParams mirrors
// paper Table 3.
type Params struct {
	PhysMemBytes uint64
	CPUHz        float64
	GPUHz        float64
	DRAM         memory.DRAMConfig

	// GPU geometry per class.
	HighCUs        int
	HighWavesPerCU int
	HighL2Bytes    int
	ModCUs         int
	ModWavesPerCU  int
	ModL2Bytes     int

	// Border Control.
	//
	// Border selects the protection architecture guarding the accelerator
	// in the BC modes — one of core.Designs() ("flat", "sparta", "range").
	// It subsumes the old bare UseBCC switch: the BCC on/off axis stays on
	// Mode (BCNoBCC vs BCBCC), and Border picks the design under it.
	Border          string
	BCC             core.BCCConfig
	BCCLatencyCyc   uint64 // GPU cycles
	TableLatencyCyc uint64 // GPU cycles of EXTRA table latency beyond DRAM
	SelectiveFlush  bool
	EagerPopulate   bool

	// DirLatencyCyc is the coherence-point traversal cost in GPU cycles,
	// paid identically by every configuration.
	DirLatencyCyc uint64

	// Scale multiplies workload problem sizes.
	Scale int
}

// DefaultParams returns the Table 3 system.
func DefaultParams() Params {
	return Params{
		PhysMemBytes: 16 << 30, // 16 GB; Protection Table = 1 MB
		CPUHz:        3e9,
		GPUHz:        700e6,
		DRAM:         memory.DefaultDRAMConfig(),

		HighCUs:        8,
		HighWavesPerCU: 24,
		HighL2Bytes:    256 << 10,
		ModCUs:         1,
		ModWavesPerCU:  10,
		ModL2Bytes:     64 << 10,

		Border:          core.DefaultDesign,
		BCC:             core.DefaultBCCConfig(),
		BCCLatencyCyc:   10,
		TableLatencyCyc: 0,
		SelectiveFlush:  true,

		DirLatencyCyc: 4,
		Scale:         1,
	}
}

// System is one fully-assembled simulated machine.
type System struct {
	Mode  Mode
	Class GPUClass

	Eng   *sim.Engine
	Store *memory.Store
	DRAM  *memory.DRAM
	OS    *hostos.OS
	ATS   *ats.ATS
	Dir   *coherence.Directory
	BC    core.ProtectionArchitecture // nil except in BC modes
	GPU   *accel.GPU
	Hier  accel.Hierarchy
	// Port is the border port of the accelerator's outermost cache: the
	// physical-request path into the trusted memory system, and the
	// attachment point for threat-model experiments.
	Port *accel.BorderPort

	GPUClock sim.Clock
	Name     string // accelerator name

	// Metrics is the run-scoped registry every component registered its
	// counters with at assembly time. Snapshot it after a run for the full
	// hierarchical view ("engine.events", "gpu.l2.hits",
	// "border.bcc.miss_ratio", ...).
	Metrics *stats.Registry
}

// registerMetrics builds the system's registry. Registration stores
// accessors only, so it has no effect on simulated behaviour.
func (sys *System) registerMetrics() {
	reg := stats.NewRegistry()
	sys.Eng.RegisterMetrics(reg.Scope("engine"))
	sys.DRAM.RegisterMetrics(reg.Scope("dram"))
	sys.ATS.RegisterMetrics(reg.Scope("iommu"))
	sys.Dir.RegisterMetrics(reg.Scope("coherence"))
	if sys.BC != nil {
		sys.BC.RegisterMetrics(reg.Scope("border"))
	}
	gpu := reg.Scope("gpu")
	sys.GPU.RegisterMetrics(gpu)
	// Each hierarchy registers its own cache/TLB/port structure; the
	// optional interface keeps custom test hierarchies assembly-compatible.
	if rm, ok := sys.Hier.(interface{ RegisterMetrics(stats.Scope) }); ok {
		rm.RegisterMetrics(gpu)
	}
	sys.Metrics = reg
}

// AttachTracer threads a timeline tracer through the engine, the border,
// and the GPU. Tracing is pure observation — attaching a tracer never
// changes simulated timing — and a nil tracer detaches cleanly.
func (sys *System) AttachTracer(t *trace.Tracer) {
	sys.Eng.Tracer = t
	if sys.BC != nil {
		sys.BC.SetTracer(t)
	}
	sys.GPU.SetTracer(t)
}

// AttachProfiler threads a simulated-time profiler through the border, the
// IOMMU/ATS, and the accelerator hierarchy. Like tracing it is pure
// observation — components only report latencies they already computed —
// and a nil profiler detaches cleanly.
func (sys *System) AttachProfiler(p *prof.Profiler) {
	if sys.BC != nil {
		sys.BC.SetProfiler(p)
	}
	sys.ATS.SetProfiler(p)
	if sp, ok := sys.Hier.(interface{ SetProfiler(*prof.Profiler) }); ok {
		sp.SetProfiler(p)
	} else if sys.Port != nil {
		sys.Port.SetProfiler(p)
	}
}

// atsShootdown forwards OS downgrades to the trusted L2 TLB.
type atsShootdown struct{ ats *ats.ATS }

func (a atsShootdown) OnDowngrade(d hostos.Downgrade) {
	a.ats.InvalidatePage(d.ASID, d.VPN)
}

// NewSystem assembles a machine for the given configuration. The params
// must be complete: NewSystem validates them and rejects partially-filled
// values with a descriptive error (see Params.Validate / Normalize).
func NewSystem(mode Mode, class GPUClass, p Params) (*System, error) {
	return NewSystemWithEngine(&sim.Engine{}, mode, class, p)
}

// NewSystemWithEngine is NewSystem on a caller-provided event engine —
// typically one shard of a sim.ShardedEngine, so the whole machine (GPU,
// hierarchy, border, OS, DRAM) is bound to that shard and a fleet of such
// machines can execute concurrently. The engine must be fresh: no events
// fired, clock at zero.
func NewSystemWithEngine(eng *sim.Engine, mode Mode, class GPUClass, p Params) (*System, error) {
	if eng == nil {
		return nil, fmt.Errorf("harness: NewSystemWithEngine needs an engine")
	}
	if eng.Now() != 0 || eng.Fired() != 0 {
		return nil, fmt.Errorf("harness: NewSystemWithEngine needs a fresh engine (now=%d, fired=%d)",
			eng.Now(), eng.Fired())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gpuClock, err := sim.NewClock(p.GPUHz)
	if err != nil {
		return nil, err
	}
	store, err := memory.NewStore(p.PhysMemBytes)
	if err != nil {
		return nil, err
	}
	dram, err := memory.NewDRAM(store, p.DRAM)
	if err != nil {
		return nil, err
	}
	osmodel := hostos.New(store)
	atsvc, err := ats.New(ats.DefaultConfig(gpuClock), osmodel, dram)
	if err != nil {
		return nil, err
	}
	dir := coherence.NewDirectory(store)

	sys := &System{
		Mode:     mode,
		Class:    class,
		Eng:      eng,
		Store:    store,
		DRAM:     dram,
		OS:       osmodel,
		ATS:      atsvc,
		Dir:      dir,
		GPUClock: gpuClock,
		Name:     "gpu0",
	}
	osmodel.AddShootdownListener(atsShootdown{atsvc})

	cus, waves, l2 := p.HighCUs, p.HighWavesPerCU, p.HighL2Bytes
	if class == ModeratelyThreaded {
		cus, waves, l2 = p.ModCUs, p.ModWavesPerCU, p.ModL2Bytes
	}
	dirLat := gpuClock.Cycles(p.DirLatencyCyc)

	switch mode {
	case ATSOnly, BCNoBCC, BCBCC:
		var bc core.ProtectionArchitecture
		if mode != ATSOnly {
			cfg := core.Config{
				UseBCC:         mode == BCBCC,
				BCC:            p.BCC,
				BCCLatency:     gpuClock.Cycles(p.BCCLatencyCyc),
				TableLatency:   gpuClock.Cycles(p.TableLatencyCyc),
				SelectiveFlush: p.SelectiveFlush,
				EagerPopulate:  p.EagerPopulate,
			}
			bc, err = core.NewArchitecture(p.Border, sys.Name, cfg, osmodel, dram, eng)
			if err != nil {
				return nil, err
			}
			atsvc.AddObserver(bc)
			sys.BC = bc
		}
		scfg := accel.DefaultSandboxConfig(sys.Name, gpuClock, cus, l2)
		agent := dir.ReserveAgent()
		port := accel.NewBorderPort(bc, dir, agent, dram, dirLat)
		hier, err := accel.NewSandboxed(scfg, eng, atsvc, port)
		if err != nil {
			return nil, err
		}
		dir.BindAgent(agent, hier)
		sys.Port = port
		if bc != nil {
			bc.SetAccelerator(hier)
			osmodel.AddShootdownListener(hier) // drain + TLB invalidation
			osmodel.AddShootdownListener(bc)   // flush + table update
		} else {
			osmodel.AddShootdownListener(hier)
		}
		sys.Hier = hier

	case FullIOMMU:
		agent := dir.ReserveAgent()
		port := accel.NewBorderPort(nil, dir, agent, dram, dirLat)
		hier := accel.NewIOMMUHierarchy(sys.Name, eng, atsvc, port, gpuClock)
		dir.BindAgent(agent, hier)
		sys.Port = port
		osmodel.AddShootdownListener(hier)
		sys.Hier = hier

	case CAPILike:
		ccfg := accel.DefaultCAPIConfig(sys.Name, gpuClock, l2)
		agent := dir.ReserveAgent()
		port := accel.NewBorderPort(nil, dir, agent, dram, dirLat)
		hier, err := accel.NewCAPIHierarchy(ccfg, eng, atsvc, port)
		if err != nil {
			return nil, err
		}
		dir.BindAgent(agent, hier)
		sys.Port = port
		osmodel.AddShootdownListener(hier)
		sys.Hier = hier

	default:
		return nil, fmt.Errorf("harness: unknown mode %v", mode)
	}

	gcfg := accel.GPUConfig{Name: sys.Name, Clock: gpuClock, CUs: cus, WavesPerCU: waves}
	gpu, err := accel.NewGPU(gcfg, eng, sys.Hier)
	if err != nil {
		return nil, err
	}
	sys.GPU = gpu
	sys.registerMetrics()
	return sys, nil
}
