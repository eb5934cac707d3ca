// Package bordercontrol is a full-system reproduction of "Border Control:
// Sandboxing Accelerators" (Olson, Power, Hill, Wood — MICRO-48, 2015).
//
// Border Control is a hardware sandbox at the boundary between an untrusted
// accelerator (with its own TLBs and physically-addressed caches) and the
// trusted host memory system: every memory request crossing the border is
// checked against a per-accelerator, physically-indexed Protection Table
// (2 bits per physical page, populated lazily from IOMMU/ATS translations)
// backed by a small Border Control Cache.
//
// The package exposes two levels of API:
//
//   - The mechanism: ProtectionTable, BCC and BorderControl — the paper's
//     contribution, usable inside any simulated memory system.
//   - The evaluation: fully assembled simulated systems (CPU + OS + page
//     tables + IOMMU/ATS + coherent GPU cache hierarchies + DRAM) for the
//     five safety configurations the paper compares, the seven
//     Rodinia-derived workloads, and generators for every table and figure
//     in the paper's evaluation section.
//
// Quick start:
//
//	res, err := bordercontrol.Run(bordercontrol.BCBCC,
//	    bordercontrol.HighlyThreaded, "bfs", bordercontrol.DefaultParams(),
//	    bordercontrol.RunOptions{})
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package bordercontrol

import (
	"context"
	"fmt"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/adversary"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/core"
	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
	"bordercontrol/internal/workload"
)

// Mode selects one of the five evaluated safety configurations.
type Mode = harness.Mode

// The configurations under study (paper Table 2).
const (
	// ATSOnly is the unsafe baseline: translations served by the IOMMU,
	// physical requests unchecked.
	ATSOnly = harness.ATSOnly
	// FullIOMMU translates and checks every request; no accelerator caches.
	FullIOMMU = harness.FullIOMMU
	// CAPILike keeps TLB and cache in trusted hardware, CAPI-style.
	CAPILike = harness.CAPILike
	// BCNoBCC is Border Control with only the in-memory Protection Table.
	BCNoBCC = harness.BCNoBCC
	// BCBCC is Border Control with the Border Control Cache — the paper's
	// headline configuration.
	BCBCC = harness.BCBCC
)

// GPUClass selects the accelerator proxy.
type GPUClass = harness.GPUClass

// The two GPU proxies of paper §5.1.
const (
	// HighlyThreaded is the 8-CU, latency-tolerant GPU.
	HighlyThreaded = harness.HighlyThreaded
	// ModeratelyThreaded is the 1-CU, latency-sensitive GPU.
	ModeratelyThreaded = harness.ModeratelyThreaded
)

// Params collects every system parameter (paper Table 3 by default).
type Params = harness.Params

// RunOptions tunes one execution (downgrade injection, verification).
type RunOptions = harness.RunOptions

// Result reports one workload execution.
type Result = harness.RunResult

// System is a fully assembled simulated machine; use it directly for
// custom experiments beyond the stock Run entry point.
type System = harness.System

// DefaultParams returns the paper's Table 3 system configuration.
func DefaultParams() Params { return harness.DefaultParams() }

// Modes lists the five configurations in the paper's order.
func Modes() []Mode { return harness.Modes() }

// Workloads lists the seven Rodinia-derived benchmark names in the paper's
// order.
func Workloads() []string { return workload.Names() }

// NewSystem assembles a simulated machine for the given configuration.
func NewSystem(mode Mode, class GPUClass, p Params) (*System, error) {
	return harness.NewSystem(mode, class, p)
}

// Run executes the named workload on a fresh system and reports its
// runtime, border statistics, and functional-verification outcome.
func Run(mode Mode, class GPUClass, workloadName string, p Params, opts RunOptions) (Result, error) {
	return RunCtx(context.Background(), mode, class, workloadName, p, opts)
}

// RunCtx is Run with cooperative cancellation: the simulation engine polls
// ctx between events, so cancelling (or timing out) ctx aborts the
// simulation promptly with a *RunError wrapping ctx.Err().
func RunCtx(ctx context.Context, mode Mode, class GPUClass, workloadName string, p Params, opts RunOptions) (Result, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return Result{}, fmt.Errorf("bordercontrol: unknown workload %q (have %v)", workloadName, workload.Names())
	}
	return harness.RunCtx(ctx, mode, class, spec, p, opts)
}

// RunError identifies which simulation of a sweep failed: workload, mode,
// GPU class, failing stage, and the wrapped cause (for a GPU abort, the
// border-violation detail).
type RunError = harness.RunError

// Fleet-scale evaluation: many tenant accelerator sandboxes — each a full
// System with its own OS, ASID, IOMMU/ATS, border and caches — execute on
// one sharded conservative-parallel simulation, coordinated by a host
// shard. Host<->accelerator border crossings (launch doorbells, completion
// interrupts, downgrade commands) are the cross-shard messages; results
// are bit-identical at any worker count.

// FleetParams configures a fleet run (tenant count, mode, class, crossing
// lookahead, launch spread, churn cadence, seed, worker goroutines).
type FleetParams = harness.FleetParams

// FleetResult reports a fleet run; its Render output is deterministic.
type FleetResult = harness.FleetResult

// DefaultFleetParams returns a small fleet exercising every protocol path.
func DefaultFleetParams() FleetParams { return harness.DefaultFleetParams() }

// RunFleet executes the named workload on every tenant of a fleet.
func RunFleet(p Params, fp FleetParams, workloadName string) (FleetResult, error) {
	return RunFleetCtx(context.Background(), p, fp, workloadName)
}

// RunFleetCtx is RunFleet with cooperative cancellation: every shard of
// the fleet polls ctx and stops promptly.
func RunFleetCtx(ctx context.Context, p Params, fp FleetParams, workloadName string) (FleetResult, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return FleetResult{}, fmt.Errorf("bordercontrol: unknown workload %q (have %v)", workloadName, workload.Names())
	}
	return harness.RunFleetCtx(ctx, p, fp, spec)
}

// Observability: every Result (and sweep artifact) carries a hierarchical
// metrics Snapshot, and runs can record Chrome trace-event timelines.

// Snapshot is an immutable, name-ordered capture of every metric a run's
// System registered (dotted paths: "border.bcc.miss_ratio", "gpu.l2.hits",
// "engine.events", ...). It marshals to a flat ordered JSON object.
type Snapshot = stats.Snapshot

// HostStats is a run's host-side self-measurement (wall clock, events
// fired, events per second); it feeds `bctool bench`.
type HostStats = harness.HostStats

// MergeSnapshots combines snapshots sample-by-sample: counters sum, ratio
// gauges average. Use it to aggregate the runs of a custom sweep.
func MergeSnapshots(snaps ...Snapshot) Snapshot { return stats.Merge(snaps...) }

// Tracer records simulation events in Chrome trace-event form; pass one in
// RunOptions.Tracer and write it with WriteJSON (open in Perfetto or
// chrome://tracing).
type Tracer = trace.Tracer

// TraceSet merges the per-job Tracers of a sweep into one trace file, one
// Perfetto process per job; set it on Exec.Trace.
type TraceSet = trace.Multi

// NewTracer builds a Tracer recording the given categories ("engine",
// "gpu", "border", "border.check", ... — comma-splitting each argument);
// with no categories it records everything.
func NewTracer(categories ...string) *Tracer { return trace.New(categories...) }

// NewTraceSet builds a TraceSet whose per-job Tracers record the given
// categories.
func NewTraceSet(categories ...string) *TraceSet { return trace.NewMulti(categories...) }

// Histogram is a fixed-bucket log-linear latency histogram recording
// simulated-time values with zero allocations; HistSnapshot is its
// immutable capture (exact bucket counts plus p50/p90/p99 computed from
// them). Every Result's Stats snapshot carries one per instrumented
// latency path ("border.latency_ps.bcc_hit", "iommu.translate_latency_ps",
// "engine.queue_depth", ...).
type (
	Histogram    = stats.Histogram
	HistSnapshot = stats.HistSnapshot
)

// Kind discriminates the samples of a Snapshot.
type Kind = stats.Kind

// The sample kinds.
const (
	KindCounter   = stats.KindCounter
	KindGauge     = stats.KindGauge
	KindHistogram = stats.KindHistogram
)

// ValidateStatsJSON checks a `-stats-json` document: a flat JSON object
// whose object-valued entries must each be a well-formed histogram encoding
// (required keys, genuine bucket bounds of the fixed scheme, counts that
// sum, percentiles that recompute) and whose other entries are numbers. It
// returns the number of histograms validated; it backs
// `bctool tracecheck -stats`.
func ValidateStatsJSON(blob []byte) (int, error) { return stats.ValidateSnapshotJSON(blob) }

// Profiler attributes simulated picoseconds to component paths
// ("gpu/wavefront;border/bcc", ...) as a run executes; write the result
// with WriteFolded (flamegraph folded-stacks text) or WritePprof (a pprof
// protobuf `go tool pprof` opens). Pass one in RunOptions.Profiler. Pure
// observation: a profiled run is byte-identical to an unprofiled one.
type Profiler = prof.Profiler

// NewProfiler returns an empty simulated-time profiler.
func NewProfiler() *Profiler { return prof.New() }

// ProfileConfig is one (mode, GPU class) cell of the profiling matrix.
type ProfileConfig = harness.ProfileConfig

// ProfileMatrix lists the configurations Profile attributes — the same
// matrix `bctool bench` measures.
func ProfileMatrix() []ProfileConfig { return harness.ProfileMatrix() }

// Profile runs the workload across the profiling matrix with per-job
// profilers attached and returns the merged simulated-time profile. The
// merge is a commutative per-stack sum, so the output is byte-identical at
// any Exec.Jobs setting.
func Profile(ctx context.Context, ex Exec, p Params, workloadName string) (*Profiler, error) {
	return harness.Profile(ctx, ex.toHarness(), p, workloadName)
}

// ProfileRun profiles a single (mode, class, workload) simulation.
func ProfileRun(ctx context.Context, mode Mode, class GPUClass, p Params, workloadName string) (*Profiler, error) {
	return harness.ProfileRun(ctx, mode, class, p, workloadName)
}

// The experiment-execution layer (internal/exp): every figure, table and
// probe sweep decomposes into independent jobs over fresh Systems, runs on
// a bounded worker pool, and collects results in submission order — so
// parallel artifacts are byte-identical to serial ones.

// JobResult is one finished experiment job, as delivered to Exec.Progress.
type JobResult struct {
	// Index is the job's position in the sweep's submission order.
	Index int
	// Name labels the job (e.g. "fig4/high/BC-BCC/bfs").
	Name string
	// Err is the job's failure, nil on success.
	Err error
	// Elapsed is the host wall-clock time the job took.
	Elapsed time.Duration
}

// Exec configures sweep execution: Jobs workers (0 = GOMAXPROCS, 1 =
// serial), an optional per-job Timeout, an optional Progress callback, and
// an optional TraceSet collecting per-job timelines.
type Exec struct {
	// Jobs bounds concurrent simulations: 0 = GOMAXPROCS, 1 = serial.
	Jobs int
	// Timeout, when positive, bounds each simulation.
	Timeout time.Duration
	// Progress, when non-nil, receives each finished job in completion
	// order (calls are serialized).
	Progress func(JobResult)
	// Trace, when non-nil, collects one Chrome-trace timeline per job of
	// the sweep (open the written file in Perfetto). Pure observation:
	// rendered artifacts are byte-identical with it on.
	Trace *TraceSet
	// Shards, when positive, executes every simulation of the sweep on
	// the sharded conservative-parallel engine with that many worker
	// goroutines (see RunOptions.Shards). Execution machinery only:
	// artifacts are byte-identical at any setting.
	Shards int
}

// toHarness converts the facade Exec to the internal execution config.
func (e Exec) toHarness() harness.Exec {
	hx := harness.Exec{Jobs: e.Jobs, Timeout: e.Timeout, Trace: e.Trace, Shards: e.Shards}
	if e.Progress != nil {
		progress := e.Progress
		hx.Progress = func(r exp.Result) {
			progress(JobResult{Index: r.Index, Name: r.Name, Err: r.Err, Elapsed: r.Elapsed})
		}
	}
	return hx
}

// Figure4, Figure5, Figure6 and Figure7 regenerate the paper's evaluation
// figures on the parallel execution layer; each result renders itself as a
// text table and carries the sweep's merged metrics snapshot in its Stats
// field. The context cancels or times out the whole sweep; Exec bounds
// parallelism and reports progress (the zero Exec uses all cores).

// Figure4 reproduces paper Figure 4 (runtime by configuration) for one GPU
// class across all workloads.
func Figure4(ctx context.Context, ex Exec, class GPUClass, p Params) (harness.Figure4Result, error) {
	return harness.Figure4(ctx, ex.toHarness(), class, p)
}

// Figure5 reproduces paper Figure 5 (border requests per cycle).
func Figure5(ctx context.Context, ex Exec, p Params) (harness.Figure5Result, error) {
	return harness.Figure5(ctx, ex.toHarness(), p)
}

// Figure6 reproduces paper Figure 6 (BCC miss ratio vs geometry).
func Figure6(ctx context.Context, ex Exec, p Params) (harness.Figure6Result, error) {
	return harness.Figure6(ctx, ex.toHarness(), p)
}

// Figure7 reproduces paper Figure 7 (downgrade-rate sensitivity).
func Figure7(ctx context.Context, ex Exec, p Params) (harness.Figure7Result, error) {
	return harness.Figure7(ctx, ex.toHarness(), p)
}

// FigureBorders compares the registered border designs: the Figure 4
// BC-BCC sweep repeated once per design (flat, range, sparta) for one GPU
// class, with the ATS-only baseline. Every design enforces identical
// decisions (DESIGN.md §14); the figure isolates what each costs.
func FigureBorders(ctx context.Context, ex Exec, class GPUClass, p Params) (harness.FigureBordersResult, error) {
	return harness.FigureBorders(ctx, ex.toHarness(), class, p)
}

// RenderTable1, RenderTable2 and RenderTable3 regenerate the paper's
// tables.
var (
	RenderTable1 = harness.RenderTable1
	RenderTable2 = harness.RenderTable2
	RenderTable3 = harness.RenderTable3
)

// SecurityMatrix probes every configuration with the paper's §2.1 threat
// vectors (wild reads/writes, stale-TLB writes, late writebacks) and
// RenderSecurityMatrix prints the BLOCKED/VULNERABLE table.
func SecurityMatrix(ctx context.Context, ex Exec, p Params) ([]harness.SecurityResult, error) {
	return harness.SecurityMatrix(ctx, ex.toHarness(), p)
}

// RenderSecurityMatrix prints the BLOCKED/VULNERABLE table.
var RenderSecurityMatrix = harness.RenderSecurityMatrix

// AdversaryReport is one seeded attack run's outcome set; see
// RunAdversary.
type AdversaryReport = adversary.Report

// RunAdversary runs seeded sandbox-escape campaigns: malicious-accelerator
// attacks (stale-TLB replay, ignored flushes, in-flight DMA races,
// out-of-bounds probes, cross-ASID replay, fabricated writebacks) against
// freshly assembled Border Control systems, with a shadow-memory oracle
// auditing every border crossing. Campaign i uses seed+i and rotates the
// protocol variant (BCC on/off, selective vs full flush). attacks may be
// nil for the full vocabulary. The report is deterministic: the same seed
// renders byte-identically.
func RunAdversary(ctx context.Context, ex Exec, p Params, seed int64, campaigns int, attacks []string) (AdversaryReport, error) {
	return harness.AdversaryReport(ctx, ex.toHarness(), p, seed, campaigns, attacks)
}

// RenderAdversaryReport prints the campaign report, including a single
// reproducing seed per failing attack.
var RenderAdversaryReport = adversary.Render

// AdversaryAttacks lists the attack vocabulary in report order.
var AdversaryAttacks = adversary.AttackNames

// Config configures a full evaluation sweep (RunAll).
type Config struct {
	// Params is the simulated-system configuration; the zero value means
	// DefaultParams(). Any other value must pass Params.Validate.
	Params Params
	// Exec controls parallelism, per-job timeouts, progress reporting and
	// tracing.
	Exec Exec
}

// Artifact is one rendered evaluation artifact: its text and (for the
// simulation-backed artifacts) the merged metrics snapshot of the runs
// behind it.
type Artifact struct {
	Name string
	Text string
	// Stats aggregates the metrics snapshots of the simulations behind
	// this artifact (empty for the static tables and the security matrix).
	Stats Snapshot
}

// RunAll regenerates every evaluation artifact — the three tables, the
// four figures (Figure 4 for both GPU classes) and the security matrix —
// on the parallel execution layer, returning them in the paper's order.
// The figures reduce one grid of simulations (harness.Evaluate). It fails
// on the first failed job (in submission order), so any broken simulation
// yields a non-nil error and nil artifacts rather than a silently partial
// sweep.
func RunAll(ctx context.Context, cfg Config) ([]Artifact, error) {
	p := cfg.Params.Normalize()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("bordercontrol: %w", err)
	}
	ex := cfg.Exec.toHarness()
	ev, err := harness.Evaluate(ctx, ex, p)
	if err != nil {
		return nil, fmt.Errorf("bordercontrol: %w", err)
	}
	sec, err := harness.SecurityMatrix(ctx, ex, p)
	if err != nil {
		return nil, fmt.Errorf("bordercontrol: security: %w", err)
	}
	high, mod := ev.Figure4[0], ev.Figure4[1]
	return []Artifact{
		{Name: "table1", Text: RenderTable1() + "\n"},
		{Name: "table2", Text: RenderTable2() + "\n"},
		{Name: "table3", Text: RenderTable3(p) + "\n"},
		{Name: "fig4", Text: high.Render() + "\n" + mod.Render() + "\n", Stats: stats.Merge(high.Stats, mod.Stats)},
		{Name: "fig5", Text: ev.Figure5.Render() + "\n", Stats: ev.Figure5.Stats},
		{Name: "fig6", Text: ev.Figure6.Render() + "\n", Stats: ev.Figure6.Stats},
		{Name: "fig7", Text: ev.Figure7.Render() + "\n", Stats: ev.Figure7.Stats},
		{Name: "security", Text: RenderSecurityMatrix(sec)},
	}, nil
}

// The mechanism-level API: the paper's structures, reusable inside any
// simulated memory system.

// ProtectionTable is the flat, physically-indexed permission table (2 bits
// per physical page) living in simulated physical memory.
type ProtectionTable = core.ProtectionTable

// BCC is the Border Control Cache over the Protection Table.
type BCC = core.BCC

// BCCConfig sets BCC geometry (entries, pages per entry).
type BCCConfig = core.BCCConfig

// BorderControl implements the Figure 3 event protocol for one
// accelerator — the paper's flat-table design.
type BorderControl = core.BorderControl

// BorderConfig sets Border Control structures and policies.
type BorderConfig = core.Config

// ProtectionArchitecture is the pluggable border-design contract: the
// Figure 3 lifecycle (process start/complete, lazy translation insertion,
// downgrade handling) plus the per-crossing check. Registered designs —
// selected by Params.Border or `bctool -border` — must enforce identical
// decisions for the same event stream and may differ only in when
// permission state moves and what it costs (DESIGN.md §14).
type ProtectionArchitecture = core.ProtectionArchitecture

// BorderDesigns lists the registered border designs in sorted order
// ("flat" is the paper's Protection Table + BCC design).
func BorderDesigns() []string { return core.Designs() }

// DefaultBorderDesign is the design an empty Params.Border selects.
const DefaultBorderDesign = core.DefaultDesign

// BorderPolicy is a declarative per-ASID admission policy for the "range"
// design: a default action plus ordered first-match-wins rules, compiled
// once at installation (see core.Policy). The zero value admits
// everything, which keeps the design decision-equivalent to flat.
type BorderPolicy = core.Policy

// BorderPolicyRule is one ordered rule of a BorderPolicy.
type BorderPolicyRule = core.PolicyRule

// Policy actions for BorderPolicy rules.
const (
	PolicyAllow    = core.PolicyAllow
	PolicyReadOnly = core.PolicyReadOnly
	PolicyDeny     = core.PolicyDeny
)

// Store is the functional physical-memory backing store.
type Store = memory.Store

// OS is the trusted operating-system model (processes, page tables,
// shootdowns, violation policy).
type OS = hostos.OS

// NewProtectionTable places a Protection Table covering physPages pages at
// base inside the store.
func NewProtectionTable(store *Store, base uint64, physPages uint64) (*ProtectionTable, error) {
	return core.NewProtectionTable(store, phys(base), physPages)
}

// NewBCC builds a Border Control Cache.
func NewBCC(cfg BCCConfig) (*BCC, error) { return core.NewBCC(cfg) }

// NewStore allocates a functional physical memory of the given byte size.
func NewStore(size uint64) (*Store, error) { return memory.NewStore(size) }

// NewOS builds a trusted OS model owning the store.
func NewOS(store *Store) *OS { return hostos.New(store) }

// ProtectionTableBytes returns the table footprint for a physical memory of
// the given page count — 0.006% of physical memory (1 MB per 16 GB).
func ProtectionTableBytes(physPages uint64) uint64 { return core.TableBytes(physPages) }

// Time is a simulation timestamp in picoseconds.
type Time = sim.Time

// Phys is a host physical address.
type Phys = arch.Phys

func phys(a uint64) Phys { return Phys(a) }

// Trojan models a malicious accelerator with direct physical-address access
// — the paper's threat vector. Attach it to a system's border port and try
// arbitrary reads and writes; under Border Control they are blocked and
// reported to the OS.
type Trojan = accel.Trojan

// NewTrojan attaches a malicious accelerator to the system's border.
func NewTrojan(sys *System) *Trojan { return accel.NewTrojan(sys.Port) }

// Perm is a page access-permission set.
type Perm = arch.Perm

// Permission bits.
const (
	PermRead  = arch.PermRead
	PermWrite = arch.PermWrite
	PermRW    = arch.PermRW
)

// Virt is a process virtual address.
type Virt = arch.Virt

// Process is one simulated address space managed by the OS model.
type Process = hostos.Process

// Virtualization support (paper §3.4.2).

// VMM is a minimal trusted virtual-machine monitor: it partitions host
// physical memory into guest regions and keeps Protection Tables in
// VMM-private memory no guest can name.
type VMM = hostos.VMM

// Guest is one guest OS and its host-physical partition.
type Guest = hostos.Guest

// NewVMM builds a VMM over the store, reserving the given number of
// frames for the VMM itself.
func NewVMM(store *Store, reserveFrames uint64) (*VMM, error) {
	return hostos.NewVMM(store, reserveFrames)
}

// Alternate permission sources (paper §3.4.1).

// Segment is a physical range with permissions, the unit of a
// Mondriaan-style protection table.
type Segment = core.Segment

// SegmentSource is a Mondriaan-style fine-grained permission table.
type SegmentSource = core.SegmentSource

// PLB is a protection-lookaside buffer whose misses populate Border
// Control's table, mirroring the paper's TLB-miss insertion path.
type PLB = core.PLB

// CapabilityTable is a trusted capability registry whose validated
// invocations populate Border Control's table.
type CapabilityTable = core.CapabilityTable

// NewSegmentSource returns an empty Mondriaan-style permission table.
func NewSegmentSource() *SegmentSource { return core.NewSegmentSource() }

// NewPLB builds a protection-lookaside buffer over the source, feeding bc.
func NewPLB(src *SegmentSource, b *BorderControl, capacity int) (*PLB, error) {
	return core.NewPLB(src, b, capacity)
}

// NewCapabilityTable returns an empty capability registry.
func NewCapabilityTable() *CapabilityTable { return core.NewCapabilityTable() }

// Streaming accelerators (beyond GPUs).

// Streamer is a fixed-function streaming accelerator (crypto, compression,
// video-style IP): cacheless DMA channels whose every block crosses the
// checked border.
type Streamer = accel.Streamer

// StreamJob is one DMA-style transfer processed by a Streamer.
type StreamJob = accel.StreamJob

// StreamerConfig sizes a streaming accelerator.
type StreamerConfig = accel.StreamerConfig

// Trace capture and replay (internal/tracerec, internal/traffic).

// RefTrace is a recorded (or synthetically generated) reference trace: the
// per-wavefront memory-operation streams of a workload plus the replay
// recipe (address-space layout, fault order, post-build image) that
// rebuilds a bit-identical process without re-running the generator.
// Named RefTrace because Trace in this package's vocabulary is the
// timeline tracer (Chrome trace events).
type RefTrace = tracerec.Trace

// TraceFormatError is the typed, fail-closed decode failure of the
// .bctrace codec.
type TraceFormatError = tracerec.FormatError

// TraceResult reports a whole trace execution (every segment in order).
type TraceResult = harness.TraceRunResult

// TrafficConfig selects and seeds a synthetic traffic generator.
type TrafficConfig = traffic.Config

// SweepCell is one cell of a replay sweep grid; SweepRow its result.
type (
	SweepCell = harness.SweepCell
	SweepRow  = harness.SweepRow
)

// RecordTrace executes a workload generator once and captures its
// reference trace and replay recipe.
func RecordTrace(workloadName string, scale int) (*RefTrace, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("bordercontrol: unknown workload %q (have %v)", workloadName, Workloads())
	}
	return tracerec.Record(spec, scale)
}

// GenerateTraffic produces a synthetic trace (TrafficShapes names the
// generators: multi-tenant churn, bursty DMA, inference-style streaming,
// adversarial mix).
func GenerateTraffic(cfg TrafficConfig) (*RefTrace, error) { return traffic.Generate(cfg) }

// TrafficShapes lists the synthetic-traffic generators.
func TrafficShapes() []string { return traffic.Shapes() }

// WriteTraceFile / ReadTraceFile serialize traces in the versioned,
// content-hashed .bctrace format.
func WriteTraceFile(path string, t *RefTrace) error { return tracerec.WriteFile(path, t) }

// ReadTraceFile reads and hash-verifies a .bctrace file; a damaged file
// fails with a *TraceFormatError.
func ReadTraceFile(path string) (*RefTrace, error) { return tracerec.ReadFile(path) }

// ReplayCtx runs a single-segment workload recording the way RunCtx runs
// the workload itself: same process, same reference stream, and a Result
// bit-identical to the live run's. Multi-segment or probed traces go
// through RunTraceCtx.
func ReplayCtx(ctx context.Context, mode Mode, class GPUClass, rec *RefTrace, p Params, opts RunOptions) (Result, error) {
	spec, err := tracerec.ReplaySpec(rec)
	if err != nil {
		return Result{}, err
	}
	return harness.RunCtx(ctx, mode, class, spec, p, opts)
}

// RunTraceCtx replays every segment of a trace through one simulated
// machine — short-lived processes, adversarial probes and all. Results are
// bit-identical at any RunOptions.Shards setting.
func RunTraceCtx(ctx context.Context, mode Mode, class GPUClass, tr *RefTrace, p Params, opts RunOptions) (TraceResult, error) {
	return harness.RunTraceCtx(ctx, mode, class, tr, p, opts)
}

// RunSweepCtx executes a replay sweep grid on a bounded worker pool; rows
// collect in cell order, so rendered output is byte-identical at any jobs
// setting.
func RunSweepCtx(ctx context.Context, cells []SweepCell, jobs int) ([]SweepRow, error) {
	return harness.RunSweepExec(ctx, harness.Exec{Jobs: jobs}, cells)
}

// RenderSweep and SweepCSV render sweep rows deterministically.
var (
	RenderSweep = harness.RenderSweep
	SweepCSV    = harness.SweepCSV
)

// Sweep-diff regression triage (bctool sweepdiff): compare two sweep CSV
// artifacts or two -stats-json snapshots cell-by-cell under per-metric
// relative-drift thresholds.
type (
	SweepDiffOptions = harness.SweepDiffOptions
	SweepDiff        = harness.SweepDiff
	SweepDrift       = harness.SweepDrift
)

var (
	DiffSweepCSV  = harness.DiffSweepCSV
	DiffStatsJSON = harness.DiffStatsJSON
)

// SweepGrid expands recorded traces against mode/border/class axes into a
// labelled cell grid (bctool sweep's builder).
func SweepGrid(traces map[string]*RefTrace, names []string, modes []Mode, borders []string, classes []GPUClass, base Params, shards int) []SweepCell {
	return harness.RecordedCells(traces, names, modes, borders, classes, base, shards)
}

// ValidateSweepCells checks a grid before anything runs: every cell must
// carry a trace, and labels must be unique (they key the CSV and the
// serve/worker merge). Duplicate labels surface as *DuplicateLabelError.
func ValidateSweepCells(cells []SweepCell) error { return harness.ValidateCells(cells) }

// DuplicateLabelError reports two sweep cells sharing a label.
type DuplicateLabelError = harness.DuplicateLabelError

// ModeSlug and ClassSlug are the canonical wire/label spellings of a mode
// and class (sweep labels, the serve API, the worker protocol); ParseMode
// and ParseClass invert them, accepting the historical CLI aliases
// ("capi", "moderate"). ParseClassList parses a sweep's class axis:
// "both" or one class.
var (
	ModeSlug       = harness.ModeSlug
	ParseMode      = harness.ParseModeSlug
	ClassSlug      = harness.ClassSlug
	ParseClass     = harness.ParseClassSlug
	ParseClassList = harness.ParseClassList
)
