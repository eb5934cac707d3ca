package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. Moves and On record which
// end-to-end metric a per-layer metric should move and on which workloads
// the layer does work (it reads 0 elsewhere).
type metricDef struct {
	Name, Unit string
	Moves, On  string
}

// endToEnd are the metrics a user of the simulator sees, measured on the
// untraced batches. fail_ratio is printed beside them but not listed: it is
// 0 on a correct build, and the result line's failed/attempted carry it.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s"},
	{Name: "sim_events_per_s", Unit: "events/s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
	{Name: "job_latency_p50_s", Unit: "s"},
	{Name: "job_latency_tail_s", Unit: "s"},
}

const modelCountNote = "none: a host-speed change leaves it exactly equal"

var perLayer = append([]metricDef{
	{Name: "workload.build_s", Unit: "s", Moves: "wall_s", On: "fig4"},
	{Name: "workload.ops", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "workload.ns_per_op", Unit: "ns", Moves: "wall_s", On: "fig4"},
	{Name: "workload.verify_s", Unit: "s", Moves: "wall_s", On: "fig4"},
	{Name: "tracerec.record_s", Unit: "s", Moves: "wall_s (record-once ceiling)", On: "fig4"},
	{Name: "harness.system_s", Unit: "s", Moves: "wall_s", On: "sweep, fig4"},
	{Name: "tracerec.segment_s", Unit: "s", Moves: "wall_s", On: "sweep"},
	{Name: "hostos.exit_s", Unit: "s", Moves: "wall_s", On: "sweep"},
	{Name: "traffic.generate_s", Unit: "s", Moves: "setup_s", On: "sweep"},
	{Name: "sim.run_s", Unit: "s", Moves: "wall_s, sim_events_per_s", On: "fig4, sweep"},
	{Name: "sim.events", Unit: "count", Moves: modelCountNote, On: "fig4, sweep, fleet"},
	{Name: "sim.ns_per_event", Unit: "ns", Moves: "wall_s, sim_events_per_s", On: "fig4, sweep"},
	{Name: "accel.ops", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "cache.l1_misses", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "cache.l2_misses", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "tlb.l1_misses", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "ats.translations", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "ats.walks", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "core.checks", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "core.bcc_misses", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "core.table_reads", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "memory.dram_reads", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "memory.dram_writes", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "coherence.get_s", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "coherence.get_m", Unit: "count", Moves: modelCountNote, On: "fig4, fleet"},
	{Name: "exp.busy_ratio", Unit: "ratio", Moves: "wall_s", On: "fig4, sweep"},
	{Name: "harness.fleet_build_s", Unit: "s", Moves: "wall_s", On: "fleet"},
	{Name: "sim.fleet_run_s", Unit: "s", Moves: "wall_s", On: "fleet"},
	{Name: "sim.windows", Unit: "count", Moves: modelCountNote, On: "fleet"},
	{Name: "sim.messages", Unit: "count", Moves: modelCountNote, On: "fleet"},
	{Name: "sim.ns_per_window", Unit: "ns", Moves: "wall_s", On: "fleet"},
	{Name: "sim.shard_speedup", Unit: "ratio", Moves: "wall_s", On: "fleet"},
	{Name: "runtime.alloc_mb", Unit: "MB", Moves: "wall_s, peak_rss_mb", On: "all"},
	{Name: "runtime.gc_cycles", Unit: "count", Moves: "wall_s, peak_rss_mb", On: "all"},
	{Name: "runtime.gc_pause_s", Unit: "s", Moves: "wall_s", On: "all"},
	{Name: "serve.submit_s", Unit: "s", Moves: "job_latency_p50_s, job_latency_tail_s", On: "serve"},
	{Name: "serve.queue_s", Unit: "s", Moves: "job_latency_p50_s, job_latency_tail_s", On: "serve"},
	{Name: "serve.first_cell_s", Unit: "s", Moves: "job_latency_p50_s, job_latency_tail_s", On: "serve"},
	{Name: "serve.cells_s", Unit: "s", Moves: "job_latency_p50_s, job_latency_tail_s", On: "serve"},
	{Name: "serve.merge_s", Unit: "s", Moves: "job_latency_p50_s, job_latency_tail_s", On: "serve"},
	{Name: "serve.fetch_s", Unit: "s", Moves: "job_latency_p50_s, job_latency_tail_s", On: "serve"},
	{Name: "serve.workers_spawned", Unit: "count", Moves: "job_latency_p50_s", On: "serve"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Moves: "none: cost of this run's tracing", On: "all"},
	{Name: "trace.spans", Unit: "count", Moves: "none: spans written", On: "all"},
}, cpuShareDefs()...)

// cpuBuckets are the leaf-package buckets of the CPU profile: every
// simulator package, garbage collection, and everything else (scheduler,
// syscalls, net/http, this benchmark).
var cpuBuckets = []string{
	"sim", "accel", "cache", "tlb", "coherence", "ats", "core", "memory", "hostos", "pagetable",
	"workload", "tracerec", "traffic", "harness", "stats", "serve", "exp", "arch",
	"runtime.gc", "other",
}

func cpuShareDefs() []metricDef {
	var out []metricDef
	for _, b := range cpuBuckets {
		out = append(out, metricDef{Name: b + ".cpu_share", Unit: "ratio",
			Moves: "identifies the layer to optimise", On: "all"})
	}
	return out
}

// spanMetric maps a span name to the per-layer time metric its total
// duration per traced batch feeds.
var spanMetric = map[string]string{
	"harness.system":   "harness.system_s",
	"workload.build":   "workload.build_s",
	"workload.verify":  "workload.verify_s",
	"tracerec.segment": "tracerec.segment_s",
	"hostos.exit":      "hostos.exit_s",
	"sim.run":          "sim.run_s",
}

// modelCounters maps per-layer model-count metrics to the stats snapshot
// counters they read.
var modelCounters = []struct{ metric, counter string }{
	{"accel.ops", "gpu.ops"},
	{"cache.l1_misses", "gpu.l1.misses"},
	{"cache.l2_misses", "gpu.l2.misses"},
	{"tlb.l1_misses", "gpu.l1tlb.misses"},
	{"ats.translations", "iommu.translations"},
	{"ats.walks", "iommu.walks"},
	{"core.checks", "border.checks"},
	{"core.bcc_misses", "border.bcc.misses"},
	{"core.table_reads", "border.table_reads"},
	{"memory.dram_reads", "dram.reads"},
	{"memory.dram_writes", "dram.writes"},
	{"coherence.get_s", "coherence.get_s"},
	{"coherence.get_m", "coherence.get_m"},
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least ten of n jobs beyond it, with its name; below 20 jobs no
// percentile qualifies and the maximum (q = 1) stands in. n is one batch's
// job count, which is fixed per workload, so the percentile never depends
// on how many batches a run fits.
func tailPercentile(n int) (string, float64) {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.75, 0.5} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return fmt.Sprintf("p%g", q*100), q
		}
	}
	return "max", 1
}
