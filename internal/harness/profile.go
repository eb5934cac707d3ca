package harness

import (
	"context"
	"fmt"

	"bordercontrol/internal/prof"
	"bordercontrol/internal/workload"
)

// ProfileConfig is one cell of the profiling matrix.
type ProfileConfig struct {
	Mode  Mode
	Class GPUClass
	Label string
}

// ProfileMatrix lists the configurations `bctool profile` attributes: the
// same matrix `bctool bench` measures, so the profile explains the bench.
func ProfileMatrix() []ProfileConfig {
	return []ProfileConfig{
		{ATSOnly, HighlyThreaded, "ats-only/high"},
		{BCBCC, HighlyThreaded, "bc-bcc/high"},
		{FullIOMMU, HighlyThreaded, "full-iommu/high"},
		{BCBCC, ModeratelyThreaded, "bc-bcc/moderate"},
	}
}

// Profile runs the workload across the profile matrix with a per-job
// simulated-time profiler attached and returns the merged profile. The
// cells are an ordinary job list, so the workload is recorded once and
// replayed into each. Each job gets its own Profiler (profilers are
// single-goroutine, like every stats structure), and the merge is a
// commutative sum over per-stack totals — the result is byte-identical at
// any Exec.Jobs setting.
func Profile(ctx context.Context, ex Exec, p Params, workloadName string) (*prof.Profiler, error) {
	return profile(ctx, ex, p, workloadName, ProfileMatrix())
}

// ProfileRun profiles a single (mode, class, workload) simulation, a
// one-cell Profile, and returns its profiler.
func ProfileRun(ctx context.Context, mode Mode, class GPUClass, p Params, workloadName string) (*prof.Profiler, error) {
	cfg := ProfileConfig{Mode: mode, Class: class, Label: modeSlug(mode) + "/" + classShort(class)}
	return profile(ctx, Exec{}, p, workloadName, []ProfileConfig{cfg})
}

// profile runs the workload once per config, each with its own profiler,
// and merges the profiles in config order.
func profile(ctx context.Context, ex Exec, p Params, workloadName string, configs []ProfileConfig) (*prof.Profiler, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q (have %v)", workloadName, workload.Names())
	}
	list := make([]runSpec, len(configs))
	for i, cfg := range configs {
		list[i] = runSpec{
			Label: cfg.Label + "/" + workloadName,
			Mode:  cfg.Mode, Class: cfg.Class, Spec: spec,
			Opts: RunOptions{Profiler: prof.New()},
		}
	}
	if _, err := runAll(ctx, ex, p, list); err != nil {
		return nil, err
	}
	merged := prof.New()
	for _, s := range list {
		merged.Merge(s.Opts.Profiler)
	}
	return merged, nil
}
