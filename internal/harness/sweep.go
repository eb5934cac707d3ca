package harness

import (
	"context"
	"fmt"
	"strings"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
)

// SweepCell is one cell of a replay sweep grid: a recorded (or generated)
// trace crossed with one system configuration. Cells share decoded traces
// freely — replay never mutates them.
type SweepCell struct {
	// Label names the cell in output rows; it must be unique per grid.
	Label string
	Trace *tracerec.Trace
	Mode  Mode
	Class GPUClass
	P     Params
	// Shards, when positive, runs the cell on the sharded engine with that
	// many workers (bit-identical results; a determinism axis, not a
	// timing one).
	Shards int
}

// SweepRow is one cell's result: runtime and event totals plus the
// border-check latency tail (p50/p99/p999 over every checked crossing —
// BCC hits, Protection Table walks, and denials merged), the sweep's
// headline metric.
type SweepRow struct {
	Label    string
	SimPs    sim.Time
	Events   uint64
	Ops      uint64
	BCChecks uint64
	BCCMiss  float64
	// CheckP50/P99/P999 are border-check latency permilles in picoseconds
	// (0 in modes with no border).
	CheckP50  uint64
	CheckP99  uint64
	CheckP999 uint64
	// Granted/Denied count adversarial probe outcomes.
	Granted uint64
	Denied  uint64
}

// checkLatency merges the per-outcome border-check latency histograms into
// the single distribution the sweep reports tails of.
func checkLatency(s stats.Snapshot) stats.HistSnapshot {
	h := s.Hist("border.latency_ps.bcc_hit")
	h = h.Merge(s.Hist("border.latency_ps.pt_walk"))
	return h.Merge(s.Hist("border.latency_ps.denied"))
}

// DuplicateLabelError reports a sweep grid whose cells do not have unique
// labels. Labels are the merge key of every rendered artifact (CSV rows,
// the worker-protocol merge), so a duplicate would silently corrupt output
// rather than fail; ValidateCells turns it into a typed, pre-run error.
type DuplicateLabelError struct {
	Label string
	// First and Second are the indices of the two colliding cells.
	First, Second int
}

func (e *DuplicateLabelError) Error() string {
	return fmt.Sprintf("harness: sweep cells %d and %d share the label %q (labels must be unique per grid)",
		e.First, e.Second, e.Label)
}

// ValidateCells checks the grid invariants every sweep path relies on:
// unique labels (see DuplicateLabelError) and a non-nil trace per cell.
// RunSweepExec and the worker-protocol fan-out both call it before running
// anything.
func ValidateCells(cells []SweepCell) error {
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		if c.Trace == nil {
			return fmt.Errorf("harness: sweep cell %d (%q) has a nil trace", i, c.Label)
		}
		if j, dup := seen[c.Label]; dup {
			return &DuplicateLabelError{Label: c.Label, First: j, Second: i}
		}
		seen[c.Label] = i
	}
	return nil
}

// RunSweepExec executes every cell on the execution layer of Exec — a
// bounded worker pool, per-cell timeouts, serialized completion-order
// progress callbacks — and returns rows in cell order. Each cell is an
// independent deterministic simulation and rows collect in submission
// order, so the rows — and anything rendered from them — are
// byte-identical at any Jobs setting. The grid is validated (see
// ValidateCells) before anything runs; a cell whose replay fails (or whose
// image verification mismatches) fails the sweep with an error naming the
// cell.
func RunSweepExec(ctx context.Context, ex Exec, cells []SweepCell) ([]SweepRow, error) {
	if err := ValidateCells(cells); err != nil {
		return nil, err
	}
	return exp.Map(ctx, ex.runner(), cells,
		func(_ int, c SweepCell) string { return c.Label },
		func(ctx context.Context, c SweepCell) (SweepRow, error) {
			return RunCell(ctx, c)
		})
}

// RunCell executes one sweep cell — a single deterministic simulation —
// and distills its result into the cell's row. It is the unit of work the
// worker protocol ships across process boundaries; anything that executes
// cells through RunCell and merges rows in canonical cell order reproduces
// RunSweepExec byte-for-byte.
func RunCell(ctx context.Context, c SweepCell) (SweepRow, error) {
	res, err := RunTraceCtx(ctx, c.Mode, c.Class, c.Trace, c.P, RunOptions{Shards: c.Shards})
	if err != nil {
		return SweepRow{}, err
	}
	row := SweepRow{
		Label:    c.Label,
		SimPs:    res.SimTime,
		Events:   res.Host.Events,
		Ops:      res.Ops,
		BCChecks: res.BCChecks,
		BCCMiss:  res.BCCMissRatio,
	}
	for _, s := range res.Segments {
		if s.VerifyErr != nil {
			return SweepRow{}, fmt.Errorf("%s: segment %s verify: %w", c.Label, s.Name, s.VerifyErr)
		}
		row.Granted += s.ProbesGranted
		row.Denied += s.ProbesDenied
	}
	lat := checkLatency(res.Stats)
	row.CheckP50 = lat.Permille(500)
	row.CheckP99 = lat.Permille(990)
	row.CheckP999 = lat.Permille(999)
	return row, nil
}

// RenderSweep renders rows as a fixed-width table. Output is a pure
// function of the rows.
func RenderSweep(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s %10s %8s %9s %8s %10s %10s %10s %4s %4s\n",
		"cell", "sim_ps", "events", "ops", "bc_checks", "bcc_miss",
		"chk_p50ps", "chk_p99ps", "chk_p999ps", "grant", "deny")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-44s %14d %10d %8d %9d %8.4f %10d %10d %10d %4d %4d\n",
			r.Label, r.SimPs, r.Events, r.Ops, r.BCChecks, r.BCCMiss,
			r.CheckP50, r.CheckP99, r.CheckP999, r.Granted, r.Denied)
	}
	return b.String()
}

// SweepCSV renders rows as CSV with a fixed header, for downstream
// plotting.
func SweepCSV(rows []SweepRow) string {
	var b strings.Builder
	b.WriteString("cell,sim_ps,events,ops,bc_checks,bcc_miss,chk_p50_ps,chk_p99_ps,chk_p999_ps,granted,denied\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%d\n",
			r.Label, r.SimPs, r.Events, r.Ops, r.BCChecks, r.BCCMiss,
			r.CheckP50, r.CheckP99, r.CheckP999, r.Granted, r.Denied)
	}
	return b.String()
}

// RecordedCells expands a set of traces against mode/border/class axes
// into a full grid with deterministic labels — the standard sweep builder
// bctool uses. Modes that carry no border ignore the border axis (one cell
// each, labelled with "-").
func RecordedCells(traces map[string]*tracerec.Trace, names []string, modes []Mode, borders []string, classes []GPUClass, base Params, shards int) []SweepCell {
	var cells []SweepCell
	for _, name := range names {
		tr := traces[name]
		for _, mode := range modes {
			bs := borders
			if mode == ATSOnly || mode == FullIOMMU || mode == CAPILike {
				bs = []string{"-"}
			}
			for _, border := range bs {
				for _, class := range classes {
					p := base
					if border != "-" {
						p.Border = border
					}
					cells = append(cells, SweepCell{
						Label:  fmt.Sprintf("%s/%s/%s/%s", name, modeSlug(mode), border, classShort(class)),
						Trace:  tr,
						Mode:   mode,
						Class:  class,
						P:      p,
						Shards: shards,
					})
				}
			}
		}
	}
	return cells
}

// modeSlug is the short machine-friendly mode name used in sweep labels
// and bctool flags.
func modeSlug(m Mode) string {
	switch m {
	case ATSOnly:
		return "ats-only"
	case FullIOMMU:
		return "full-iommu"
	case CAPILike:
		return "capi-like"
	case BCNoBCC:
		return "bc-nobcc"
	case BCBCC:
		return "bc-bcc"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// ModeSlug is the canonical short name of a mode as it appears in sweep
// labels, bctool flags, and the serve/worker wire protocol.
func ModeSlug(m Mode) string { return modeSlug(m) }

// ParseModeSlug inverts ModeSlug. It also accepts "capi" as an alias for
// "capi-like" (the historical bctool flag spelling).
func ParseModeSlug(s string) (Mode, error) {
	switch s {
	case "ats-only":
		return ATSOnly, nil
	case "full-iommu":
		return FullIOMMU, nil
	case "capi", "capi-like":
		return CAPILike, nil
	case "bc-nobcc":
		return BCNoBCC, nil
	case "bc-bcc":
		return BCBCC, nil
	default:
		return 0, fmt.Errorf("harness: unknown mode %q (want ats-only, full-iommu, capi-like, bc-nobcc, or bc-bcc)", s)
	}
}

// ClassSlug is the canonical short name of a GPU class as it appears in
// sweep labels and the serve/worker wire protocol.
func ClassSlug(c GPUClass) string { return classShort(c) }

// ParseClassSlug inverts ClassSlug. It also accepts the long bctool flag
// spellings "moderate" and "highly".
func ParseClassSlug(s string) (GPUClass, error) {
	switch s {
	case "mod", "moderate":
		return ModeratelyThreaded, nil
	case "high", "highly":
		return HighlyThreaded, nil
	default:
		return 0, fmt.Errorf("harness: unknown GPU class %q (want mod or high)", s)
	}
}

// ParseClassList parses a sweep's GPU-class axis: "both" (or empty) is
// both classes in the paper's order, anything else one class as
// ParseClassSlug spells it.
func ParseClassList(s string) ([]GPUClass, error) {
	if s == "" || s == "both" {
		return []GPUClass{HighlyThreaded, ModeratelyThreaded}, nil
	}
	c, err := ParseClassSlug(s)
	if err != nil {
		return nil, fmt.Errorf("harness: unknown GPU classes %q (want both, high or mod)", s)
	}
	return []GPUClass{c}, nil
}
