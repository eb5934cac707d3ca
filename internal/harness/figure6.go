package harness

import (
	"bordercontrol/internal/arch"
	"bordercontrol/internal/core"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/workload"
)

// The BCC is fully associative LRU (core.BCC): a probe, a fill and an
// update each make their entry the most recent, an update fills on a miss,
// and only probes are counted. So a probe whose tag sits at LRU stack depth
// d hits exactly the BCCs of more than d entries (Mattson et al., 1970),
// and one stack-distance pass per Figure 6 curve gives all its sizes.

// fig6Curves lists Figure 6's BCC geometries, one curve per pages-per-entry
// value: every power-of-two size up to 256 entries within the figure's
// 1100-byte range, smallest first.
func fig6Curves() [][]core.BCCConfig {
	var curves [][]core.BCCConfig
	for _, ppe := range []int{1, 2, 32, 512} {
		var sizes []core.BCCConfig
		for entries := 1; entries <= 256; entries *= 2 {
			cfg := core.BCCConfig{Entries: entries, PagesPerEntry: ppe, TagBits: 36}
			if cfg.SizeBytes() <= 1100 {
				sizes = append(sizes, cfg)
			}
		}
		curves = append(curves, sizes)
	}
	return curves
}

// stackDistance is one curve's pass over one event stream: the LRU stack
// of BCC tags, most recent first and capped at the curve's largest size,
// and how many probes found their tag at each depth.
type stackDistance struct {
	pagesPerEntry uint64
	stack         []uint64
	hitsAt        []uint64
	probes        uint64
}

func newStackDistance(pagesPerEntry, maxEntries int) stackDistance {
	return stackDistance{
		pagesPerEntry: uint64(pagesPerEntry),
		stack:         make([]uint64, 0, maxEntries),
		hitsAt:        make([]uint64, maxEntries),
	}
}

// access makes ppn's tag the most recent, recording a probe's depth. A
// probe of a tag deeper than the cap misses in every BCC of the curve.
func (s *stackDistance) access(ppn arch.PPN, probe bool) {
	tag := uint64(ppn) / s.pagesPerEntry
	d := 0
	for d < len(s.stack) && s.stack[d] != tag {
		d++
	}
	if probe {
		s.probes++
		if d < len(s.stack) {
			s.hitsAt[d]++
		}
	}
	if d == len(s.stack) {
		if len(s.stack) < cap(s.stack) {
			s.stack = s.stack[:d+1]
		} else {
			d-- // the least recent tag drops off
		}
	}
	copy(s.stack[1:d+1], s.stack[:d])
	s.stack[0] = tag
}

// missRatio is the probe miss ratio of a BCC of the given size, computed
// as core.BCC's CheckHitMiss.MissRatio computes it.
func (s *stackDistance) missRatio(entries int) float64 {
	if s.probes == 0 {
		return 0
	}
	var hits uint64
	for _, n := range s.hitsAt[:entries] {
		hits += n
	}
	return float64(s.probes-hits) / float64(s.probes)
}

// fig6Observer is Figure 6's observer on one cell: a stack-distance pass
// per curve, in fig6Curves order, fed by the border's event sink.
type fig6Observer []stackDistance

// fig6Observers returns a fresh observer per workload.
func fig6Observers() []fig6Observer {
	obs := make([]fig6Observer, len(workload.All()))
	for i := range obs {
		for _, sizes := range fig6Curves() {
			largest := sizes[len(sizes)-1]
			obs[i] = append(obs[i], newStackDistance(largest.PagesPerEntry, largest.Entries))
		}
	}
	return obs
}

func (o fig6Observer) attach(sys *System) {
	sys.BC.SetTraceSink(func(ev core.TraceEvent) {
		for i := range o {
			o[i].access(ev.PPN, !ev.Insert)
		}
	})
}

// figure6 reduces the grid's BC-BCC/high cells and their observers, both
// in workload order, to Figure 6.
func figure6(g grid, obs []fig6Observer) Figure6Result {
	res := Figure6Result{Curves: make(map[int][]Figure6Point), Stats: sweepStats(g.cells(HighlyThreaded, BCBCC))}
	for c, sizes := range fig6Curves() {
		ppe := sizes[0].PagesPerEntry
		res.PagesPerEntry = append(res.PagesPerEntry, ppe)
		for _, cfg := range sizes {
			ratios := make([]float64, len(obs))
			for i, o := range obs {
				ratios[i] = o[c].missRatio(cfg.Entries)
			}
			res.Curves[ppe] = append(res.Curves[ppe], Figure6Point{
				Entries:   cfg.Entries,
				SizeBytes: cfg.SizeBytes(),
				MissRatio: stats.Mean(ratios),
			})
		}
	}
	return res
}
