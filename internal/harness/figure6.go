package harness

import (
	"bordercontrol/internal/arch"
	"bordercontrol/internal/core"
	"bordercontrol/internal/memory"
	"bordercontrol/internal/workload"
)

// bcTrace is the captured Border Control event stream of one workload.
type bcTrace struct {
	events []core.TraceEvent
	maxPPN arch.PPN
}

// record is the border's trace sink.
func (tr *bcTrace) record(ev core.TraceEvent) {
	tr.events = append(tr.events, ev)
	if ev.PPN > tr.maxPPN {
		tr.maxPPN = ev.PPN
	}
}

// captureList is Figure 6's capture job list: every workload once under
// BC-BCC on the highly threaded GPU, run i recording the check/insert
// event stream at its border into traces[i]. It is a job list like any
// figure's, so the captures replay its recordings and run in parallel,
// sharded and traced as Exec asks.
func captureList() ([]runSpec, []bcTrace) {
	specs := workload.All()
	list := make([]runSpec, len(specs))
	traces := make([]bcTrace, len(specs))
	for i, spec := range specs {
		tr := &traces[i]
		list[i] = runSpec{
			Label: "fig6/capture/" + spec.Name,
			Mode:  BCBCC, Class: HighlyThreaded, Spec: spec,
			attach: func(sys *System) { sys.BC.SetTraceSink(tr.record) },
		}
	}
	return list, traces
}

// bccGeometry builds the swept BCC configuration.
func bccGeometry(entries, pagesPerEntry int) core.BCCConfig {
	return core.BCCConfig{Entries: entries, PagesPerEntry: pagesPerEntry, TagBits: 36}
}

// replayBCCTrace replays a captured event stream through a standalone BCC
// of the given geometry and returns the check miss ratio.
func replayBCCTrace(tr bcTrace, cfg core.BCCConfig, p Params) float64 {
	physPages := uint64(tr.maxPPN) + 1
	tableBytes := core.TableBytes(physPages)
	storeBytes := arch.AlignUp(tableBytes, arch.PageSize) + arch.PageSize
	store, err := memory.NewStore(storeBytes)
	if err != nil {
		panic(err)
	}
	table, err := core.NewProtectionTable(store, 0, physPages)
	if err != nil {
		panic(err)
	}
	bcc, err := core.NewBCC(cfg)
	if err != nil {
		panic(err)
	}
	for _, ev := range tr.events {
		if ev.Insert {
			table.Merge(ev.PPN, ev.Perm)
			bcc.Update(ev.PPN, ev.Perm, table)
			continue
		}
		if _, hit := bcc.Probe(ev.PPN); !hit {
			bcc.Fill(ev.PPN, table)
		}
	}
	return bcc.CheckHitMiss.MissRatio()
}
