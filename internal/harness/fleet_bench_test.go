package harness

import (
	"context"
	"fmt"
	"testing"

	"bordercontrol/internal/workload"
)

// BenchmarkShardedEngine measures fleet execution over a tenant-count x
// worker-count grid. Simulated outcomes are identical across the worker
// dimension — only wall-clock moves — so the grid reads as a scaling
// curve: on a multi-core host, events/sec should grow with workers until
// the core count or the lookahead window's parallelism runs out. On a
// single-CPU CI host the numbers are informational.
func BenchmarkShardedEngine(b *testing.B) {
	spec, ok := workload.ByName("pathfinder")
	if !ok {
		b.Fatal("pathfinder not registered")
	}
	for _, tenants := range []int{4, 16} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("tenants=%d/workers=%d", tenants, workers), func(b *testing.B) {
				fp := DefaultFleetParams()
				fp.Tenants = tenants
				fp.Workers = workers
				for i := 0; i < b.N; i++ {
					res, err := RunFleetCtx(context.Background(), DefaultParams(), fp, spec)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(res.Events), "events/run")
						b.ReportMetric(res.Host.EventsPerSec, "events/sec")
					}
				}
			})
		}
	}
}
