package harness

import (
	"context"
	"testing"

	"bordercontrol/internal/workload"
)

// TestSmokeAllModes runs one small workload end to end under every safety
// configuration and checks functional correctness of the results.
func TestSmokeAllModes(t *testing.T) {
	spec, ok := workload.ByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder not registered")
	}
	p := DefaultParams()
	for _, mode := range Modes() {
		for _, class := range []GPUClass{HighlyThreaded, ModeratelyThreaded} {
			res, err := RunCtx(context.Background(), mode, class, spec, p, RunOptions{})
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, class, err)
			}
			if res.VerifyErr != nil {
				t.Errorf("%v/%v: wrong results: %v", mode, class, res.VerifyErr)
			}
			if res.Cycles == 0 {
				t.Errorf("%v/%v: zero cycles", mode, class)
			}
			t.Logf("%-22v %-20v cycles=%-10d ops=%-8d dram=%.2f bcChecks=%d bccMiss=%.4f",
				mode, class, res.Cycles, res.Ops, res.DRAMUtilization, res.BCChecks, res.BCCMissRatio)
		}
	}
}
