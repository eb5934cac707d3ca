package sim

import "testing"

// FuzzEngineSchedule differentially fuzzes the radix event queue against
// the container/heap reference in heapref_test.go: any byte script is a
// schedule (events spawning events at tiny or wide deltas, heavy on
// same-timestamp collisions, interleaved with bounded runs that peek and
// schedule before the next event), and the two engines must fire it in the
// identical order.
// Extend the corpus by dropping files under testdata/fuzz/FuzzEngineSchedule
// or running `go test -fuzz FuzzEngineSchedule ./internal/sim` and
// committing what it minimizes into the same directory.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 3, 0, 0, 0, 3, 1, 1, 1})
	f.Add([]byte{7, 7, 7, 3, 7, 7, 7, 3, 7, 7, 7, 3, 7, 7, 7})
	f.Add([]byte("\x05\x00\x05\x03\x08\x08\x08\x02\x01\x00\x03\x09\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		diffEngines(t, data)
	})
}
