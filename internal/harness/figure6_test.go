package harness

import (
	"math/rand"
	"testing"

	"bordercontrol/internal/arch"
	"bordercontrol/internal/core"
	"bordercontrol/internal/memory"
)

// TestStackDistanceMatchesBCC: for random event streams and random BCC
// geometries, Figure 6's stack-distance pass gives exactly, as a float64,
// the miss ratio of a real core.BCC replaying the stream: Merge and Update
// on an insert, Probe and, on a miss, Fill on a check. Inserts draw from
// the same tags as checks, so many Updates miss and fill.
func TestStackDistanceMatchesBCC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var updateFills int
	for trial := 0; trial < 300; trial++ {
		ppe := []int{1, 2, 32, 512}[rng.Intn(4)]
		entries := 1 + rng.Intn(256)
		tags := 1 + rng.Intn(2*entries+8)
		physPages := uint64(tags * ppe)
		store, err := memory.NewStore(arch.AlignUp(core.TableBytes(physPages), arch.PageSize) + arch.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		table, err := core.NewProtectionTable(store, 0, physPages)
		if err != nil {
			t.Fatal(err)
		}
		bcc, err := core.NewBCC(core.BCCConfig{Entries: entries, PagesPerEntry: ppe, TagBits: 36})
		if err != nil {
			t.Fatal(err)
		}
		sd := newStackDistance(ppe, 256)
		for i := 0; i < 2000; i++ {
			ppn := arch.PPN(rng.Uint64() % physPages)
			insert := rng.Intn(4) == 0
			if insert {
				perm := []arch.Perm{arch.PermRead, arch.PermWrite, arch.PermRW}[rng.Intn(3)]
				table.Merge(ppn, perm)
				if _, filled := bcc.Update(ppn, perm, table); filled {
					updateFills++
				}
			} else if _, hit := bcc.Probe(ppn); !hit {
				bcc.Fill(ppn, table)
			}
			sd.access(ppn, !insert)
		}
		if got, want := sd.missRatio(entries), bcc.CheckHitMiss.MissRatio(); got != want {
			t.Fatalf("trial %d (%d entries x %d pages, %d tags): stack distance %v, BCC %v",
				trial, entries, ppe, tags, got, want)
		}
	}
	if updateFills == 0 {
		t.Fatal("no Update missed and filled")
	}
}
