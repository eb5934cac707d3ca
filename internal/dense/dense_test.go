package dense

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesMap writes random keys, small and large, and checks
// every read and the Range order against a map.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[uint32]
	model := map[uint64]uint32{}
	key := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(1 << 12)) // one or two leaves
		case 1:
			return uint64(rng.Intn(1 << 22)) // a 16 GB frame space
		case 2:
			return rng.Uint64() >> rng.Intn(64) // any width, up to 64 bits
		default:
			return ^uint64(0) - uint64(rng.Intn(8))
		}
	}
	for i := 0; i < 20000; i++ {
		k := key()
		if rng.Intn(3) == 0 {
			v := rng.Uint32()
			*tab.At(k) = v
			model[k] = v
		}
		if got, want := tab.Get(k), model[k]; got != want {
			t.Fatalf("Get(%#x) = %d, want %d", k, got, want)
		}
		if p := tab.Ptr(k); p == nil && model[k] != 0 || p != nil && *p != model[k] {
			t.Fatalf("Ptr(%#x) disagrees with the model value %d", k, model[k])
		}
	}
	var keys []uint64
	tab.Range(func(k uint64, v *uint32) {
		if *v != model[k] {
			t.Fatalf("Range(%#x) = %d, want %d", k, *v, model[k])
		}
		if *v != 0 {
			keys = append(keys, k)
		}
	})
	var want []uint64
	for k, v := range model {
		if v != 0 {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("Range visited %d non-zero keys, want %d in ascending order", len(keys), len(want))
	}
}

// TestPointersStayValid: a pointer from At survives later writes that grow
// the tree upward and sideways.
func TestPointersStayValid(t *testing.T) {
	var tab Table[int]
	p := tab.At(3)
	*p = 7
	for _, k := range []uint64{1 << 20, 1 << 40, ^uint64(0), 4} {
		*tab.At(k) = 1
	}
	*p = 9
	if got := tab.Get(3); got != 9 {
		t.Fatalf("Get(3) = %d after growth, want 9 through the old pointer", got)
	}
}

func TestEmptyTable(t *testing.T) {
	var tab Table[*int]
	if tab.Ptr(0) != nil || tab.Get(1<<63) != nil {
		t.Fatal("an empty table must read zero")
	}
	tab.Range(func(uint64, **int) { t.Fatal("an empty table has no entries") })
}

func TestLeafSize(t *testing.T) {
	for _, c := range []struct {
		name string
		bits uint
		want uint
	}{
		{"bool", leafBitsFor[bool](), 12},
		{"uint64", leafBitsFor[uint64](), 9},
		{"24-byte struct", leafBitsFor[[3]uint64](), 7},
		{"8 KB struct", leafBitsFor[[1024]uint64](), 0},
	} {
		if c.bits != c.want {
			t.Errorf("%s: leaf of 2^%d entries, want 2^%d", c.name, c.bits, c.want)
		}
	}
}
