package cluster

import (
	"testing"

	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/rng"
)

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("NewRing(0) succeeded")
	}
}

func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRing(4)
	r := rng.New(0x5eed)
	for i := 0; i < 1000; i++ {
		k := registry.Key{Manufacturer: "TC", DieID: r.Uint64()}
		sa, sb := a.Shard(k), b.Shard(k)
		if sa != sb {
			t.Fatalf("ring placement not deterministic for %+v: %d vs %d", k, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("shard %d out of range", sa)
		}
	}
}

func TestRingSingleShardShortcut(t *testing.T) {
	ring, err := NewRing(1)
	if err != nil {
		t.Fatal(err)
	}
	for die := uint64(0); die < 100; die++ {
		if s := ring.Shard(registry.Key{Manufacturer: "TC", DieID: die}); s != 0 {
			t.Fatalf("single-shard ring routed die %d to shard %d", die, s)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	const shards, keys = 4, 8000
	ring, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	r := rng.New(20260808)
	for i := 0; i < keys; i++ {
		counts[ring.Shard(registry.Key{Manufacturer: "TC", DieID: r.Uint64()})]++
	}
	// With 64 vnodes per shard the arc lengths even out; anything
	// within 2x of the fair share is fine for a routing table.
	fair := keys / shards
	for s, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Fatalf("shard %d holds %d of %d keys (fair share %d): %v", s, c, keys, fair, counts)
		}
	}
}

func TestRingManufacturerMatters(t *testing.T) {
	ring, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct manufacturers with the same die id should not all land
	// on one shard; the key hash covers both fields.
	same := 0
	base := ring.Shard(registry.Key{Manufacturer: "mfg-0", DieID: 42})
	for i := 1; i < 32; i++ {
		k := registry.Key{Manufacturer: "mfg-" + string(rune('a'+i)), DieID: 42}
		if ring.Shard(k) == base {
			same++
		}
	}
	if same == 31 {
		t.Fatal("manufacturer is ignored by the ring hash")
	}
}

// TestRingRoutingTablePinned fixes the routing table across revisions:
// the owning shard of each key at 2, 3 and 4 shards. The table is part
// of the cluster's configuration contract; a change here reroutes
// enrolled identities away from the shard that holds them.
func TestRingRoutingTablePinned(t *testing.T) {
	keys := []registry.Key{
		{Manufacturer: "TC", DieID: 0},
		{Manufacturer: "TC", DieID: 1},
		{Manufacturer: "TC", DieID: 2},
		{Manufacturer: "TC", DieID: 3},
		{Manufacturer: "TC", DieID: 1001},
		{Manufacturer: "TC", DieID: 4003},
		{Manufacturer: "TC", DieID: 9001},
		{Manufacturer: "TC", DieID: 1 << 32},
		{Manufacturer: "TC", DieID: ^uint64(0)},
		{Manufacturer: "FM", DieID: 42},
		{Manufacturer: "ACME", DieID: 7},
		{Manufacturer: "mfg-b", DieID: 42},
		{Manufacturer: "", DieID: 0},
		{Manufacturer: "\x00crp\x00TC", DieID: 4003},
		{Manufacturer: "\x00crp\x00TC", DieID: 1001},
		{Manufacturer: "Texas Cells", DieID: 123456789},
	}
	want := map[int][]int{
		2: {0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1},
		3: {2, 2, 2, 2, 0, 0, 2, 0, 2, 0, 2, 2, 1, 0, 1, 2},
		4: {3, 3, 3, 3, 0, 0, 2, 0, 2, 0, 3, 2, 1, 0, 3, 3},
	}
	for shards, table := range want {
		ring, err := NewRing(shards)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if got := ring.Shard(k); got != table[i] {
				t.Errorf("%d shards: key %+v routed to %d, want %d", shards, k, got, table[i])
			}
		}
	}
}
