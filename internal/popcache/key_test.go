package popcache

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestKeyHashStability pins the content address of legacy (plain) keys:
// extending Key with the sampling-design fields must not change the hash
// of any recipe that does not use them, or every existing disk cache
// would silently invalidate. The hex values were computed from the
// pre-extension five-field Key.
func TestKeyHashStability(t *testing.T) {
	cases := []struct {
		key  Key
		want string
	}{
		{
			Key{Benchmark: "ferret", Config: sim.DefaultConfig(), Scale: 0.5, BaseSeed: 42, Runs: 100},
			"558e506e751ad31372145e30fed05ee3e6b8fb46d668f32a9817d8596b41e1cd",
		},
		{
			Key{Benchmark: "canneal", Config: sim.HardwareLikeConfig(), Scale: 1, BaseSeed: 7, Runs: 31},
			"e2e88072d9ac8ada6cc11df3706cf2b9f90395135ac111aec5ed9b073a7f778d",
		},
	}
	for _, c := range cases {
		if got := c.key.Hash(); got != c.want {
			t.Errorf("legacy key %s/%d hash changed:\n got  %s\n want %s — existing disk caches would be invalidated",
				c.key.Benchmark, c.key.Runs, got, c.want)
		}
	}
}

// TestKeyPairwiseDistinct builds one variant per Key field, each
// differing from the base recipe in exactly that field, and checks every
// pair of recipes hashes differently — so neither field omission
// (omitempty) nor any value shift between fields can alias two distinct
// recipes to one cache entry.
func TestKeyPairwiseDistinct(t *testing.T) {
	base := Key{Benchmark: "ferret", Config: sim.DefaultConfig(), Scale: 0.5, BaseSeed: 42, Runs: 100}
	cfg2 := sim.DefaultConfig()
	cfg2.L2Size *= 2

	variants := map[string]Key{"base": base}
	mk := func(name string, mut func(*Key)) {
		k := base
		mut(&k)
		variants[name] = k
	}
	mk("Benchmark", func(k *Key) { k.Benchmark = "canneal" })
	mk("Config", func(k *Key) { k.Config = cfg2 })
	mk("Scale", func(k *Key) { k.Scale = 0.25 })
	mk("BaseSeed", func(k *Key) { k.BaseSeed = 43 })
	mk("Runs", func(k *Key) { k.Runs = 101 })
	mk("Design", func(k *Key) { k.Design = "stratified" })
	mk("Strata", func(k *Key) { k.Strata = 4 })
	mk("Allocation", func(k *Key) { k.Allocation = "neyman" })
	mk("PilotScale", func(k *Key) { k.PilotScale = 0.125 })
	mk("PilotRuns", func(k *Key) { k.PilotRuns = 64 })
	mk("ProxyMetric", func(k *Key) { k.ProxyMetric = "runtime_s" })
	mk("Fidelity", func(k *Key) { k.Fidelity = 0.8 })

	// Every Key field must have a variant, so a future field cannot be
	// added without extending this collision test.
	if want := reflect.TypeOf(Key{}).NumField(); len(variants)-1 != want {
		t.Fatalf("collision test covers %d of %d Key fields — add a variant for the new field",
			len(variants)-1, want)
	}

	hashes := map[string]string{}
	for name, k := range variants {
		hashes[name] = k.Hash()
	}
	for a, ha := range hashes {
		for b, hb := range hashes {
			if a < b && ha == hb {
				t.Errorf("recipes %q and %q collide on hash %s", a, b, ha)
			}
		}
	}
}
