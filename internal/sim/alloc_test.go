package sim

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestRunnerSteadyStateAllocs bounds the heap bytes one warmed Runner.Run
// allocates. Machine state is reused across runs, the generators refill
// one op buffer per thread, and the directory and TLB keep no maps, so
// what remains is the per-run program, Result and trace. A regression
// that allocates per simulated access (a map insert, a regrown slice)
// costs megabytes per run on canneal and fails this test.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	const budget = 128 << 10
	cfg := DefaultConfig()
	for _, bench := range workload.Names() {
		r := NewRunner()
		for seed := uint64(1); seed <= 2; seed++ {
			if _, err := r.Run(bench, cfg, 0.05, seed); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Run(bench, cfg, 0.05, 3); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d KB per run", bench, got>>10)
		if got > budget {
			t.Errorf("%s: a warmed run allocated %d KB, budget %d KB", bench, got>>10, budget>>10)
		}
	}
}
