package cpu

import (
	"testing"

	"repro/internal/randx"
)

func TestBranchPredictorLearnsBias(t *testing.T) {
	bp := NewBranchPredictor(1024)
	// A branch always taken: after warmup, no mispredictions.
	for i := 0; i < 10; i++ {
		bp.Predict(0x400, true)
	}
	before := bp.Stats().Mispredicts
	for i := 0; i < 100; i++ {
		if bp.Predict(0x400, true) {
			t.Fatal("saturated predictor mispredicted a biased branch")
		}
	}
	if bp.Stats().Mispredicts != before {
		t.Error("misprediction count changed on biased branch")
	}
}

func TestBranchPredictorAlternatingIsHard(t *testing.T) {
	bp := NewBranchPredictor(64)
	mis := 0
	for i := 0; i < 1000; i++ {
		if bp.Predict(0x80, i%2 == 0) {
			mis++
		}
	}
	// A 2-bit counter on an alternating branch mispredicts ~half the time.
	if mis < 300 {
		t.Errorf("alternating branch mispredicts = %d, expected ≈500", mis)
	}
}

func TestBranchPredictorTableRounding(t *testing.T) {
	bp := NewBranchPredictor(1000) // rounds up to 1024
	if len(bp.counters) != 1024 {
		t.Errorf("table size %d, want 1024", len(bp.counters))
	}
	bp2 := NewBranchPredictor(0)
	if len(bp2.counters) != 16 {
		t.Errorf("minimum table size %d, want 16", len(bp2.counters))
	}
}

func TestTLBValidation(t *testing.T) {
	if _, err := NewTLB(0, 4096); err == nil {
		t.Error("0 entries should error")
	}
	if _, err := NewTLB(64, 3000); err == nil {
		t.Error("non-power-of-two page should error")
	}
}

func TestTLBHitAfterFill(t *testing.T) {
	tlb, err := NewTLB(4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !tlb.Lookup(0x1000) {
		t.Error("first lookup should miss")
	}
	if tlb.Lookup(0x1FFF) {
		t.Error("same-page lookup should hit")
	}
	st := tlb.Stats()
	if st.Lookups != 2 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb, _ := NewTLB(2, 4096)
	tlb.Lookup(0x0000) // page 0
	tlb.Lookup(0x1000) // page 1
	tlb.Lookup(0x0000) // page 0 now MRU
	tlb.Lookup(0x2000) // page 2 evicts page 1
	if tlb.Lookup(0x0000) {
		t.Error("page 0 should still be resident")
	}
	if !tlb.Lookup(0x1000) {
		t.Error("page 1 should have been evicted")
	}
	if tlb.Resident() != 2 {
		t.Errorf("resident = %d, want 2", tlb.Resident())
	}
}

func TestTLBFlush(t *testing.T) {
	tlb, _ := NewTLB(8, 4096)
	tlb.Lookup(0x1000)
	tlb.Flush()
	if tlb.Resident() != 0 {
		t.Error("flush should empty the TLB")
	}
	if !tlb.Lookup(0x1000) {
		t.Error("post-flush lookup should miss")
	}
}

func TestTLBMissRateSmallWorkingSet(t *testing.T) {
	tlb, _ := NewTLB(64, 4096)
	r := randx.New(5)
	// 32 pages fit comfortably: after warmup the miss rate is ~0.
	for i := 0; i < 5000; i++ {
		tlb.Lookup(uint64(r.Intn(32)) * 4096)
	}
	st := tlb.Stats()
	if st.Misses > 40 {
		t.Errorf("fitting working set missed %d times", st.Misses)
	}
}

// Reference model: the recency-array TLB must behave identically to a
// naive clock-scan LRU over arbitrary access strings.
type refTLB struct {
	entries int
	slots   map[uint64]uint64
	clock   uint64
}

func (t *refTLB) lookup(page uint64) bool {
	t.clock++
	if _, ok := t.slots[page]; ok {
		t.slots[page] = t.clock
		return false
	}
	if len(t.slots) >= t.entries {
		var lruP, lruC uint64 = 0, ^uint64(0)
		for p, c := range t.slots {
			if c < lruC {
				lruC, lruP = c, p
			}
		}
		delete(t.slots, lruP)
	}
	t.slots[page] = t.clock
	return true
}

// The small case forces constant eviction; the second is the simulated
// geometry (DefaultConfig's 64 entries) over a page pool that overflows it.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct{ entries, pages int }{{8, 20}, {64, 100}} {
		for seed := uint64(0); seed < 20; seed++ {
			tlb, err := NewTLB(tc.entries, 4096)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refTLB{entries: tc.entries, slots: map[uint64]uint64{}}
			r := randx.New(seed)
			for i := 0; i < 3000; i++ {
				if r.Bernoulli(0.01) {
					tlb.Flush()
					ref.slots = map[uint64]uint64{}
					continue
				}
				addr := uint64(r.Intn(tc.pages)) * 4096
				got := tlb.Lookup(addr)
				want := ref.lookup(addr >> 12)
				if got != want {
					t.Fatalf("%d entries/%d pages seed %d access %d: miss=%v, reference says %v",
						tc.entries, tc.pages, seed, i, got, want)
				}
			}
			if tlb.Resident() != len(ref.slots) {
				t.Fatalf("%d entries/%d pages: occupancy diverged: %d vs %d",
					tc.entries, tc.pages, tlb.Resident(), len(ref.slots))
			}
		}
	}
}

func TestTLBFlushRefillCycles(t *testing.T) {
	tlb, _ := NewTLB(4, 4096)
	for cycle := 0; cycle < 10; cycle++ {
		for p := uint64(0); p < 4; p++ {
			tlb.Lookup(p * 4096)
		}
		if tlb.Resident() != 4 {
			t.Fatalf("cycle %d: resident %d", cycle, tlb.Resident())
		}
		tlb.Flush()
		if tlb.Resident() != 0 {
			t.Fatal("flush left entries")
		}
	}
	// All those first-touches were misses.
	if tlb.Stats().Misses != 40 {
		t.Errorf("misses = %d, want 40", tlb.Stats().Misses)
	}
}

func TestGshareLearnsCorrelatedPattern(t *testing.T) {
	// A strictly periodic pattern (T T N) defeats a bimodal counter but is
	// perfectly predictable with 2+ bits of history.
	pattern := []bool{true, true, false}
	g := NewGshare(256, 8)
	b := NewBranchPredictor(256)
	var gMis, bMis int
	for i := 0; i < 3000; i++ {
		taken := pattern[i%3]
		if g.Predict(0x40, taken) {
			gMis++
		}
		if b.Predict(0x40, taken) {
			bMis++
		}
	}
	if gMis >= bMis {
		t.Errorf("gshare (%d misses) should beat bimodal (%d) on a periodic pattern", gMis, bMis)
	}
	if g.Stats().Predictions != 3000 {
		t.Error("prediction count wrong")
	}
	// After warmup, gshare should be nearly perfect on this pattern.
	warm := NewGshare(256, 8)
	for i := 0; i < 300; i++ {
		warm.Predict(0x40, pattern[i%3])
	}
	late := 0
	for i := 300; i < 600; i++ {
		if warm.Predict(0x40, pattern[i%3]) {
			late++
		}
	}
	if late > 10 {
		t.Errorf("warmed gshare still mispredicts %d/300 on a periodic pattern", late)
	}
}

func TestGshareHistoryClamp(t *testing.T) {
	g := NewGshare(16, 60) // history clamped to index width (4 bits)
	if g.histBits != 4 {
		t.Errorf("history bits = %d, want clamped 4", g.histBits)
	}
	for i := 0; i < 100; i++ {
		g.Predict(uint64(i)*4, i%2 == 0)
	}
	if g.history >= 1<<4 {
		t.Errorf("history %b escaped its clamp", g.history)
	}
}
