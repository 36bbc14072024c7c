package sampling

import (
	"math"
	"testing"

	"repro/internal/core"
)

// binomPMF is the reference Binomial(n, p) pmf.
func binomPMF(n int, p float64) []float64 {
	pmf := make([]float64, n+1)
	for m := 0; m <= n; m++ {
		c := 1.0
		for i := 0; i < m; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		pmf[m] = c * math.Pow(p, float64(m)) * math.Pow(1-p, float64(n-m))
	}
	return pmf
}

func TestCountDistMatchesBinomial(t *testing.T) {
	n, p := 12, 0.3
	q := make([]float64, n)
	for i := range q {
		q[i] = p
	}
	got := countDist(q)
	want := binomPMF(n, p)
	for m := 0; m <= n; m++ {
		if math.Abs(got[m]-want[m]) > 1e-12 {
			t.Fatalf("pmf[%d] = %v, want %v", m, got[m], want[m])
		}
	}
}

func TestCountDistSumsToOne(t *testing.T) {
	q := []float64{0.1, 0.9, 0.5, 0.33, 0.77, 0.05}
	pmf := countDist(q)
	sum := 0.0
	for _, v := range pmf {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pmf sums to %v", sum)
	}
}

// TestDesignBoundsMatchPlain pins that at λ = 0 the design bounds equal
// core's plain order-statistic construction: the count model collapses
// to the same binomial, so the interval indices must match exactly.
func TestDesignBoundsMatchPlain(t *testing.T) {
	for _, n := range []int{29, 64, 120, 200} {
		for _, f := range []float64{0.5, 0.9} {
			for _, c := range []float64{0.9, 0.95} {
				p := core.Params{F: f, C: c}
				// Distinct integer samples make interval endpoints
				// recoverable as order-statistic indices.
				sorted := make([]float64, n)
				for i := range sorted {
					sorted[i] = float64(i)
				}
				q := plainQ(n, f)
				ref, err := core.ConfidenceIntervalSorted(sorted, p)
				if err != nil {
					// Below the plain minimum both constructions
					// must refuse.
					if _, _, derr := designBounds(q, p.SideLevel()); derr == nil {
						t.Errorf("n=%d f=%v c=%v: plain refused (%v) but design bounds converged", n, f, c, err)
					}
					continue
				}
				mNeg, mPos, err := designBounds(q, p.SideLevel())
				if err != nil {
					t.Fatalf("designBounds(n=%d f=%v c=%v): %v", n, f, c, err)
				}
				if got, want := sorted[mNeg], ref.Lo; got != want {
					t.Errorf("n=%d f=%v c=%v: Lo index %v, plain %v", n, f, c, got, want)
				}
				if got, want := sorted[mPos-1], ref.Hi; got != want {
					t.Errorf("n=%d f=%v c=%v: Hi index %v, plain %v", n, f, c, got, want)
				}
			}
		}
	}
}

// TestQVectorReflection pins the AtLeast identity the estimator relies
// on: 1 − q_g(1−p) = q_{G+1−g}(p) for the stratum model, per pool
// composition (bandFrac) and marginally (stratumCDF), through the
// fidelity mixture.
func TestQVectorReflection(t *testing.T) {
	const G, B = 5, 40
	for g := 1; g <= G; g++ {
		for j := 0; j <= B; j++ {
			if got, want := bandFrac(G, G+1-g, j, B), 1-bandFrac(G, g, B-j, B); math.Abs(got-want) > 1e-12 {
				t.Fatalf("g=%d j=%d: reflected band fraction %v, want %v", g, j, got, want)
			}
		}
	}
	for _, lam := range []float64{0, 0.4, 0.95} {
		q := func(g int, p float64) float64 { return lam*stratumCDF(G, g, p, B) + (1-lam)*p }
		for _, p := range []float64{0.1, 0.5, 0.9} {
			for g := 1; g <= G; g++ {
				if got, want := q(G+1-g, p), 1-q(g, 1-p); math.Abs(got-want) > 1e-12 {
					t.Fatalf("λ=%v p=%v g=%d: reflected %v, want %v", lam, p, g, got, want)
				}
			}
		}
	}
}

// TestQVectorCycleMean pins the centring property: over a complete
// stratum cycle the per-unit probabilities average exactly to p, so the
// design never biases the satisfied count.
func TestQVectorCycleMean(t *testing.T) {
	for _, G := range []int{2, 4, 7} {
		for _, p := range []float64{0.2, 0.5, 0.9} {
			sum := 0.0
			for g := 1; g <= G; g++ {
				sum += 0.85*stratumCDF(G, g, p, 8*G) + 0.15*p
			}
			if math.Abs(sum/float64(G)-p) > 1e-9 {
				t.Errorf("G=%d p=%v: cycle mean %v", G, p, sum/float64(G))
			}
		}
	}
}

// TestDesignCINarrower checks the point of the whole exercise: with
// positive fidelity and cycling groups, the design interval on the same
// sample is never wider than the plain one, and strictly narrower at a
// realistic size.
func TestDesignCINarrower(t *testing.T) {
	p := core.Params{F: 0.5, C: 0.9}
	for _, n := range []int{60, 120, 240} {
		samples := make([]float64, n)
		groups := make([]int, n)
		pools := make([]int, n)
		for i := range samples {
			samples[i] = float64(i)
			groups[i] = i%4 + 1
			// Pools grow one 32-candidate block per 32 units, the
			// shape a real campaign produces.
			pools[i] = 32 * (i/32 + 1)
		}
		plain, err := core.ConfidenceInterval(samples, p)
		if err != nil {
			t.Fatal(err)
		}
		design, err := designCI(samples, groups, pools, 4, 0.9, p)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if design.Width() > plain.Width() {
			t.Errorf("n=%d: design width %v > plain %v", n, design.Width(), plain.Width())
		}
		if n >= 120 && design.Width() >= plain.Width() {
			t.Errorf("n=%d: design width %v not strictly narrower than plain %v", n, design.Width(), plain.Width())
		}
	}
}

// TestDesignCIReflectionConsistency pins the AtLeast path against the
// reflect–solve–reflect identity: negating the sample turns "x ≥ v"
// into "−x ≤ −v" and a g-th-from-below unit into a g-th-from-above one,
// so AtLeast on (x, groups) must equal the negated AtMost interval on
// (−x, reflected groups).
func TestDesignCIReflectionConsistency(t *testing.T) {
	pAtLeast := core.Params{F: 0.7, C: 0.9, Direction: core.AtLeast}
	pAtMost := core.Params{F: 0.7, C: 0.9}
	const G = 3
	n := 100
	samples := make([]float64, n)
	groups := make([]int, n)
	pools := make([]int, n)
	neg := make([]float64, n)
	rgroups := make([]int, n)
	for i := range samples {
		samples[i] = math.Sin(float64(i) * 12.9898)
		groups[i] = i%G + 1
		pools[i] = 8 * G * (i/(8*G) + 1)
		neg[i] = -samples[i]
		rgroups[i] = G + 1 - groups[i]
	}
	got, err := designCI(samples, groups, pools, G, 0.8, pAtLeast)
	if err != nil {
		t.Fatalf("at-least: %v", err)
	}
	ref, err := designCI(neg, rgroups, pools, G, 0.8, pAtMost)
	if err != nil {
		t.Fatalf("reflected at-most: %v", err)
	}
	if math.Abs(got.Lo-(-ref.Hi)) > 1e-15 || math.Abs(got.Hi-(-ref.Lo)) > 1e-15 {
		t.Errorf("at-least [%v, %v], reflected [%v, %v]", got.Lo, got.Hi, -ref.Hi, -ref.Lo)
	}
}

// TestDesignCIFallsBackAtInfeasibleFidelity: at the plain minimum sample
// size the tempered model may not converge, but the λ = 0 fallback must,
// so designCI succeeds wherever the plain construction does.
func TestDesignCIFallbackFeasible(t *testing.T) {
	p := core.Params{F: 0.9, C: 0.9}
	minN, err := core.CIMinSamples(p)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, minN)
	groups := make([]int, minN)
	pools := make([]int, minN)
	for i := range samples {
		samples[i] = float64(i)
		groups[i] = i%4 + 1
		pools[i] = 32
	}
	if _, err := designCI(samples, groups, pools, 4, maxFidelity, p); err != nil {
		t.Fatalf("designCI at plain minimum n=%d: %v", minN, err)
	}
}

func TestEstimateStratumFidelity(t *testing.T) {
	const n, G = 120, 3
	groups := make([]int, n)
	values := make([]float64, n)
	// Perfect assignment: unit i's value sits exactly in the quantile
	// band of its group. Agreement 1 inverts to λ = 1, minus shrinkage.
	for i := range values {
		groups[i] = i*G/n + 1
		values[i] = float64(i)
	}
	want := 1 - 1/math.Sqrt(float64(n))
	if got := estimateStratumFidelity(groups, values, G); math.Abs(got-want) > 1e-12 {
		t.Errorf("perfect assignment: λ = %v, want %v", got, want)
	}

	// Round-robin assignment uncorrelated with value: agreement ≈ 1/G,
	// which inverts to λ ≈ 0 and shrinks to exactly 0.
	for i := range values {
		groups[i] = i%G + 1
	}
	if got := estimateStratumFidelity(groups, values, G); got != 0 {
		t.Errorf("uninformative assignment: λ = %v, want 0", got)
	}

	// Partially obedient assignment: two thirds of the units follow
	// their band, one third is sent to the wrong one. Agreement 2/3
	// inverts to λ = 0.5 before shrinkage — well below what a global
	// rank correlation would report for the same data, which is the
	// point: agreement punishes band disobedience directly.
	for i := range values {
		if i < n/2 {
			groups[i] = i*G/n + 1
		} else {
			groups[i] = G - i*G/n
		}
	}
	got := estimateStratumFidelity(groups, values, G)
	if got <= 0 || got >= 0.5 {
		t.Errorf("half-obedient assignment: λ = %v, want in (0, 0.5)", got)
	}

	if got := estimateStratumFidelity(groups[:4], values[:4], G); got != 0 {
		t.Errorf("tiny sample: λ = %v, want 0", got)
	}
}
