package sampling

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// The estimator generalizes core's order-statistic construction to
// design-selected samples. For a threshold v with population CDF value
// p = P(X ≤ v), the satisfied count of the AtMost property is
//
//	M(v) = Σ_t Bernoulli(q_t(p))
//
// where q_t is unit t's satisfaction probability under the design model.
//
// Stratified units are not independent: all units cut at the quantiles
// of the same pilot pool share that pool's estimation error. If the
// pool's empirical composition at the threshold is J = #{pool ≤ v}
// out of B candidates, a unit drawn from stratum g — the rank band
// ((g−1)B/G, gB/G] of the pool — satisfies the property with the band
// fraction below the threshold,
//
//	q_g(J) = clamp(G·J/B − (g−1), 0, 1),
//
// and J ~ Binomial(B, p). Marginalizing J per unit (stratumCDF) gives
// the right per-unit probability, but treating units as independent at
// that marginal understates Var(M): when the pool misplaces a cutpoint
// it misplaces it for every unit at once. The honest-coverage sweep
// caught exactly this — the independent model's intervals under-covered
// at small n, where the whole sample shares one pool, and the error
// does not wash out with n while cutpoints stay frozen (which is why
// the collector re-cuts from the growing pool as pilots accumulate).
// The estimator therefore conditions: units cut at the first (smallest)
// pool are modeled jointly under the mixture over its composition J,
// while later units — whose pools are larger, so their shared error is
// second-order — enter through their own marginal. Ranking is never
// perfect either, so every model probability is tempered with a
// fidelity λ ∈ [0, 1]:
//
//	q_t = λ·q_model + (1−λ)·p
//
// which is exactly "the pilot ranked this unit correctly with
// probability λ, else it is a plain draw". At λ = 0 every q_t = p and
// M(v) is the plain Binomial(n, p) — the construction degrades to
// core's.
//
// Count distributions are built exactly by the O(n²) convolution in
// countDist; the mixture adds a factor of B₁+1 only over the first-pool
// units, so the whole pmf stays ≤ O(B₁·n₁² + n²) — small against the
// adaptive loop's simulation cost. The one-sided tests then mirror
// smc.Confidence: a count m converges negative when m is below the mean
// and P(M > m) ≥ c, positive when m is at or above the mean and
// P(M < m) ≥ c — for the plain binomial these are exactly the
// Clopper–Pearson tails core uses (TestDesignBoundsMatchPlain pins the
// equivalence).
//
// Over a complete stratum cycle the q_t average to p exactly:
// Σ_g clamp(G·J/B − (g−1)) = G·J/B for every pool composition, whose
// Binomial mean is G·p — so the design never biases the count, it only
// changes M's concentration around the mean, which is what turns the
// same confidence level into a narrower (or, honestly, wider) interval.

// bandFrac is the fraction of stratum g's rank band — the continuous
// rank interval ((g−1)B/G, gB/G] of a B-candidate pool — lying at or
// below pool rank j. The clamp identity 1 − bandFrac(G, g, B−j, B) =
// bandFrac(G, G+1−g, j, B) holds exactly for every j and B, which is
// what keeps the AtLeast reflection exact per mixture component.
func bandFrac(G, g, j, B int) float64 {
	x := float64(G)*float64(j)/float64(B) - float64(g-1)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// binomWeights returns the Binomial(B, p) pmf, computed outward from the
// mode by the ratio recurrence and normalized at the end, so it never
// under- or overflows regardless of B.
func binomWeights(B int, p float64) []float64 {
	w := make([]float64, B+1)
	if p <= 0 {
		w[0] = 1
		return w
	}
	if p >= 1 {
		w[B] = 1
		return w
	}
	mode := int(float64(B+1) * p)
	if mode > B {
		mode = B
	}
	w[mode] = 1
	r := p / (1 - p)
	for j := mode; j < B; j++ {
		w[j+1] = w[j] * float64(B-j) / float64(j+1) * r
	}
	for j := mode; j > 0; j-- {
		w[j-1] = w[j] * float64(j) / (float64(B-j+1) * r)
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// stratumCDF is the marginal satisfaction probability of a unit drawn
// from stratum g of G cut at the empirical quantiles of a B-candidate
// pilot pool: the expectation of bandFrac over the pool composition
// J ~ Binomial(B, p).
func stratumCDF(G, g int, p float64, B int) float64 {
	w := binomWeights(B, p)
	sum := 0.0
	for j, wj := range w {
		sum += wj * bandFrac(G, g, j, B)
	}
	return sum
}

// plainQ is the per-unit probability vector at λ = 0: every unit
// satisfies the property with the population probability p.
func plainQ(n int, p float64) []float64 {
	q := make([]float64, n)
	for i := range q {
		q[i] = p
	}
	return q
}

// countDist returns the exact probability mass function of
// M = Σ_t Bernoulli(q_t) over 0..len(q), by incremental convolution.
func countDist(q []float64) []float64 {
	pmf := make([]float64, len(q)+1)
	pmf[0] = 1
	for t, qt := range q {
		for j := t + 1; j >= 1; j-- {
			pmf[j] = pmf[j]*(1-qt) + pmf[j-1]*qt
		}
		pmf[0] *= 1 - qt
	}
	return pmf
}

// designBoundsPMF is convergenceBounds for an arbitrary count pmf over
// 0..n with mean em: mNeg is the largest count with a converged negative
// verdict (m < E[M] and P(M > m) ≥ c), mPos the smallest with a
// converged positive one (m ≥ E[M] and P(M < m) ≥ c). Both tails are
// accumulated from their own end of the pmf, so neither loses precision
// to a 1−x subtraction. It returns core.ErrInsufficientSamples when
// either side cannot converge at all.
func designBoundsPMF(pmf []float64, em, c float64) (mNeg, mPos int, err error) {
	n := len(pmf) - 1
	if n < 1 {
		return 0, 0, fmt.Errorf("%w: empty sample", core.ErrInsufficientSamples)
	}
	// prefix[m] = P(M ≤ m); suffix[m] = P(M > m).
	prefix := make([]float64, n+1)
	suffix := make([]float64, n+1)
	acc := 0.0
	for m := 0; m <= n; m++ {
		acc += pmf[m]
		prefix[m] = acc
	}
	acc = 0
	for m := n - 1; m >= 0; m-- {
		acc += pmf[m+1]
		suffix[m] = acc
	}
	negOK := func(m int) bool { return float64(m) < em && suffix[m] >= c }
	posOK := func(m int) bool { return m > 0 && float64(m) >= em && prefix[m-1] >= c }
	if !negOK(0) {
		return 0, 0, fmt.Errorf("%w: even M=0 cannot assert negative at C=%v with N=%d under the design model",
			core.ErrInsufficientSamples, c, n)
	}
	if !posOK(n) {
		return 0, 0, fmt.Errorf("%w: even M=N cannot assert positive at C=%v with N=%d under the design model",
			core.ErrInsufficientSamples, c, n)
	}
	// negOK holds on a contiguous prefix of counts (suffix[m] is
	// non-increasing in m), posOK on a contiguous suffix (prefix[m−1] is
	// non-decreasing) — the same search structure as core.
	mNeg = sort.Search(n+1, func(m int) bool { return !negOK(m) }) - 1
	mPos = sort.Search(n+1, posOK)
	return mNeg, mPos, nil
}

// designBounds builds the Poisson-binomial count model for independent
// per-unit probabilities q and runs the convergence tests on it.
func designBounds(q []float64, c float64) (mNeg, mPos int, err error) {
	if len(q) == 0 {
		return 0, 0, fmt.Errorf("%w: empty sample", core.ErrInsufficientSamples)
	}
	em := 0.0
	for _, qt := range q {
		em += qt
	}
	return designBoundsPMF(countDist(q), em, c)
}

// stratifiedBounds builds the count pmf for a sample whose units were
// cut at the quantiles of growing pilot pools. Units sharing the first
// (smallest) pool are modeled jointly: their probabilities are
// conditioned on that pool's composition J ~ Binomial(B₁, p), which is
// what carries the shared cutpoint error into the count's variance.
// Later units, whose pools are larger and whose shared error is
// correspondingly smaller, enter independently through their marginal
// stratumCDF. The two blocks convolve into the final pmf per mixture
// component. reflected swaps every stratum g for G+1−g: the AtLeast
// property counts #{x ≥ v}, and the g-th band from below is the
// G+1−g-th from above — 1 − q_g(1−p) = q_{G+1−g}(p), per pool
// composition and through the fidelity mixture.
func stratifiedBounds(groups, pools []int, G int, pF, lambda float64, reflected bool, c float64) (mNeg, mPos int, err error) {
	n := len(groups)
	b1 := pools[0]
	for _, b := range pools {
		if b < b1 {
			b1 = b
		}
	}
	eg := func(g int) int {
		if reflected {
			return G + 1 - g
		}
		return g
	}
	var era []int      // effective groups of first-pool units
	var late []float64 // marginal q of later units
	memo := map[[2]int]float64{}
	for i, g := range groups {
		if pools[i] == b1 {
			era = append(era, eg(g))
			continue
		}
		key := [2]int{eg(g), pools[i]}
		q, ok := memo[key]
		if !ok {
			q = lambda*stratumCDF(G, eg(g), pF, pools[i]) + (1-lambda)*pF
			memo[key] = q
		}
		late = append(late, q)
	}
	pmfLate := countDist(late)
	w := binomWeights(b1, pF)
	total := make([]float64, n+1)
	qe := make([]float64, len(era))
	for j, wj := range w {
		if wj == 0 {
			continue
		}
		for i, g := range era {
			qe[i] = lambda*bandFrac(G, g, j, b1) + (1-lambda)*pF
		}
		pe := countDist(qe)
		for a, pa := range pe {
			if pa == 0 {
				continue
			}
			wpa := wj * pa
			for b, pb := range pmfLate {
				total[a+b] += wpa * pb
			}
		}
	}
	em := 0.0
	for m, pm := range total {
		em += float64(m) * pm
	}
	return designBoundsPMF(total, em, c)
}

// designCI builds the confidence interval for samples whose unit t was
// measured from stratum groups[t] of G, cut at the quantiles of a
// pilot pool of pools[t] candidates. It mirrors
// core.ConfidenceIntervalSorted exactly — same side level, same
// order-statistic indexing, same AtLeast reflection — swapping only the
// count model. When the bounds are infeasible at the requested
// fidelity, it retries at λ = 0 (the plain binomial), which is feasible
// whenever the sample meets core.CIMinSamples; that fallback is what
// makes the plain minimum a valid DesignMinSamples.
func designCI(samples []float64, groups, pools []int, G int, lambda float64, p core.Params) (stats.Interval, error) {
	n := len(samples)
	if n == 0 {
		return stats.Interval{}, fmt.Errorf("%w: empty sample", core.ErrInsufficientSamples)
	}
	if n != len(groups) {
		return stats.Interval{}, fmt.Errorf("sampling: %d samples but %d group labels", n, len(groups))
	}
	if len(pools) != n {
		return stats.Interval{}, fmt.Errorf("sampling: %d samples but %d pool sizes", n, len(pools))
	}
	c := p.SideLevel()
	reflected := p.Direction == core.AtLeast
	var mNeg, mPos int
	var err error
	if lambda > 0 {
		mNeg, mPos, err = stratifiedBounds(groups, pools, G, p.F, lambda, reflected, c)
	}
	if lambda == 0 || err != nil {
		mNeg, mPos, err = designBounds(plainQ(n, p.F), c)
	}
	if err != nil {
		return stats.Interval{}, err
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if reflected {
		return stats.Interval{Lo: sorted[n-mPos], Hi: sorted[n-1-mNeg]}, nil
	}
	return stats.Interval{Lo: sorted[mNeg], Hi: sorted[mPos-1]}, nil
}

// minFidelitySamples is the smallest measured sample from which a
// fidelity is estimated at all; below it the estimate is noise and the
// estimator stays at the plain-binomial λ = 0.
const minFidelitySamples = 8

// estimateStratumFidelity estimates λ from realized stratum agreement:
// the fraction a of measured units whose value falls in the quantile
// band their pilot proxy assigned them to (bands taken from the
// measured sample's own midranks). Under the
// mixture model a unit obeys its assignment with probability λ and is a
// uniform draw otherwise, so E[a] = λ + (1−λ)/G; inverting and
// shrinking by 1/√n gives the estimate. The shrink direction is the
// safe one: an understated λ only widens the interval (toward the plain
// construction, which is coverage-correct on any sample), while an
// overstated λ would narrow it below nominal coverage. The
// honest-coverage suite is the empirical contract for this choice.
//
// Agreement measures the ranking channel only — whether the proxy puts
// units in the right band relative to each other. It is blind to the
// pool's cutpoint-placement error (a stratified sample agrees with its
// own bands almost by construction), which is exactly why that error is
// carried by the count model itself (stratifiedBounds' mixture over the
// pool composition) rather than by λ. Under Neyman allocation the
// measured sample is not self-weighted, which biases a — and therefore
// λ — downward; the bias direction is the safe one (wider intervals).
func estimateStratumFidelity(groups []int, value []float64, G int) float64 {
	n := len(value)
	if n < minFidelitySamples || len(groups) != n || G < 2 {
		return 0
	}
	ranks := midranks(value)
	agree := 0
	for i, r := range ranks {
		band := int(math.Ceil(r * float64(G) / float64(n)))
		if band < 1 {
			band = 1
		}
		if band > G {
			band = G
		}
		if band == groups[i] {
			agree++
		}
	}
	a := float64(agree) / float64(n)
	lam := (a-1/float64(G))/(1-1/float64(G)) - 1/math.Sqrt(float64(n))
	if lam < 0 || math.IsNaN(lam) {
		return 0
	}
	if lam > maxFidelity {
		return maxFidelity
	}
	return lam
}

// midranks returns 1-based ranks with ties averaged.
func midranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && x[idx[j]] == x[idx[i]] {
			j++
		}
		mid := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			r[idx[k]] = mid
		}
		i = j
	}
	return r
}
