// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Sec. 5–6) on the simulator substrate.
// Each FigN/TableN function produces a renderable Table whose rows carry
// the same series the paper plots; EXPERIMENTS.md records the comparison
// of shapes against the paper.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/randx"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options size an experiment campaign.
type Options struct {
	// Runs is the population size per benchmark (paper Sec. 5.3: 500).
	Runs int
	// HWRuns is the Fig. 1 hardware-like population size (paper: 1000).
	HWRuns int
	// Trials is the number of CI evaluation trials (paper: 1000).
	Trials int
	// Fig14Trials is the trial count for the width-vs-confidence sweep
	// (paper: 100).
	Fig14Trials int
	// Samples is the per-trial draw (paper: 22). Methods requiring more
	// (SPA's two-sided minimum at high F) raise it per experiment; the
	// raise applies to every method for fairness and is noted in output.
	Samples int
	// Scale is the workload scale factor (1.0 ≈ simsmall-like).
	Scale float64
	// Resamples is the bootstrap resample count.
	Resamples int
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Seed roots every campaign and trial stream.
	Seed uint64
}

// DefaultOptions reproduces the paper's experiment sizes.
func DefaultOptions() Options {
	return Options{
		Runs: 500, HWRuns: 1000, Trials: 1000, Fig14Trials: 100,
		Samples: 22, Scale: 1.0, Resamples: 1000, Seed: 1,
	}
}

// QuickOptions shrinks everything for tests and benchmarks while keeping
// the shapes of the results.
func QuickOptions() Options {
	return Options{
		Runs: 60, HWRuns: 80, Trials: 120, Fig14Trials: 40,
		Samples: 22, Scale: 0.12, Resamples: 200, Seed: 1,
	}
}

// Variant selects a simulated-system variant for population generation.
type Variant int

// System variants used by the experiments.
const (
	// VariantDefault is the Table 2 system.
	VariantDefault Variant = iota
	// VariantHardware adds OS noise and colocation (Fig. 1 populations).
	VariantHardware
	// VariantL2Half is the Fig. 4 baseline with a 512 kB L2.
	VariantL2Half
	// VariantL2Double is the Fig. 4 improved system with a 1 MB L2.
	VariantL2Double
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantHardware:
		return "hardware"
	case VariantL2Half:
		return "l2-512k"
	case VariantL2Double:
		return "l2-1m"
	default:
		return "default"
	}
}

// Config returns the simulator configuration for the variant.
func (v Variant) Config() sim.Config {
	name := map[Variant]string{VariantHardware: "hardware", VariantL2Half: "l2half", VariantL2Double: "l2double"}[v]
	cfg, _ := sim.VariantConfig(name) // every name above is known
	return cfg
}

// Engine caches benchmark populations across figures so each campaign is
// simulated once. Populations are generated through a manifest.Runner,
// the one path every CLI shares: its coordinator runs (and observes)
// the simulations and its PopCache, when set, serves and stores them.
type Engine struct {
	opts   Options
	runner manifest.Runner

	mu   sync.Mutex
	pops map[string]*popEntry
}

// popEntry is one population slot. The sync.Once gives concurrent figure
// cells single-flight semantics: when two cells need the same population,
// one simulates and the other waits, instead of both simulating.
type popEntry struct {
	once sync.Once
	pop  *population.Population
	err  error
}

// SetObserver attaches campaign telemetry: per-simulation spans/counters
// during population generation, per-evaluation spans, and trial counters.
// Telemetry never touches the trial or simulation RNG streams, so results
// are identical with or without it. Call it before the first population
// is generated: the runner's coordinator keeps the observer it started
// with.
func (e *Engine) SetObserver(o *obs.Observer) { e.runner.Obs = o }

// SetPopCache attaches a content-addressed population cache consulted
// before any campaign is simulated. Because cache keys cover the complete
// generation recipe and entries are byte-identical to fresh generation, an
// engine with a warm cache produces exactly the figures a cold one would —
// just without re-simulating. A nil cache (the default) disables the layer.
func (e *Engine) SetPopCache(c *popcache.Cache) { e.runner.PopCache = c }

// NewEngine builds an engine. Zero-valued option fields are filled from
// DefaultOptions.
func NewEngine(opts Options) *Engine {
	def := DefaultOptions()
	if opts.Runs <= 0 {
		opts.Runs = def.Runs
	}
	if opts.HWRuns <= 0 {
		opts.HWRuns = def.HWRuns
	}
	if opts.Trials <= 0 {
		opts.Trials = def.Trials
	}
	if opts.Fig14Trials <= 0 {
		opts.Fig14Trials = def.Fig14Trials
	}
	if opts.Samples <= 0 {
		opts.Samples = def.Samples
	}
	if opts.Scale <= 0 {
		opts.Scale = def.Scale
	}
	if opts.Resamples <= 0 {
		opts.Resamples = def.Resamples
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	return &Engine{opts: opts, runner: manifest.Runner{Parallelism: opts.Parallelism}, pops: make(map[string]*popEntry)}
}

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// Population returns (generating and caching on first use) the population
// of the benchmark under the given system variant. Concurrent callers of
// the same (benchmark, variant) share one generation — the figure engine
// fans out across cells, and duplicate simulation would waste the whole
// win — while different keys generate independently.
func (e *Engine) Population(bench string, v Variant) (*population.Population, error) {
	runs := e.opts.Runs
	if v == VariantHardware {
		runs = e.opts.HWRuns
	}
	key := fmt.Sprintf("%s/%s/%d", bench, v, runs)
	e.mu.Lock()
	entry, ok := e.pops[key]
	if !ok {
		entry = &popEntry{}
		e.pops[key] = entry
	}
	e.mu.Unlock()
	entry.once.Do(func() {
		entry.pop, _, entry.err = e.runner.Population(context.TODO(), bench+"/"+v.String(), popcache.Key{
			Benchmark: bench,
			Config:    v.Config(),
			Scale:     e.opts.Scale,
			BaseSeed:  e.opts.Seed*1_000_003 + uint64(v)*1009,
			Runs:      runs,
		})
	})
	return entry.pop, entry.err
}

// Method identifies a CI construction technique in comparisons.
type Method string

// The four techniques the paper compares (Sec. 5.4).
const (
	MethodSPA       Method = "SPA"
	MethodBootstrap Method = "Bootstrap"
	MethodRank      Method = "Rank"
	MethodZScore    Method = "Z-score"
)

// MethodEval is one method's aggregate performance over a trial campaign
// (one bar of Figs. 6–13).
type MethodEval struct {
	Method Method
	// ErrProb is the fraction of produced CIs that miss the ground truth
	// (Nulls excluded, as in the paper's figures).
	ErrProb float64
	// NullRate is the fraction of trials where the method failed to
	// produce a CI (the red "Bootstrapping Null" bars).
	NullRate float64
	// MeanNormWidth is the mean CI width divided by the ground truth.
	MeanNormWidth float64
	// Trials, Misses and Nulls are the raw counts.
	Trials, Misses, Nulls int
}

// buildCI constructs one CI with the given method; a nil interval with nil
// error means the method abstained (Null). The caller supplies both the
// sample in draw order (xs) and an ascending-sorted view of the same values
// (sorted): every trial evaluates several methods on one draw, and sorting
// once per draw instead of once per method is where the per-trial time
// goes. Z-score is the only moment-based method and keeps the raw view.
func (e *Engine) buildCI(method Method, xs, sorted []float64, f, c float64, trialSeed uint64) (*stats.Interval, error) {
	switch method {
	case MethodSPA:
		iv, err := core.ConfidenceIntervalSorted(sorted, core.Params{F: f, C: c})
		if err != nil {
			return nil, err
		}
		return &iv, nil
	case MethodBootstrap:
		iv, err := ci.BootstrapBCaSorted(sorted, f, c, ci.BootstrapOptions{Resamples: e.opts.Resamples, Seed: trialSeed})
		if errors.Is(err, ci.ErrDegenerate) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return &iv, nil
	case MethodRank:
		iv, err := ci.RankCISorted(sorted, f, c)
		if errors.Is(err, ci.ErrDegenerate) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return &iv, nil
	case MethodZScore:
		iv, err := ci.ZScoreCI(xs, c)
		if errors.Is(err, ci.ErrDegenerate) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return &iv, nil
	default:
		return nil, fmt.Errorf("exp: unknown method %q", method)
	}
}

// runCells runs fn(0..n-1) on a bounded worker pool and returns the error
// from the smallest failing cell index, so a fan-out failure is reported
// identically regardless of scheduling. Figure and table builders use it to
// evaluate independent (benchmark, metric) cells concurrently: each cell
// writes into its own index of a pre-sized result slice, which keeps output
// ordering deterministic by construction.
func (e *Engine) runCells(n int, fn func(cell int) error) error {
	workers := e.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for cell := 0; cell < n; cell++ {
			if err := fn(cell); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		next    int64
		mu      sync.Mutex
		errCell = n
		errVal  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				cell := int(atomic.AddInt64(&next, 1)) - 1
				if cell >= n {
					return
				}
				if err := fn(cell); err != nil {
					mu.Lock()
					if cell < errCell {
						errCell, errVal = cell, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errVal
}

// trialSamples returns the per-trial sample count for proportion f at
// confidence c: the paper's 22, raised to SPA's two-sided minimum when
// (f, c) demands more so that every method sees the same draws.
func (e *Engine) trialSamples(f, c float64) (int, error) {
	minN, err := core.CIMinSamples(core.Params{F: f, C: c})
	if err != nil {
		return 0, err
	}
	if minN > e.opts.Samples {
		return minN, nil
	}
	return e.opts.Samples, nil
}

// EvaluateCI runs the paper's CI evaluation protocol (Sec. 5.4) on one
// population metric: repeated trials draw samples, every method builds a
// CI from the same draw, and coverage of the population ground truth and
// widths are tallied.
func (e *Engine) EvaluateCI(pop *population.Population, metric string, f, c float64, methods []Method) ([]MethodEval, error) {
	span := e.runner.Obs.T().StartSpan("exp.evaluate_ci",
		obs.Str("benchmark", pop.Benchmark), obs.Str("metric", metric),
		obs.F64("f", f), obs.F64("c", c), obs.Int("trials", e.opts.Trials))
	defer span.End()
	truth, err := pop.GroundTruth(metric, f)
	if err != nil {
		return nil, err
	}
	n, err := e.trialSamples(f, c)
	if err != nil {
		return nil, err
	}
	evals := make([]MethodEval, len(methods))
	for i, m := range methods {
		evals[i].Method = m
	}
	// Each trial writes its widths into its own slot; the final reduction
	// walks trials in index order, so the float sum is identical for any
	// worker count (the integer tallies commute exactly and may still fold
	// per worker).
	trialWidths := make([]float64, e.opts.Trials*len(methods))
	// Trials are independent (per-trial seed streams), so they run on a
	// worker pool; the tallies are order-independent sums.
	root := randx.New(e.opts.Seed ^ 0xC1C1)
	workers := e.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]MethodEval, len(methods))
			// One sorted scratch buffer per worker: each trial sorts its
			// draw once and every method reads the sorted view.
			var sortedBuf []float64
			for {
				trial := int(atomic.AddInt64(&next, 1)) - 1
				if trial >= e.opts.Trials {
					break
				}
				r := root.Split(uint64(trial))
				xs, err := pop.Sample(metric, n, r)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				sortedBuf = append(sortedBuf[:0], xs...)
				sort.Float64s(sortedBuf)
				for i, m := range methods {
					iv, err := e.buildCI(m, xs, sortedBuf, f, c, uint64(trial)*7919+uint64(i))
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("exp: %s on %s/%s trial %d: %w", m, pop.Benchmark, metric, trial, err)
						}
						mu.Unlock()
						return
					}
					local[i].Trials++
					if iv == nil {
						local[i].Nulls++
						continue
					}
					if !iv.Contains(truth) {
						local[i].Misses++
					}
					trialWidths[trial*len(methods)+i] = iv.Width()
				}
			}
			mu.Lock()
			for i := range methods {
				evals[i].Trials += local[i].Trials
				evals[i].Nulls += local[i].Nulls
				evals[i].Misses += local[i].Misses
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if len(evals) > 0 {
		e.runner.Obs.M().Counter(obs.MetricTrials).Add(int64(evals[0].Trials))
	}
	for i := range evals {
		widthSum := 0.0
		for trial := 0; trial < e.opts.Trials; trial++ {
			widthSum += trialWidths[trial*len(methods)+i]
		}
		produced := evals[i].Trials - evals[i].Nulls
		if produced > 0 {
			evals[i].ErrProb = float64(evals[i].Misses) / float64(produced)
			if truth != 0 {
				evals[i].MeanNormWidth = widthSum / float64(produced) / truth
			}
		}
		evals[i].NullRate = float64(evals[i].Nulls) / float64(evals[i].Trials)
	}
	return evals, nil
}

// EvaluateCIRounded is EvaluateCI over a decimal-rounded copy of the
// population (the Fig. 15 protocol).
func (e *Engine) EvaluateCIRounded(pop *population.Population, metric string, f, c float64, methods []Method, places int) ([]MethodEval, error) {
	return e.EvaluateCI(pop.Rounded(places), metric, f, c, methods)
}

// ferretMetrics is the metric set swept in the per-metric figures.
var ferretMetrics = []string{
	sim.MetricRuntime,
	sim.MetricIPC,
	sim.MetricL1DMPKI,
	sim.MetricL2MPKI,
	sim.MetricAvgLoadLat,
	sim.MetricMaxLoadLat,
}

// benchmarks is the 8-benchmark set of Figs. 10–13 (the paper's suite
// minus vips, x264 and raytrace, which it excludes too). We also run
// swaptions, giving 9; the paper's "eight PARSEC benchmarks" per-benchmark
// figures use the first eight here.
var benchmarks = []string{
	"blackscholes", "bodytrack", "canneal", "dedup",
	"ferret", "fluidanimate", "freqmine", "streamcluster",
}

// geomeanErr returns the geometric mean of one method's error
// probabilities over per-metric/per-benchmark rows, with zero entries
// floored (the conventional dodge for the Z-score's zero errors).
func geomeanErr(idx int, per [][]MethodEval) float64 {
	var es []float64
	for _, row := range per {
		es = append(es, row[idx].ErrProb)
	}
	return stats.GeoMeanWithFloor(es, 1e-4)
}

// sortedMetricNames lists a population's metrics deterministically.
func sortedMetricNames(pop *population.Population) []string {
	names := make([]string, 0, len(pop.Metrics))
	for n := range pop.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
