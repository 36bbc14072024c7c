package main

import (
	"repro/internal/manifest"
	"repro/internal/sim"
)

// cacheMode is how a workload's campaigns meet the population cache.
type cacheMode int

const (
	// noCache: no popcache at all (the campaign service's default).
	noCache cacheMode = iota
	// freshMemCache: a new memory-only popcache per campaign, so nothing
	// one campaign stores can serve another.
	freshMemCache
	// filledDiskCache: a new popcache.Cache per campaign over a disk
	// store filled during set-up, the way a new `campaign -popcache`
	// process meets an existing store.
	filledDiskCache
)

// workload is one closed-loop campaign mix.
type workload struct {
	name  string
	cache cacheMode
	// service runs campaigns through campaignd over two loopback dist
	// workers, one client per tenant; otherwise one client runs local
	// manifest.Runner campaigns one at a time.
	service bool
	// vary gives a client a new manifest seed every second campaign, each
	// manifest running twice back to back (the repeat must reproduce it).
	// Workloads whose cost depends on adaptive stopping need it: one
	// manifest's runs-to-width is one draw, and a run must average over
	// many draws for its medians to agree across workload seeds.
	// Otherwise every campaign of a client repeats manifest 0.
	vary bool
	// manifest builds a campaign for a manifest seed.
	manifest func(seed uint64) *manifest.Manifest
}

// clients is the closed loop's client count: one per tenant on the
// service, one otherwise.
func (w *workload) clients() int {
	if w.service {
		return len(tenants)
	}
	return 1
}

// tenants are the campaign-service tenants, each keeping one campaign
// outstanding.
var tenants = []string{"tenant-a", "tenant-b"}

var workloads = []*workload{
	{name: "cold-fixed", cache: freshMemCache, manifest: coldFixed},
	{name: "warm-reuse", cache: filledDiskCache, manifest: warmReuse},
	{name: "adaptive-sampled", cache: freshMemCache, vary: true, manifest: adaptiveSampled},
	{name: "dist-service", cache: noCache, service: true, manifest: distService},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// manifestSeed derives the seed of a client's manifest j from the
// workload seed. Entry i of a manifest uses seeds from Seed + i·10^6
// upward; the strides keep the seed ranges of different manifests,
// clients and workload seeds from overlapping.
func manifestSeed(seed uint64, client, j int) uint64 {
	return seed*10_000_000_000 + uint64(client)*1_000_000_000 + uint64(j)*20_000_000 + 1
}

// coldFixed is simulator-bound: every campaign simulates all of its
// populations. Canneal's large footprint stresses the directory, L2 and
// TLB models; the popcache is only written.
func coldFixed(seed uint64) *manifest.Manifest {
	return &manifest.Manifest{
		Name:  "cold-fixed",
		Seed:  seed,
		Scale: 0.1,
		Runs:  30,
		Entries: []manifest.Entry{
			{Benchmark: "canneal"},
			{Benchmark: "canneal", Variant: "l2double"},
			{Benchmark: "streamcluster"},
			{Benchmark: "ferret", Variant: "hardware"},
		},
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
			{Metric: sim.MetricRuntime, F: 0.9, C: 0.9},
			{Metric: sim.MetricL2MPKI, F: 0.9, C: 0.9},
			{Metric: sim.MetricMaxLoadLat, F: 0.9, C: 0.9},
		},
	}
}

// warmReuse runs no simulation: every population comes off the disk
// popcache, so the work is cache reads, population JSON decode and
// encode, atomic report writes and the SPA interval kernels.
func warmReuse(seed uint64) *manifest.Manifest {
	return &manifest.Manifest{
		Name:  "warm-reuse",
		Seed:  seed,
		Scale: 0.05,
		Runs:  300,
		Entries: []manifest.Entry{
			{Benchmark: "dedup"},
			{Benchmark: "swaptions"},
			{Benchmark: "ferret"},
			{Benchmark: "blackscholes"},
		},
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
			{Metric: sim.MetricRuntime, F: 0.9, C: 0.9},
			{Metric: sim.MetricIPC, F: 0.1, C: 0.9, Direction: "atleast"},
			{Metric: sim.MetricL1DMPKI, F: 0.9, C: 0.95},
			{Metric: sim.MetricAvgLoadLat, F: 0.5, C: 0.95},
		},
	}
}

// adaptiveSampled runs only adaptive analyses, half plain and half
// stratified: the AnalyzeToWidth round loop (rounds of five runs on two
// CPUs), the sampling pilot pass, the design interval and in-campaign
// caching. Per entry, one plain and one stratified analysis refine to a
// target width, and one of each runs to a fixed budget of 60 samples
// (their target is unreachable; a budget miss is a result, not a
// failure). The budgeted stratified analysis shares the converging one's
// recipe, so its first rounds come from the campaign's own cache of
// measured populations and pilot blocks. The budgeted pair keeps the
// campaign's cost steady across seeds; the converging pair is where
// stopping rules move run_cost. The entries' own fixed populations are
// kept small because no analysis reads them.
func adaptiveSampled(seed uint64) *manifest.Manifest {
	var entries []manifest.Entry
	for _, b := range []string{"ferret", "freqmine", "blackscholes"} {
		for _, v := range []string{"default", "hardware"} {
			entries = append(entries, manifest.Entry{Benchmark: b, Variant: v})
		}
	}
	const (
		width  = 6e-7  // about 25 runs per plain analysis at scale 0.05
		never  = 1e-12 // narrower than any interval these runs give
		budget = 60
	)
	return &manifest.Manifest{
		Name:    "adaptive-sampled",
		Seed:    seed,
		Scale:   0.05,
		Runs:    5,
		Entries: entries,
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: width, MaxSamples: 200},
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: width, MaxSamples: 200, Sampling: "stratified"},
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: never, MaxSamples: budget},
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: never, MaxSamples: budget, Sampling: "stratified"},
		},
	}
}

// distService is a small campaign of short runs, so per-run dist
// overhead (encode, wire, commit, chunk sizing) and campaignd journaling
// are a large share of the work. Its adaptive analysis runs to a fixed
// budget of 60 samples in rounds of five (its target is unreachable; a
// budget miss is a result, not a failure), so every round is a small
// dist job whose round-trip latency shows, and the campaign's cost does
// not depend on where a stopping rule fires.
func distService(seed uint64) *manifest.Manifest {
	return &manifest.Manifest{
		Name:  "dist-service",
		Seed:  seed,
		Scale: 0.05,
		Runs:  40,
		Entries: []manifest.Entry{
			{Benchmark: "dedup"},
			{Benchmark: "swaptions"},
			{Benchmark: "ferret"},
		},
		Analyses: []manifest.Analysis{
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9},
			{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: 1e-12, MaxSamples: 60},
		},
	}
}
