package dist

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/sim"
)

// GeneratePopulation is the distributed twin of population.Generate: it
// runs the job `runs` times with seeds baseSeed+i across the workers and
// assembles the population through the same code path local generation
// uses, so the two are byte-identical for the same manifest seed.
// Cancellation and run telemetry are Run's.
func (c *Coordinator) GeneratePopulation(ctx context.Context, benchmark string, cfg sim.Config, scale float64, runs int, baseSeed uint64) (*population.Population, error) {
	results, err := c.Run(ctx, Job{Benchmark: benchmark, Config: cfg, Scale: scale}, baseSeed, runs)
	if err != nil {
		return nil, err
	}
	metrics := make([]map[string]float64, len(results))
	for i, r := range results {
		metrics[i] = r.Metrics
	}
	return population.FromRuns(benchmark, baseSeed, metrics), nil
}

// Collector binds the coordinator to one (job, metric) pair as a
// core.Collector, so Analyze/AnalyzeToWidth/CheckBatched can consume a
// remote backend unchanged. Every Collect the analysis loop issues is
// cancelled with ctx: core.Collector has no ctx parameter, so the
// binding happens here.
func (c *Coordinator) Collector(ctx context.Context, job Job, metric string) core.Collector {
	return &metricCollector{c: c, ctx: ctx, job: job, metric: metric}
}

type metricCollector struct {
	c      *Coordinator
	ctx    context.Context
	job    Job
	metric string
}

// Collect implements core.Collector. The batch bound is advisory here:
// in-flight parallelism is governed by each worker's own limit (and the
// coordinator's for local fallback), which cannot change sample values.
// The per-run hooks in h are not fired: the coordinator reports every run
// to its own Observer instead (see Run).
func (mc *metricCollector) Collect(baseSeed uint64, n, batch int, h core.Hooks) ([]float64, error) {
	results, err := mc.c.Run(mc.ctx, mc.job, baseSeed, n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, r := range results {
		v, ok := r.Metrics[mc.metric]
		if !ok {
			return nil, fmt.Errorf("dist: run with seed %d has no metric %q", baseSeed+uint64(r.Offset), mc.metric)
		}
		out[i] = v
	}
	return out, nil
}
