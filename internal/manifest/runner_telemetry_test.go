package manifest

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/sim"
)

// TestRunTelemetryCountsEveryRun: the coordinator observes every
// simulator run a campaign executes — entry populations, adaptive rounds
// and sampling pilot blocks alike — so spa_runs_completed_total, the
// "sim.run" span count and both progress counts all equal the runs the
// report accounts for.
func TestRunTelemetryCountsEveryRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		m       *Manifest
		workers int
	}{
		{"adaptive", adaptiveManifest(), 0},
		{"adaptive-workers", adaptiveManifest(), 2},
		{"stratified", samplingManifest("stratified"), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var workers []string
			if tc.workers > 0 {
				workers = startDistWorkers(t, tc.workers)
			}
			var trace bytes.Buffer
			reg := obs.NewRegistry()
			prog := obs.NewProgress(io.Discard, "runs", time.Hour)
			r := &Runner{OutDir: t.TempDir(), Workers: workers,
				Obs: &obs.Observer{Tracer: obs.NewTracer(&trace), Metrics: reg, Progress: prog}}
			rep, err := r.Run(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, e := range tc.m.Entries {
				want += max(e.Runs, tc.m.Runs)
			}
			for _, res := range rep.Results {
				if res.Err != "" {
					t.Fatalf("analysis %s failed: %s", res.Metric, res.Err)
				}
				if res.TargetWidth > 0 {
					want += res.Samples + res.PilotRuns
				}
			}
			completed := reg.Counter(obs.MetricRunsCompleted).Value()
			spans := strings.Count(trace.String(), `"name":"sim.run"`)
			done, total := prog.Counts()
			if completed != int64(want) || spans != want || done != int64(want) || total != int64(want) {
				t.Errorf("campaign executed %d runs; telemetry counted %d completed, %d sim.run spans, progress %d/%d",
					want, completed, spans, done, total)
			}
		})
	}
}

// TestStratifiedPilotBlocksHoldEveryMetric: two stratified analyses of
// different metrics on one entry share pilot blocks through the
// popcache. Each block is the full plain population of its recipe, so
// the second analysis ranks by its own metric, and a later plain request
// for a pilot recipe is served every metric.
func TestStratifiedPilotBlocksHoldEveryMetric(t *testing.T) {
	const pilotScale, pilotBlock = 0.025, 32
	m := samplingManifest("stratified")
	m.Analyses = []Analysis{
		{Metric: sim.MetricRuntime, F: 0.5, C: 0.9, TargetWidth: 0.02, MaxSamples: 256,
			Sampling: "stratified", PilotScale: pilotScale, PilotRuns: pilotBlock},
		{Metric: sim.MetricIPC, F: 0.5, C: 0.9, TargetWidth: 0.05, MaxSamples: 256,
			Sampling: "stratified", PilotScale: pilotScale, PilotRuns: pilotBlock},
	}
	cache := popcache.New("", 0)
	r := &Runner{OutDir: t.TempDir(), PopCache: cache}
	rep, err := r.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Fatalf("stratified %s analysis failed: %s", res.Metric, res.Err)
		}
	}

	cfg, err := m.Entries[0].Config()
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	pop, hit, err := r.Population(context.Background(), "pilot block", popcache.Key{
		Benchmark: m.Entries[0].Benchmark, Config: cfg, Scale: pilotScale, BaseSeed: m.Seed, Runs: pilotBlock})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || cache.Stats().Puts != before.Puts {
		t.Fatalf("first pilot block was not served from the cache (hit %v)", hit)
	}
	want, err := population.Generate(m.Entries[0].Benchmark, cfg, pilotScale, pilotBlock, m.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(pop)
	if ref, _ := json.Marshal(want); !bytes.Equal(got, ref) {
		t.Errorf("cached pilot block (%d metrics) differs from the plain population of its recipe (%d metrics)",
			len(pop.Metrics), len(want.Metrics))
	}
}
