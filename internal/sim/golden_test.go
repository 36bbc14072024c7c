package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/workload"
)

// -update regenerates testdata/golden.json from the current simulator.
// The committed file was produced by the pre-optimization implementation,
// so a passing run proves the optimized fast paths are byte-identical.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json")

// goldenRecord pins one execution: the cycle count, every scalar metric —
// formatted with strconv.FormatFloat(-1) so the comparison is exact (two
// float64 values render identically iff their bits agree) — and every
// per-component event counter in Detail.
type goldenRecord struct {
	Config    string            `json:"config"`
	Benchmark string            `json:"benchmark"`
	Scale     float64           `json:"scale"`
	Seed      uint64            `json:"seed"`
	Cycles    uint64            `json:"cycles"`
	Metrics   map[string]string `json:"metrics"`
	Detail    Detail            `json:"detail"`
}

var goldenScales = []float64{0.05, 0.2}

// goldenConfig is one named system configuration the golden file pins.
type goldenConfig struct {
	name   string
	cfg    Config
	scales []float64
}

// goldenConfigs is the pinned configuration matrix: the default system at
// two scales, and every variant a campaign or ablation can select — the
// manifest variants (hardware, l2half, l2double), the coherence-protocol
// and replacement-policy ablations, and the prefetcher with the gshare
// predictor — at the smaller scale.
func goldenConfigs() []goldenConfig {
	variant := func(name string, edit func(*Config)) goldenConfig {
		cfg := DefaultConfig()
		edit(&cfg)
		return goldenConfig{name: name, cfg: cfg, scales: goldenScales[:1]}
	}
	return []goldenConfig{
		{name: "default", cfg: DefaultConfig(), scales: goldenScales},
		{name: "hardware", cfg: HardwareLikeConfig(), scales: goldenScales[:1]},
		variant("l2half", func(c *Config) { c.L2Size = 512 * 1024 }),
		variant("l2double", func(c *Config) { c.L2Size = 1024 * 1024 }),
		variant("msi", func(c *Config) { c.CoherenceProtocol = "msi" }),
		variant("fifo", func(c *Config) { c.ReplacementPolicy = "fifo" }),
		variant("random", func(c *Config) { c.ReplacementPolicy = "random" }),
		variant("prefetch+gshare", func(c *Config) {
			c.PrefetchNextLine = true
			c.BPKind = "gshare"
		}),
	}
}

const goldenSeed = 1

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden.json")
}

func formatMetrics(res *Result) map[string]string {
	out := make(map[string]string, len(res.Metrics))
	for name, v := range res.Metrics {
		out[name] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}

func runGolden(t *testing.T) []goldenRecord {
	t.Helper()
	var recs []goldenRecord
	for _, gc := range goldenConfigs() {
		for _, bench := range workload.Names() {
			for _, scale := range gc.scales {
				res, err := Run(bench, gc.cfg, scale, goldenSeed)
				if err != nil {
					t.Fatalf("Run(%s, %s, %g): %v", bench, gc.name, scale, err)
				}
				recs = append(recs, goldenRecord{
					Config:    gc.name,
					Benchmark: bench,
					Scale:     scale,
					Seed:      goldenSeed,
					Cycles:    res.Cycles,
					Metrics:   formatMetrics(res),
					Detail:    res.Detail,
				})
			}
		}
	}
	return recs
}

// TestGoldenProfilesByteIdentical pins Result.Cycles, every metric and the
// full Detail for all nine benchmark profiles under every configuration of
// goldenConfigs against testdata/golden.json. It is the
// contract every performance optimization must preserve: the pooled runner,
// the inlined event heap, and the cache/coherence fast paths may change how
// a run executes, never what it computes.
func TestGoldenProfilesByteIdentical(t *testing.T) {
	got := runGolden(t)
	path := goldenPath(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d records, current run produced %d (regenerate with -update)", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		label := fmt.Sprintf("%s %s scale=%g seed=%d", w.Config, w.Benchmark, w.Scale, w.Seed)
		if g.Config != w.Config || g.Benchmark != w.Benchmark || g.Scale != w.Scale || g.Seed != w.Seed {
			t.Fatalf("record %d is %s/%s/%g/%d, want %s", i, g.Config, g.Benchmark, g.Scale, g.Seed, label)
		}
		if g.Cycles != w.Cycles {
			t.Errorf("%s: cycles = %d, want %d", label, g.Cycles, w.Cycles)
		}
		if g.Detail != w.Detail {
			t.Errorf("%s: detail = %+v, want %+v", label, g.Detail, w.Detail)
		}
		if len(g.Metrics) != len(w.Metrics) {
			t.Errorf("%s: %d metrics, want %d", label, len(g.Metrics), len(w.Metrics))
		}
		for name, wv := range w.Metrics {
			if gv, ok := g.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", label, name)
			} else if gv != wv {
				t.Errorf("%s: metric %s = %s, want %s", label, name, gv, wv)
			}
		}
	}
}

// TestGoldenRepeatedRuns executes the same (benchmark, config, scale, seed)
// tuple repeatedly from one goroutine and asserts identical results. With
// the pooled runner this exercises the arena-reuse path directly: the
// second and third iterations run on recycled machine state.
func TestGoldenRepeatedRuns(t *testing.T) {
	cfg := DefaultConfig()
	for _, bench := range []string{"ferret", "canneal", "dedup"} {
		first, err := Run(bench, cfg, 0.05, 7)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			res, err := Run(bench, cfg, 0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != first.Cycles {
				t.Fatalf("%s repeat %d: cycles %d != %d", bench, rep, res.Cycles, first.Cycles)
			}
			for name, v := range first.Metrics {
				if res.Metrics[name] != v {
					t.Fatalf("%s repeat %d: metric %s %v != %v", bench, rep, name, res.Metrics[name], v)
				}
			}
			if res.Trace.Len() != first.Trace.Len() {
				t.Fatalf("%s repeat %d: trace length %d != %d", bench, rep, res.Trace.Len(), first.Trace.Len())
			}
		}
	}
}

// TestVariantConfigMatchesGolden ties VariantConfig to the golden
// matrix: each named variant resolves to the configuration the goldens
// pin under that name, and unknown names are rejected.
func TestVariantConfigMatchesGolden(t *testing.T) {
	pinned := map[string]Config{}
	for _, gc := range goldenConfigs() {
		pinned[gc.name] = gc.cfg
	}
	for _, name := range []string{"default", "hardware", "l2half", "l2double"} {
		cfg, err := VariantConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg != pinned[name] {
			t.Errorf("%s: VariantConfig differs from the golden configuration", name)
		}
	}
	if cfg, err := VariantConfig(""); err != nil || cfg != DefaultConfig() {
		t.Errorf(`VariantConfig("") = %v, want the default configuration`, err)
	}
	if _, err := VariantConfig("msi"); err == nil {
		t.Error("VariantConfig accepted an ablation name that is not a system variant")
	}
}
