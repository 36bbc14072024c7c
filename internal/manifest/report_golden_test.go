package manifest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// -update rewrites testdata/tiny-report.golden.json from the current runner.
var updateGolden = flag.Bool("update", false, "rewrite testdata/tiny-report.golden.json")

// TestReportGolden pins the report file of tinyManifest plus one
// budget-bound adaptive analysis byte for byte: fixed-population
// intervals, per-entry analysis errors, and an adaptive convergence
// trajectory. The report depends on the populations' values, never on
// how the per-entry population files are laid out on disk.
func TestReportGolden(t *testing.T) {
	m := tinyManifest()
	m.Analyses = append(m.Analyses, Analysis{Metric: sim.MetricRuntime, F: 0.5, C: 0.9,
		TargetWidth: 1e-12, MaxSamples: 24, GrowBatch: 8})
	r := &Runner{OutDir: t.TempDir()}
	if _, err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(r.ReportPath(m))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tiny-report.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from %s:\n got: %s\nwant: %s", golden, got, want)
	}
}
