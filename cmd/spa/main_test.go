package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/population"
)

func writeValues(t *testing.T, lines string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "values.txt")
	if err := os.WriteFile(path, []byte(lines), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func manyValues(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("# comment line\n\n")
	for i := 0; i < 40; i++ {
		sb.WriteString(strings.TrimSpace(strings.Repeat(" ", i%2)+"1.") + string(rune('0'+i%10)) + "\n")
	}
	return writeValues(t, sb.String())
}

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand should error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help should succeed: %v", err)
	}
}

func TestMinSamplesSubcommand(t *testing.T) {
	if err := run([]string{"minsamples", "-f", "0.9", "-c", "0.9"}); err != nil {
		t.Errorf("minsamples failed: %v", err)
	}
	if err := run([]string{"minsamples", "-f", "1.5"}); err == nil {
		t.Error("bad F should error")
	}
}

func TestCISubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"ci", "-input", path, "-f", "0.5", "-c", "0.9"}); err != nil {
		t.Errorf("ci failed: %v", err)
	}
	if err := run([]string{"ci", "-input", path, "-f", "0.5", "-c", "0.9", "-sweep"}); err != nil {
		t.Errorf("ci -sweep failed: %v", err)
	}
	if err := run([]string{"ci", "-input", path, "-direction", "atleast", "-f", "0.6"}); err != nil {
		t.Errorf("ci atleast failed: %v", err)
	}
	if err := run([]string{"ci", "-input", path, "-direction", "sideways"}); err == nil {
		t.Error("bad direction should error")
	}
	if err := run([]string{"ci"}); err == nil {
		t.Error("missing input should error")
	}
	if err := run([]string{"ci", "-input", filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Error("missing file should error")
	}
}

func TestCIInsufficientSamplesSurfaces(t *testing.T) {
	path := writeValues(t, "1\n2\n3\n")
	if err := run([]string{"ci", "-input", path, "-f", "0.9", "-c", "0.9"}); err == nil {
		t.Error("3 samples at F=C=0.9 should report insufficient samples")
	}
}

func TestTestSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"test", "-input", path, "-threshold", "1.5", "-f", "0.5", "-c", "0.9"}); err != nil {
		t.Errorf("test failed: %v", err)
	}
	if err := run([]string{"test", "-input", path, "-threshold", "1.5", "-direction", "atleast"}); err != nil {
		t.Errorf("test atleast failed: %v", err)
	}
}

func TestCompareSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"compare", "-input", path, "-f", "0.5"}); err != nil {
		t.Errorf("compare failed: %v", err)
	}
	// F≠0.5 skips the Z-score row but still succeeds.
	if err := run([]string{"compare", "-input", path, "-f", "0.8"}); err != nil {
		t.Errorf("compare at F=0.8 failed: %v", err)
	}
}

func TestJSONInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pop.json")
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 5 + float64(i)*0.01
	}
	pop := population.FromValues("bench", "m", vals)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"ci", "-json", path, "-metric", "m", "-f", "0.5"}); err != nil {
		t.Errorf("json ci failed: %v", err)
	}
	if err := run([]string{"ci", "-json", path, "-metric", "missing"}); err == nil {
		t.Error("missing metric should error")
	}
	if err := run([]string{"ci", "-json", filepath.Join(dir, "nope.json")}); err == nil {
		t.Error("missing json should error")
	}
}

func TestBadInputValues(t *testing.T) {
	path := writeValues(t, "1.0\nnot-a-number\n")
	if err := run([]string{"ci", "-input", path}); err == nil {
		t.Error("garbage line should error")
	}
	empty := writeValues(t, "# only a comment\n")
	if err := run([]string{"ci", "-input", empty}); err == nil {
		t.Error("empty input should error")
	}
}

func TestProportionSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"proportion", "-input", path, "-threshold", "1.5", "-c", "0.9"}); err != nil {
		t.Errorf("proportion failed: %v", err)
	}
	if err := run([]string{"proportion", "-input", path, "-threshold", "1.5", "-direction", "atleast"}); err != nil {
		t.Errorf("proportion atleast failed: %v", err)
	}
	if err := run([]string{"proportion", "-input", path, "-c", "2"}); err == nil {
		t.Error("bad confidence should error")
	}
}

func TestHyperSubcommand(t *testing.T) {
	path := manyValues(t)
	if err := run([]string{"hyper", "-input", path, "-gap", "2.0"}); err != nil {
		t.Errorf("hyper failed: %v", err)
	}
	if err := run([]string{"hyper", "-input", path, "-gap-pct", "0.5", "-arity", "3"}); err != nil {
		t.Errorf("hyper gap-pct failed: %v", err)
	}
	if err := run([]string{"hyper", "-input", path}); err == nil {
		t.Error("missing gap should error")
	}
	if err := run([]string{"hyper", "-input", path, "-gap", "1", "-arity", "1"}); err == nil {
		t.Error("arity 1 should error")
	}
}

func TestGem5Input(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 30; i++ {
		content := "---------- Begin Simulation Statistics ----------\n" +
			"system.cpu0.ipc  0." + string(rune('5'+i%4)) + "0  # ipc\n" +
			"---------- End Simulation Statistics   ----------\n"
		if err := os.WriteFile(filepath.Join(dir, "r"+string(rune('a'+i%26))+string(rune('0'+i/26))+".txt"),
			[]byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	glob := filepath.Join(dir, "r*.txt")
	if err := run([]string{"ci", "-gem5", glob, "-metric", "system.cpu0.ipc", "-f", "0.5"}); err != nil {
		t.Errorf("gem5 ci failed: %v", err)
	}
	if err := run([]string{"ci", "-gem5", glob, "-metric", "nope"}); err == nil {
		t.Error("unknown gem5 metric should error")
	}
	if err := run([]string{"ci", "-gem5", filepath.Join(dir, "none*.txt")}); err == nil {
		t.Error("empty glob should error")
	}
}

func TestStatsSubcommand(t *testing.T) {
	dir := t.TempDir()
	content := "---------- Begin Simulation Statistics ----------\n" +
		"system.cpu0.ipc 0.5\nsystem.l2.misses 100\n" +
		"---------- End Simulation Statistics   ----------\n"
	path := filepath.Join(dir, "stats.txt")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stats", "-gem5", path}); err != nil {
		t.Errorf("stats -gem5 failed: %v", err)
	}
	if err := run([]string{"stats", "-gem5", path, "-find", "l2"}); err != nil {
		t.Errorf("stats -find failed: %v", err)
	}
	// JSON population path.
	vals := []float64{1, 2, 3}
	pop := population.FromValues("b", "m", vals)
	jp := filepath.Join(dir, "pop.json")
	f, err := os.Create(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run([]string{"stats", "-json", jp}); err != nil {
		t.Errorf("stats -json failed: %v", err)
	}
	if err := run([]string{"stats"}); err == nil {
		t.Error("stats without input should error")
	}
}

func TestVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Errorf("-version failed: %v", err)
	}
}

func TestGlobalTelemetryFlags(t *testing.T) {
	path := manyValues(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.prom")
	err := run([]string{
		"-trace", tracePath, "-metrics", metricsPath,
		"ci", "-input", path, "-f", "0.5", "-c", "0.9",
	})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"name":"spa.ci"`) {
		t.Errorf("trace missing spa.ci span:\n%s", trace)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "spa_ci_built_total 1") {
		t.Errorf("metrics dump missing CI counter:\n%s", metrics)
	}
	// An SMC test increments the test counter.
	metricsPath2 := filepath.Join(dir, "metrics2.prom")
	err = run([]string{
		"-metrics", metricsPath2,
		"test", "-input", path, "-threshold", "1.5", "-f", "0.5", "-c", "0.9",
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics2, err := os.ReadFile(metricsPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics2), "spa_smc_tests_total 1") {
		t.Errorf("metrics dump missing SMC test counter:\n%s", metrics2)
	}
}

// TestCollectedCITelemetry: a successful collected-mode CI counts one
// built interval, not a zero-width extra one.
func TestCollectedCITelemetry(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.prom")
	err := run([]string{
		"-metrics", metricsPath,
		"ci", "-sim", "swaptions", "-scale", "0.05", "-runs", "200", "-target-width", "1.5e-7",
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "spa_ci_built_total 1\n") {
		t.Errorf("metrics dump should count one CI:\n%s", metrics)
	}
}
