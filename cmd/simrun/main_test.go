package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/population"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, b := range []string{"ferret", "canneal", "swaptions"} {
		if !strings.Contains(out, b) {
			t.Errorf("list output missing %q", b)
		}
	}
}

func TestCampaignSummaryAndJSON(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "pop.json")
	var buf bytes.Buffer
	err := run([]string{"-bench", "swaptions", "-runs", "8", "-scale", "0.05", "-out", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "runtime_s") {
		t.Error("summary missing runtime metric")
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop, err := population.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Runs != 8 || pop.Benchmark != "swaptions" {
		t.Errorf("population header %+v", pop)
	}
	vs, err := pop.Metric("l1d_mpki")
	if err != nil || len(vs) != 8 {
		t.Errorf("metric vector wrong: %v, %v", vs, err)
	}
}

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "simrun ") {
		t.Errorf("version output wrong:\n%s", buf.String())
	}
}

func TestTelemetryFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "m.json")
	var buf bytes.Buffer
	err := run([]string{
		"-bench", "swaptions", "-runs", "3", "-scale", "0.05",
		"-trace", tracePath, "-metrics", metricsPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(trace), `"name":"sim.run"`); got != 3 {
		t.Errorf("trace has %d sim.run spans, want 3:\n%s", got, trace)
	}
	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `"spa_runs_completed_total": 3`) {
		t.Errorf("JSON metrics dump missing counter:\n%s", metrics)
	}
}

func TestVariants(t *testing.T) {
	for _, v := range []string{"default", "hardware", "l2half", "l2double"} {
		var buf bytes.Buffer
		if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05", "-variant", v}, &buf); err != nil {
			t.Errorf("variant %s failed: %v", v, err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-variant", "warp-drive"}, &buf); err == nil {
		t.Error("unknown variant should error")
	}
}

func TestBadBenchAndFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench", "nope", "-runs", "2", "-scale", "0.05"}, &buf); err == nil {
		t.Error("unknown benchmark should error")
	}
	if err := run([]string{"-runs", "0"}, &buf); err == nil {
		t.Error("zero runs should error")
	}
	if err := run([]string{"-notaflag"}, &buf); err == nil {
		t.Error("bad flag should error")
	}
	if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05",
		"-out", filepath.Join(t.TempDir(), "nodir", "x.json")}, &buf); err == nil {
		t.Error("unwritable output path should error")
	}
}

func TestConfigOverrides(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05",
		"-l2kb", "512", "-mshrs", "2", "-protocol", "msi", "-replacement", "fifo", "-bp", "gshare"}, &buf)
	if err != nil {
		t.Fatalf("overrides failed: %v", err)
	}
	if err := run([]string{"-bench", "swaptions", "-runs", "2", "-scale", "0.05", "-protocol", "moesi"}, &buf); err == nil {
		t.Error("bad protocol override should surface the config error")
	}
}

// TestPopulationFileGolden pins the bytes of a population file written
// with -out: every metric of every run, in seed order. It holds at any
// -parallel setting.
func TestPopulationFileGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "swaptions-l2half.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []string{"1", "3"} {
		out := filepath.Join(t.TempDir(), "pop.json")
		var buf bytes.Buffer
		err := run([]string{"-bench", "swaptions", "-variant", "l2half", "-runs", "4",
			"-scale", "0.05", "-seed", "11", "-parallel", par, "-out", out}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-parallel %s: population file differs from testdata/swaptions-l2half.golden.json:\n%s", par, got)
		}
	}
}
