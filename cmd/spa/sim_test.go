package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/popcache"
	"repro/internal/sim"
)

// -update rewrites testdata/*.golden from the current spa.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden")

// captureStdout runs spa with args and returns what it printed to stdout.
func captureStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatalf("spa %v: %v\n%s", args, runErr, out)
	}
	return out
}

// TestSimCIGolden pins the stdout of "spa ci -sim" in each collection
// mode: a fixed population, adaptive plain, adaptive stratified and a
// fixed-n stratified design collection.
func TestSimCIGolden(t *testing.T) {
	base := []string{"ci", "-sim", "swaptions", "-scale", "0.05", "-f", "0.5", "-c", "0.9"}
	cases := []struct {
		name string
		args []string
	}{
		{"fixed", []string{"-runs", "40"}},
		{"width", []string{"-runs", "200", "-target-width", "1.5e-7"}},
		{"width-stratified", []string{"-runs", "200", "-target-width", "1.5e-7", "-sampling", "stratified"}},
		{"fixed-stratified", []string{"-runs", "40", "-sampling", "stratified"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := captureStdout(t, append(append([]string(nil), base...), tc.args...)...)
			path := filepath.Join("testdata", "ci-sim-"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestSimCIPilotCached: a stratified -sim run routes its pilot blocks
// through -popcache under their plain recipes, as a campaign does, so
// the first pilot block is on disk afterwards.
func TestSimCIPilotCached(t *testing.T) {
	dir := t.TempDir()
	captureStdout(t, "ci", "-sim", "swaptions", "-scale", "0.05", "-runs", "40",
		"-sampling", "stratified", "-popcache", dir)
	pilot := popcache.Key{Benchmark: "swaptions", Config: sim.DefaultConfig(), Scale: 0.025,
		BaseSeed: 1, Runs: 32}
	if popcache.New(dir, 0).Get(pilot) == nil {
		t.Errorf("pilot block (scale %g, %d runs from seed %d) not in the popcache", pilot.Scale, pilot.Runs, pilot.BaseSeed)
	}
}
