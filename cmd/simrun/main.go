// Command simrun runs campaigns on the simulator substrate: N seeded
// executions of a benchmark on a system variant, collecting every scalar
// metric into a population JSON that the spa tool can analyze — the
// "simulator wrapper" half of the paper's Fig. 3.
//
// Usage:
//
//	simrun -bench ferret -runs 500 -out ferret.json
//	simrun -bench canneal -variant hardware -runs 100 -scale 0.5
//	simrun -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	bench := fs.String("bench", "ferret", "benchmark profile to run")
	variant := fs.String("variant", "default", "system variant: default, hardware, l2half, l2double")
	runs := fs.Int("runs", 100, "number of executions")
	scale := fs.Float64("scale", 1.0, "workload scale (1.0 ≈ simsmall-like)")
	seed := fs.Uint64("seed", 1, "base seed; execution i uses seed+i")
	parallel := fs.Int("parallel", 0, "max concurrent executions (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write population JSON here (default: stdout summary only)")
	list := fs.Bool("list", false, "list benchmark profiles and exit")
	l2kb := fs.Int("l2kb", 0, "override L2 size in KB (0 = variant default)")
	mshrs := fs.Int("mshrs", 0, "override per-core outstanding-miss window (0 = default)")
	protocol := fs.String("protocol", "", "override coherence protocol: mesi or msi")
	replacement := fs.String("replacement", "", "override replacement policy: lru, fifo or random")
	bp := fs.String("bp", "", "override branch predictor: bimodal or gshare")
	version := fs.Bool("version", false, "print build information and exit")
	var of obs.Flags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(w, "simrun")
		return nil
	}

	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(w, n)
		}
		return nil
	}

	cfg, err := sim.VariantConfig(*variant)
	if err != nil {
		return err
	}
	if *l2kb > 0 {
		cfg.L2Size = *l2kb * 1024
	}
	if *mshrs > 0 {
		cfg.MSHRs = *mshrs
	}
	if *protocol != "" {
		cfg.CoherenceProtocol = *protocol
	}
	if *replacement != "" {
		cfg.ReplacementPolicy = *replacement
	}
	if *bp != "" {
		cfg.BPKind = *bp
	}

	o, closeObs, err := of.Start("runs", os.Stderr)
	if err != nil {
		return err
	}
	r := &manifest.Runner{Parallelism: *parallel, Obs: o}
	pop, _, err := r.Population(context.Background(), *bench, popcache.Key{
		Benchmark: *bench, Config: cfg, Scale: *scale, BaseSeed: *seed, Runs: *runs})
	if err != nil {
		closeObs()
		return err
	}
	if err := closeObs(); err != nil {
		return err
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pop.Save(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d runs of %s (%s variant) to %s\n", *runs, *bench, *variant, *out)
	}

	// Summary of the campaign.
	names := make([]string, 0, len(pop.Metrics))
	for n := range pop.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %-14s %-14s %-14s %-10s\n", "metric", "median", "F=0.9", "mean", "cov")
	fmt.Fprintln(w, strings.Repeat("-", 74))
	for _, n := range names {
		vs, _ := pop.Metric(n)
		med, _ := stats.Quantile(vs, 0.5)
		q90, _ := stats.Quantile(vs, 0.9)
		fmt.Fprintf(w, "%-18s %-14.6g %-14.6g %-14.6g %-10.4f\n",
			n, med, q90, stats.Mean(vs), stats.CoefficientOfVariation(vs))
	}
	return nil
}
