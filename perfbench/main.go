// Command perfbench is the repository's campaign benchmark. It drives
// whole SPA campaigns through the public entry points —
// manifest.Runner.Run for local campaigns and campaignd.Service.Submit
// for the campaign service over two loopback dist workers — in a closed
// loop for a fixed time, checks every report against a reference, and
// prints metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics of untraced campaigns;
// with --trace 1 it alternates untraced and traced slices of the run and
// prints per-layer metrics and an attribution table from the traced
// campaigns. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. See NOTES.md for the
// workloads, the metric definitions and which layer should move which
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Load sizing for a two-CPU host: at most two OS threads running Go
// code, at most two simulations in flight, at most two dist workers.
const (
	maxProcs = 2
	maxSims  = 2
)

// defaultSeed is the seed whose reference outputs are pinned in
// data/digests.json.
const defaultSeed = 1

// setupRepeats is how many times a trace-0 run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// scratchBase holds every file a run writes, relative to the directory
// the benchmark runs in; each run uses (and removes) its own subdirectory.
const scratchBase = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every manifest seed is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the timed closed-loop phase in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics from untraced campaigns, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	root, err := os.MkdirTemp(scratchBase, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(root)

	b := &bench{w: w, seed: *seed, root: root, phase: time.Duration(*seconds * float64(time.Second)), log: stdout,
		refs: make(map[[2]int]digest)}
	var res *result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over an empty set; JSON has no NaN
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one human-readable line per metric, then the JSON verdict
// as the last line.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, _ := json.Marshal(r) // only strings, bools and finite floats
	fmt.Fprintf(w, "%s\n", line)
}
