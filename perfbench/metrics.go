package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// endToEnd sets the workload up setupRepeats times (setup_s is the
// median), then runs untraced campaigns in a closed loop for the phase.
func (b *bench) endToEnd() (*result, error) {
	var (
		e      env
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = b.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	cpu0 := cpuSeconds()
	outs := b.closedLoop(e, b.phase)
	cpu := cpuSeconds() - cpu0

	res := b.verdict(outs)
	ok := succeeded(outs)
	if len(ok) == 0 {
		return nil, fmt.Errorf("no campaign succeeded (%d attempted)", len(outs))
	}
	var secs, cost []float64
	runs := 0
	for _, o := range ok {
		secs = append(secs, o.seconds())
		cost = append(cost, o.runCost)
		runs += o.runs
	}
	fmt.Fprintf(b.log, "%s seed %d: %d campaigns in %.1f s, failed_frac %g ratio\n",
		b.w.name, b.seed, len(outs), b.phase.Seconds(), float64(res.Failed)/float64(res.Attempted))
	res.set("campaign_s.p50", quantile(secs, 0.5), "s")
	res.set("campaign_s.p90", quantile(secs, 0.9), "s")
	res.set("runs_per_s", float64(runs)/busy(ok).Seconds(), "1/s")
	res.set("cpu_s_per_campaign", cpu/float64(len(outs)), "s")
	res.set("run_cost", mean(cost), "runs")
	res.set("setup_s", quantile(setups, 0.5), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// traceSlices is how many alternating untraced and traced slices a
// traced run splits its phase into, each on its own set-up. Alternating
// keeps host drift from posing as tracing overhead.
const traceSlices = 4

// counters is a snapshot of the cumulative counters a traced run
// differences over its slices.
type counters struct {
	allocBytes, gcCPU, cpu float64 // Go runtime (runtime/metrics)
	wireBytes, wireFrames  int64   // dist connections, both directions
	chunks, redispatches   int     // coordinator status
	localChunks            int
	remoteRuns             int64   // runs the workers executed
	workerSecs             float64 // the workers' run wall time
}

func snapshot(e env) counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	c := counters{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64(), cpu: s[2].Value.Float64()}
	if svc, ok := e.(*serviceEnv); ok {
		st := svc.svc.Coordinator().Status()
		c.wireBytes = svc.wire.bytesOut.Load() + svc.wire.bytesIn.Load()
		c.wireFrames = svc.wire.framesOut.Load() + svc.wire.framesIn.Load()
		c.chunks, c.redispatches, c.localChunks = st.Chunks, st.Redispatches, st.LocalChunks
		for _, w := range svc.workers {
			ws := w.Status()
			c.remoteRuns += ws.RunsServed
			c.workerSecs += ws.RunSeconds
		}
	}
	return c
}

// add accumulates the difference after − before.
func (c *counters) add(after, before counters) {
	c.allocBytes += after.allocBytes - before.allocBytes
	c.gcCPU += after.gcCPU - before.gcCPU
	c.cpu += after.cpu - before.cpu
	c.wireBytes += after.wireBytes - before.wireBytes
	c.wireFrames += after.wireFrames - before.wireFrames
	c.chunks += after.chunks - before.chunks
	c.redispatches += after.redispatches - before.redispatches
	c.localChunks += after.localChunks - before.localChunks
	c.remoteRuns += after.remoteRuns - before.remoteRuns
	c.workerSecs += after.workerSecs - before.workerSecs
}

// traced alternates untraced and traced slices of the phase and reports
// per-layer metrics: span-based ones from the traced campaigns, Go
// runtime ones from the untraced campaigns.
func (b *bench) traced() (*result, error) {
	simRef, err := b.simReference()
	if err != nil {
		return nil, err
	}
	tr := newTracing()
	var (
		plain, traced   []outcome
		plainC, tracedC counters
		windows         [][2]time.Time // traced slices
		wall            time.Duration  // traced slices
		service         = b.w.service
		slice           = b.phase / traceSlices
	)
	for i := 0; i < traceSlices; i++ {
		on := i%2 == 1
		var sliceTr *tracing
		if on {
			sliceTr = tr
		}
		e, err := b.setup(sliceTr)
		if err != nil {
			return nil, err
		}
		before := snapshot(e)
		t0 := time.Now()
		outs := b.closedLoop(e, slice)
		t1 := time.Now()
		after := snapshot(e)
		e.close()
		if on {
			traced = append(traced, outs...)
			tracedC.add(after, before)
			windows = append(windows, [2]time.Time{t0, t1})
			wall += t1.Sub(t0)
		} else {
			plain = append(plain, outs...)
			plainC.add(after, before)
		}
	}

	res := b.verdict(append(append([]outcome(nil), plain...), traced...))
	okPlain, ok := succeeded(plain), succeeded(traced)
	if len(okPlain) == 0 || len(ok) == 0 {
		return nil, fmt.Errorf("no campaign succeeded among the untraced or the traced slices")
	}
	n := float64(len(ok))
	perCampaign := func(v float64) float64 { return v / n }

	// sim: the benchmark's own reference executions.
	for k, v := range simRef {
		res.set(k, v.Value, v.Unit)
	}

	// Spans: build and attribute each traced campaign's tree. Spans of
	// set-ups (references, warm-ups) fall outside the traced slices.
	recs, err := tr.records(windows)
	if err != nil {
		return nil, err
	}
	var (
		trees  []*tree
		shares = make(map[string]time.Duration)
		cwall  time.Duration
		nodeT  = make(map[string][]float64) // span name -> durations
		nextID int
	)
	for i := range ok {
		o := &ok[i]
		var t *tree
		if service {
			t = serviceTree(o, recs)
		} else {
			t = localTree(o, recs)
		}
		for l, d := range t.attribute() {
			shares[l] += d
		}
		cwall += o.end.Sub(o.start)
		for _, nd := range t.nodes[1:] {
			nodeT[nd.Name] = append(nodeT[nd.Name], nd.dur().Seconds())
		}
		t.link(&nextID)
		trees = append(trees, t)
	}
	sum := func(name string) float64 { return perCampaign(total(nodeT[name])) }
	printAttribution(b.log, b.w.name, shares, cwall, len(ok))
	tracePath := filepath.Join(scratchBase, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := writeTrace(tracePath, trees); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "trace written to %s\n", tracePath)
	for _, l := range layerOrder {
		res.set("attr."+l+"_frac", frac(shares[l], cwall), "ratio")
	}
	res.set("attr.coverage", 1-frac(shares[layerUnattributed], cwall), "ratio")

	var plainSecs, tracedSecs []float64
	for _, o := range okPlain {
		plainSecs = append(plainSecs, o.seconds())
	}
	for _, o := range ok {
		tracedSecs = append(tracedSecs, o.seconds())
	}
	overhead := quantile(tracedSecs, 0.5) - quantile(plainSecs, 0.5)
	fmt.Fprintf(b.log, "tracing overhead: %.6f s on campaign_s.p50 (traced %.6f s over %d campaigns, untraced %.6f s over %d)\n",
		overhead, quantile(tracedSecs, 0.5), len(tracedSecs), quantile(plainSecs, 0.5), len(plainSecs))
	res.set("trace.overhead_s", overhead, "s")

	// popcache and population.
	var hits, misses, memHits, popBytes, fullRuns, pilotRuns, rounds float64
	var popLoad time.Duration
	var adaptiveWall time.Duration
	var adaptiveCPU float64
	for _, o := range ok {
		hits += float64(o.cache.MemHits + o.cache.DiskHits)
		memHits += float64(o.cache.MemHits)
		misses += float64(o.cache.Misses)
		popLoad += o.popLoad
		popBytes += float64(o.popBytes)
		fullRuns += float64(o.fullRuns)
		pilotRuns += float64(o.pilotRuns)
		if o.trace != nil {
			rounds += float64(o.trace.rounds)
			adaptiveWall += o.trace.adaptiveWall
			adaptiveCPU += o.trace.adaptiveCPU
		}
		if o.rec != nil {
			rounds += float64(len(o.rec.Rounds))
		}
	}
	res.set("popcache.get_s.p50", quantile(nodeT["popcache.get"], 0.5), "s")
	res.set("popcache.hits", perCampaign(hits), "count")
	res.set("popcache.misses", perCampaign(misses), "count")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	res.set("popcache.hit_ratio", hitRatio, "ratio")
	res.set("population.load_s", perCampaign(popLoad.Seconds()), "s")
	res.set("population.save_s", sum("population.save"), "s")
	res.set("population.bytes", perCampaign(popBytes), "bytes")

	// manifest, core and sampling (local campaigns; the service owns its
	// runner's hooks).
	entry, analysis := sum("manifest.entry"), sum("manifest.analysis")
	other := 0.0
	if !service {
		other = perCampaign(cwall.Seconds()) - entry - analysis
	}
	res.set("manifest.entry_s", entry, "s")
	res.set("manifest.analysis_s", analysis, "s")
	res.set("manifest.other_s", other, "s")
	res.set("core.ci_s", sum("core.ci"), "s")
	res.set("core.rounds", perCampaign(rounds), "count")
	res.set("core.collect_s", sum("core.collect")+sum("sampling.pilot"), "s")
	idle := 0.0
	if adaptiveWall > 0 {
		idle = math.Max(0, 1-adaptiveCPU/(maxSims*adaptiveWall.Seconds()))
	}
	res.set("core.round_idle_frac", idle, "ratio")
	res.set("sampling.full_runs", perCampaign(fullRuns), "count")
	res.set("sampling.pilot_runs", perCampaign(pilotRuns), "count")
	res.set("sampling.pilot_s", sum("sampling.pilot"), "s")
	res.set("sampling.interval_s", sum("sampling.interval"), "s")
	res.set("sampling.cache_hits", perCampaign(memHits), "count")

	// dist and campaignd.
	var chunkSecs []float64
	for _, r := range recs {
		if r.Kind == "span" && r.Name == "dist.chunk" {
			chunkSecs = append(chunkSecs, float64(r.DurUS)/1e6)
		}
	}
	var framesPerRun, bytesPerRun float64
	if remote := float64(tracedC.remoteRuns); remote > 0 {
		framesPerRun = float64(tracedC.wireFrames) / remote
		bytesPerRun = float64(tracedC.wireBytes) / remote
	}
	res.set("dist.chunks", perCampaign(float64(tracedC.chunks)), "count")
	res.set("dist.chunk_s.p50", quantile(chunkSecs, 0.5), "s")
	res.set("dist.frames_per_run", framesPerRun, "count")
	res.set("dist.wire_bytes_per_run", bytesPerRun, "bytes")
	res.set("dist.worker_busy_frac", tracedC.workerSecs/(maxSims*wall.Seconds()), "ratio")
	res.set("dist.redispatches", float64(tracedC.redispatches), "count")
	res.set("dist.local_chunks", float64(tracedC.localChunks), "count")
	rejected := 0
	for _, o := range traced {
		if o.rejected {
			rejected++
		}
	}
	res.set("campaignd.queue_wait_s.p50", quantile(nodeT["campaignd.queue"], 0.5), "s")
	res.set("campaignd.run_s.p50", quantile(nodeT["campaignd.run"], 0.5), "s")
	res.set("campaignd.rejected", float64(rejected), "count")

	// Go runtime, from the untraced slices.
	res.set("go.alloc_mb_per_campaign", plainC.allocBytes/float64(len(plain))/(1<<20), "MB")
	res.set("go.gc_cpu_frac", plainC.gcCPU/plainC.cpu, "ratio")
	return res, nil
}

// simRefRuns is how many seeds per entry the sim reference executes.
const simRefRuns = 6

// simReference calls the simulator directly, one execution at a time, on
// the first seeds of every entry of the workload's manifest. Its timings
// are host time; its counts come from sim.Result.Detail and must not move
// for a change that only speeds the simulator up.
func (b *bench) simReference() (map[string]metric, error) {
	m := b.manifestFor(0, 0)
	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	var (
		secs                                       []float64
		ns, cycles, instr, l1d, l2, dir, tlb, dram float64
		noc                                        float64
	)
	r := sim.NewRunner()
	for i, e := range m.Entries {
		cfg, err := e.Config()
		if err != nil {
			return nil, err
		}
		for k := 0; k < simRefRuns; k++ {
			t0 := time.Now()
			res, err := r.Run(e.Benchmark, cfg, scale, entryBase(m, i)+uint64(k))
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("sim reference %s: %w", e.Key(), err)
			}
			secs = append(secs, d.Seconds())
			ns += float64(d.Nanoseconds())
			cycles += float64(res.Cycles)
			instr += float64(res.Instructions)
			dt := res.Detail
			l1d += float64(dt.L1D.Hits + dt.L1D.Misses)
			l2 += float64(dt.L2.Hits + dt.L2.Misses)
			dir += float64(dt.Directory.ReadMisses + dt.Directory.WriteMisses)
			tlb += float64(dt.TLB.Lookups)
			dram += float64(dt.DRAM.Accesses)
			noc += float64(dt.Crossbar.Transfers)
		}
	}
	return map[string]metric{
		"sim.run_s.p50":     {quantile(secs, 0.5), "s"},
		"sim.run_s.p90":     {quantile(secs, 0.9), "s"},
		"sim.ns_per_cycle":  {ns / cycles, "ns"},
		"sim.runs":          {float64(len(secs)), "count"},
		"sim.cycles":        {cycles, "count"},
		"sim.instructions":  {instr, "count"},
		"sim.l1d_accesses":  {l1d, "count"},
		"sim.l2_accesses":   {l2, "count"},
		"sim.dir_misses":    {dir, "count"},
		"sim.tlb_lookups":   {tlb, "count"},
		"sim.dram_accesses": {dram, "count"},
		"sim.noc_transfers": {noc, "count"},
	}, nil
}

// verdict counts attempted and failed operations: every campaign of the
// phase plus the checks made during set-up.
func (b *bench) verdict(outs []outcome) *result {
	res := &result{Attempted: len(outs) + b.setupRuns, Failed: len(b.setupFails)}
	for _, f := range b.setupFails {
		fmt.Fprintf(b.log, "FAILED set-up check: %s\n", f)
	}
	shown := 0
	for _, o := range outs {
		if o.fail == "" {
			continue
		}
		res.Failed++
		if shown < 5 {
			fmt.Fprintf(b.log, "FAILED campaign %s: %s\n", o.id, o.fail)
			shown++
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func succeeded(outs []outcome) []outcome {
	var ok []outcome
	for _, o := range outs {
		if o.fail == "" {
			ok = append(ok, o)
		}
	}
	return ok
}

// busy is the wall time during which at least one campaign was in
// flight: the closed loop's checks between campaigns do not count.
func busy(outs []outcome) time.Duration {
	iv := make([][2]time.Time, len(outs))
	for i, o := range outs {
		iv[i] = [2]time.Time{o.start, o.end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var d time.Duration
	var cur [2]time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(cur[1]) {
			d += cur[1].Sub(cur[0])
			cur = v
			continue
		}
		if v[1].After(cur[1]) {
			cur[1] = v[1]
		}
	}
	return d + cur[1].Sub(cur[0])
}

// quantile is the linearly interpolated q-quantile (0 for no values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 { return total(xs) / float64(max(len(xs), 1)) }

func total(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
