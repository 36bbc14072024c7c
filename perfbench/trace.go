package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sampling"
)

// tracing holds the spans of a traced phase in memory: the program's
// own spans and events, which it writes through an obs.Tracer sink, and
// the benchmark's spans around its calls into the layers (recorded per
// campaign in campaignTrace).
type tracing struct {
	mu     sync.Mutex
	buf    bytes.Buffer // the program's JSONL records
	tracer *obs.Tracer
}

func newTracing() *tracing {
	t := &tracing{}
	t.tracer = obs.NewTracer(t)
	return t
}

// Write is the tracer's sink. Worker connection goroutines may still
// emit events while the records are read, hence the lock.
func (t *tracing) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Write(p)
}

// progRecord is one decoded obs.Tracer record.
type progRecord struct {
	Kind  string         `json:"kind"`
	Name  string         `json:"name"`
	Start time.Time      `json:"start"`
	DurUS int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

func (r progRecord) end() time.Time { return r.Start.Add(time.Duration(r.DurUS) * time.Microsecond) }

func (r progRecord) num(key string) float64 {
	v, _ := r.Attrs[key].(float64)
	return v
}

// records decodes the program records that start inside one of the
// windows, ordered by start.
func (t *tracing) records(windows [][2]time.Time) ([]progRecord, error) {
	t.mu.Lock()
	data := append([]byte(nil), t.buf.Bytes()...)
	t.mu.Unlock()
	var out []progRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var r progRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("decoding trace record: %w", err)
		}
		for _, w := range windows {
			if !r.Start.Before(w[0]) && !r.Start.After(w[1]) {
				out = append(out, r)
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.Before(out[b].Start) })
	return out, nil
}

// campaignTrace is what the benchmark records around one local
// campaign's calls into the runner, through manifest.Hooks. The hooks
// fire synchronously on the runner's goroutine, so no locking is needed;
// the trace is read once Run has returned.
type campaignTrace struct {
	m           *manifest.Manifest
	cur         int
	entryStart  []time.Time
	entryEnd    []time.Time
	analysisEnd [][]time.Time
	rounds      int

	// Wall and process CPU time spent inside adaptive analyses, for the
	// share of the two CPUs left idle while rounds run.
	markAt       time.Time
	markCPU      float64
	adaptiveWall time.Duration
	adaptiveCPU  float64
}

func newCampaignTrace(m *manifest.Manifest) *campaignTrace {
	n := len(m.Entries)
	return &campaignTrace{m: m, entryStart: make([]time.Time, n), entryEnd: make([]time.Time, n),
		analysisEnd: make([][]time.Time, n)}
}

func (t *campaignTrace) mark(now time.Time) {
	t.markAt, t.markCPU = now, cpuSeconds()
}

func (t *campaignTrace) hooks() manifest.Hooks {
	return manifest.Hooks{
		OnEntryStart: func(idx int, _ string) {
			t.cur = idx
			t.entryStart[idx] = time.Now()
		},
		OnEntryDone: func(idx int, _ string, _ bool, _ error) {
			now := time.Now()
			t.entryEnd[idx] = now
			t.mark(now)
		},
		OnAnalysisDone: func(manifest.AnalysisResult) {
			now := time.Now()
			j := len(t.analysisEnd[t.cur])
			if j < len(t.m.Analyses) && t.m.Analyses[j].Adaptive() {
				t.adaptiveWall += now.Sub(t.markAt)
				t.adaptiveCPU += cpuSeconds() - t.markCPU
			}
			t.analysisEnd[t.cur] = append(t.analysisEnd[t.cur], now)
			t.mark(now)
		},
		OnConvergenceRound: func(manifest.ConvergenceRound) { t.rounds++ },
	}
}

// Layers, in the order the attribution table lists them. A span's layer
// is the module whose code runs inside it and outside its child spans;
// "unattributed" is time inside a campaign that no layer span covers.
const (
	layerCampaignd    = "campaignd"
	layerManifest     = "manifest"
	layerPopcache     = "popcache"
	layerPopulation   = "population"
	layerCore         = "core"
	layerSampling     = "sampling"
	layerDist         = "dist"
	layerSim          = "sim"
	layerUnattributed = "unattributed"
)

var layerOrder = []string{layerCampaignd, layerManifest, layerPopcache, layerPopulation,
	layerCore, layerSampling, layerDist, layerSim, layerUnattributed}

// node is one span of a campaign's trace tree. Depth is fixed by the
// span's kind; at any instant the deepest open span owns the time.
type node struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Campaign string    `json:"campaign"`
	Name     string    `json:"name"`
	Layer    string    `json:"layer"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	depth    int
}

func (n node) dur() time.Duration { return n.End.Sub(n.Start) }

// tree is one campaign's spans, root first.
type tree struct {
	nodes []node
}

// add appends a span clipped to the campaign; an empty one is dropped.
func (t *tree) add(name, layer string, depth int, start, end time.Time) {
	root := t.nodes[0]
	if start.Before(root.Start) {
		start = root.Start
	}
	if end.After(root.End) {
		end = root.End
	}
	if !end.After(start) {
		return
	}
	t.nodes = append(t.nodes, node{Campaign: root.Campaign, Name: name, Layer: layer, Start: start, End: end, depth: depth})
}

func newTree(o *outcome) *tree {
	return &tree{nodes: []node{{Campaign: o.id, Name: "bench.campaign", Layer: layerUnattributed,
		Start: o.start, End: o.end, Parent: -1}}}
}

// within returns the records that start inside [from, to].
func within(recs []progRecord, from, to time.Time) []progRecord {
	lo := sort.Search(len(recs), func(i int) bool { return !recs[i].Start.Before(from) })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].Start.After(to) })
	if hi < lo {
		return nil
	}
	return recs[lo:hi]
}

// entryBase is the first seed of manifest entry idx (the runner's
// per-entry offset).
func entryBase(m *manifest.Manifest, idx int) uint64 { return m.Seed + uint64(idx)*1_000_000 }

// pilotBlock is the pilot block size a sampled analysis fetches per
// pilot call, with the sampling package's defaults applied.
func pilotBlock(a manifest.Analysis) int {
	strata := a.SamplingStrata
	if strata == 0 {
		strata = sampling.DefaultStrata
	}
	pb := a.PilotRuns
	if pb == 0 {
		pb = max(8*strata, 32)
	}
	if r := pb % strata; r != 0 {
		pb += strata - r
	}
	return pb
}

// localTree builds a local campaign's tree from the benchmark's hook
// spans and the program records that fall inside the campaign.
func localTree(o *outcome, recs []progRecord) *tree {
	t := newTree(o)
	ct, m := o.trace, o.trace.m
	recs = within(recs, o.start, o.end)
	for _, r := range recs {
		if r.Kind == "span" && r.Name == "campaign" {
			t.add("manifest.run", layerManifest, 1, r.Start, r.end())
		}
	}
	for i := range m.Entries {
		es, ee := ct.entryStart[i], ct.entryEnd[i]
		t.add("manifest.entry", layerManifest, 2, es, ee)
		var first, last, hit time.Time
		for _, r := range within(recs, es, ee) {
			switch {
			case r.Kind == "event" && r.Name == "campaign.cache_hit":
				hit = r.Start
			case r.Kind == "span" && r.Name == "sim.run":
				t.add("sim.run", layerSim, 3, r.Start, r.end())
				if first.IsZero() || r.Start.Before(first) {
					first = r.Start
				}
				if r.end().After(last) {
					last = r.end()
				}
			}
		}
		switch {
		case !hit.IsZero():
			t.add("popcache.get", layerPopcache, 3, es, hit)
			t.add("population.save", layerPopulation, 3, hit, ee)
		case !first.IsZero():
			t.add("popcache.get", layerPopcache, 3, es, first)
			t.add("population.save", layerPopulation, 3, last, ee)
		}
		prev := ee
		for j, ae := range ct.analysisEnd[i] {
			a := m.Analyses[j]
			t.add("manifest.analysis", layerCore, 2, prev, ae)
			if a.Adaptive() {
				adaptiveSpans(t, within(recs, prev, ae), a, entryBase(m, i), prev)
			} else {
				// A fixed analysis is one SPA interval over the entry's
				// population.
				t.add("core.ci", layerCore, 3, prev, ae)
			}
			prev = ae
		}
	}
	return t
}

// adaptiveSpans adds an adaptive analysis's collection jobs and the
// interval computations between them. Each dist.job is one Collect of
// the coordinator's in-process path; in a sampled analysis a job of one
// aligned pilot block is the pilot pass. The gap between a round's last
// job and its ci.round event is the interval computation.
func adaptiveSpans(t *tree, recs []progRecord, a manifest.Analysis, base uint64, from time.Time) {
	sampled := a.Sampling != "" && a.Sampling != "plain"
	pb := pilotBlock(a)
	var jobEnds []time.Time
	for _, r := range recs {
		if r.Kind != "span" || r.Name != "dist.job" {
			continue
		}
		off := uint64(r.num("base_seed")) - base
		if sampled && int(r.num("runs")) == pb && off%uint64(pb) == 0 {
			t.add("sampling.pilot", layerSampling, 3, r.Start, r.end())
		} else {
			t.add("core.collect", layerSim, 3, r.Start, r.end())
		}
		jobEnds = append(jobEnds, r.end())
	}
	sort.Slice(jobEnds, func(i, j int) bool { return jobEnds[i].Before(jobEnds[j]) })
	name, layer := "core.ci", layerCore
	if sampled {
		name, layer = "sampling.interval", layerSampling
	}
	prev := from
	for _, r := range recs {
		if r.Kind != "event" || r.Name != "ci.round" {
			continue
		}
		gap := prev
		for _, e := range jobEnds {
			if e.After(gap) && !e.After(r.Start) {
				gap = e
			}
		}
		t.add(name, layer, 3, gap, r.Start)
		prev = r.Start
	}
}

// serviceTree builds a service campaign's tree: the queue wait (from
// Submit to the service's campaignd.started event) and the run (to its
// campaignd.finished event), the runner's campaign span (matched by the
// campaign's unique manifest name) and the coordinator jobs of the
// tenant's seed range. Worker-side and per-chunk spans are not tied to
// one campaign while two tenants share the fleet, so they stay inside
// the dist row.
func serviceTree(o *outcome, recs []progRecord) *tree {
	t, m := newTree(o), o.m
	recs = within(recs, o.start, o.end)
	var started, finished time.Time
	lo, hi := m.Seed, entryBase(m, len(m.Entries))
	for _, r := range recs {
		switch {
		case r.Kind == "event" && r.Name == "campaignd.started" && r.Attrs["id"] == o.id:
			started = r.Start
		case r.Kind == "event" && r.Name == "campaignd.finished" && r.Attrs["id"] == o.id:
			finished = r.Start
		case r.Kind == "span" && r.Name == "campaign" && r.Attrs["name"] == m.Name:
			t.add("manifest.run", layerManifest, 2, r.Start, r.end())
		case r.Kind == "span" && r.Name == "dist.job":
			if s := uint64(r.num("base_seed")); s >= lo && s < hi {
				t.add("dist.job", layerDist, 3, r.Start, r.end())
			}
		}
	}
	if !started.IsZero() && !finished.IsZero() {
		t.add("campaignd.queue", layerCampaignd, 1, o.start, started)
		t.add("campaignd.run", layerCampaignd, 1, started, finished)
	}
	return t
}

// attribute splits the campaign's wall time among layers: each instant
// belongs to the layer of the deepest span open at that instant.
func (t *tree) attribute() map[string]time.Duration {
	type ev struct {
		at    time.Time
		delta int
		n     int
	}
	evs := make([]ev, 0, 2*len(t.nodes))
	maxDepth := 0
	for i, n := range t.nodes {
		evs = append(evs, ev{n.Start, +1, i}, ev{n.End, -1, i})
		maxDepth = max(maxDepth, n.depth)
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].at.Before(evs[b].at) })
	open := make([]map[string]int, maxDepth+1)
	for d := range open {
		open[d] = make(map[string]int)
	}
	out := make(map[string]time.Duration)
	for k, e := range evs {
		n := t.nodes[e.n]
		open[n.depth][n.Layer] += e.delta
		if k+1 == len(evs) {
			break
		}
		seg := evs[k+1].at.Sub(e.at)
		if seg <= 0 {
			continue
		}
		for d := maxDepth; d >= 0; d-- {
			owner := ""
			for _, l := range layerOrder {
				if open[d][l] > 0 {
					owner = l
					break
				}
			}
			if owner != "" {
				out[owner] += seg
				break
			}
		}
	}
	return out
}

// link gives every span an ID and its parent: the deepest shallower span
// open when it starts.
func (t *tree) link(nextID *int) {
	for i := range t.nodes {
		t.nodes[i].ID = *nextID
		*nextID++
	}
	for i := 1; i < len(t.nodes); i++ {
		n := &t.nodes[i]
		best := 0
		for j, p := range t.nodes {
			if p.depth < n.depth && p.depth >= t.nodes[best].depth && !p.Start.After(n.Start) && !p.End.Before(n.End) {
				best = j
			}
		}
		n.Parent = t.nodes[best].ID
	}
}

// writeTrace writes every campaign's spans as JSON lines.
func writeTrace(path string, trees []*tree) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range trees {
		for _, n := range t.nodes {
			if err := enc.Encode(n); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printAttribution writes the attribution table: each layer's share of
// campaign wall time, summed over the traced campaigns.
func printAttribution(w io.Writer, workload string, shares map[string]time.Duration, wall time.Duration, campaigns int) {
	fmt.Fprintf(w, "attribution %s: %d traced campaigns, %.4f s campaign wall time\n", workload, campaigns, wall.Seconds())
	fmt.Fprintf(w, "  %-14s %12s %8s\n", "layer", "s/campaign", "share")
	for _, l := range layerOrder {
		d := shares[l]
		fmt.Fprintf(w, "  %-14s %12.6f %7.2f%%\n", l, d.Seconds()/float64(max(campaigns, 1)), 100*frac(d, wall))
	}
	cov := 1 - frac(shares[layerUnattributed], wall)
	verdict := "meets"
	if cov < 0.95 {
		verdict = "BELOW"
	}
	fmt.Fprintf(w, "  coverage %.2f%% of campaign wall time (%s the 95%% bar)\n", 100*cov, verdict)
}

func frac(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
