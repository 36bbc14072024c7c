package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaignd"
	"repro/internal/dist"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/popcache"
	"repro/internal/population"
	"repro/internal/sim"
)

// bench is one invocation: a workload, its seed and its scratch root.
type bench struct {
	w     *workload
	seed  uint64
	root  string
	phase time.Duration
	log   io.Writer
	seq   atomic.Int64

	mu sync.Mutex
	// setupFails are the failed checks among the setupRuns made during
	// set-up (cold fill, local reference, warm-up campaigns).
	setupFails []string
	setupRuns  int
	// refs holds each manifest's first digest in this run, by client and
	// manifest index.
	refs map[[2]int]digest
}

func (b *bench) nextSeq() int64 { return b.seq.Add(1) }

func (b *bench) dir(prefix string) (string, error) {
	return os.MkdirTemp(b.root, prefix)
}

func (b *bench) setupCheck(what string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setupRuns++
	if err != nil {
		b.setupFails = append(b.setupFails, fmt.Sprintf("%s: %v", what, err))
	}
}

// digest is a campaign's checked output: a hash of the report's results
// and the cycles and instructions summed over its entry populations.
type digest struct {
	Results      string `json:"results"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
}

//go:embed data/digests.json
var pinnedJSON []byte

// pinnedManifests is how many manifests per client have their default
// seed digests pinned.
const pinnedManifests = 8

// pinned returns the digests pinned for the default seed, by client and
// manifest index.
func pinned(workload string) ([][]digest, error) {
	var all map[string][][]digest
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("data/digests.json: %w", err)
	}
	return all[workload], nil
}

// outcome is one campaign as the closed loop saw it.
type outcome struct {
	id         string
	client     int
	start, end time.Time
	// runs counts the simulator executions the report rests on, full and
	// pilot, whether simulated now or served from the popcache; runCost
	// weighs pilot runs by pilot_scale/scale.
	runs    int
	runCost float64
	// fullRuns/pilotRuns are the sampled (non-plain) analyses' spend.
	fullRuns, pilotRuns int
	cache               popcache.Stats
	got                 digest
	fail                string
	rejected            bool

	m        *manifest.Manifest
	popLoad  time.Duration     // the check's population.Load time
	popBytes int64             // size of the entry population files
	rec      *campaignd.Record // service campaigns: the final record
	trace    *campaignTrace    // traced local campaigns: hook timings
}

func (o *outcome) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// inspect reads what the campaign left on disk — the report and the
// entry populations — and fills the outcome's digest and run counts.
func inspect(o *outcome, reportPath, popDir string) error {
	m := o.m
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return fmt.Errorf("reading report: %w", err)
	}
	var raw struct {
		Results json.RawMessage `json:"results"`
	}
	var results []manifest.AnalysisResult
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	if err := json.Unmarshal(raw.Results, &results); err != nil {
		return fmt.Errorf("decoding report results: %w", err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw.Results); err != nil {
		return fmt.Errorf("compacting results: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	o.got.Results = hex.EncodeToString(sum[:])

	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	if want := len(m.Entries) * len(m.Analyses); len(results) != want {
		return fmt.Errorf("report has %d results, want %d", len(results), want)
	}
	for i, r := range results {
		if r.Err != "" {
			return fmt.Errorf("analysis %s/%s: %s", r.Entry, r.Metric, r.Err)
		}
		a := m.Analyses[i%len(m.Analyses)]
		if !a.Adaptive() {
			continue
		}
		pilotScale := a.PilotScale
		if pilotScale == 0 {
			pilotScale = scale / 2
		}
		o.runs += r.Samples + r.PilotRuns
		o.runCost += float64(r.Samples) + float64(r.PilotRuns)*pilotScale/scale
		if r.Sampling != "" {
			o.fullRuns += r.Samples
			o.pilotRuns += r.PilotRuns
		}
	}
	for _, e := range m.Entries {
		path := filepath.Join(popDir, fmt.Sprintf("%s-%s.json", m.Name, e.Key()))
		t0 := time.Now()
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("entry %s: %w", e.Key(), err)
		}
		pop, err := population.Load(f)
		st, serr := f.Stat()
		f.Close()
		o.popLoad += time.Since(t0)
		if err != nil {
			return fmt.Errorf("entry %s: %w", e.Key(), err)
		}
		if serr == nil {
			o.popBytes += st.Size()
		}
		for _, name := range []string{sim.MetricCycles, sim.MetricInstructions} {
			xs, err := pop.Metric(name)
			if err != nil {
				return fmt.Errorf("entry %s: %w", e.Key(), err)
			}
			var s uint64
			for _, x := range xs {
				s += uint64(x)
			}
			if name == sim.MetricCycles {
				o.got.Cycles += s
			} else {
				o.got.Instructions += s
			}
		}
		o.runs += pop.Runs
		o.runCost += float64(pop.Runs)
	}
	return nil
}

// compare checks a digest against the reference.
func compare(got, want digest) error {
	switch {
	case got.Results != want.Results:
		return fmt.Errorf("results digest %.12s, reference %.12s", got.Results, want.Results)
	case got.Cycles != want.Cycles:
		return fmt.Errorf("summed cycles %d, reference %d", got.Cycles, want.Cycles)
	case got.Instructions != want.Instructions:
		return fmt.Errorf("summed instructions %d, reference %d", got.Instructions, want.Instructions)
	}
	return nil
}

// env is one set-up instance of the workload, shared by every campaign
// of a phase.
type env interface {
	// campaign runs manifest j of a client end to end, inspects what it
	// left on disk and checks it against its reference.
	campaign(client, j int) outcome
	close()
}

// setup builds the workload's environment: everything its campaigns
// share, its references, and one untimed warm-up campaign per client.
// tr is nil for untraced campaigns.
func (b *bench) setup(tr *tracing) (env, error) {
	if b.w.service {
		return b.setupService(tr)
	}
	return b.setupLocal(tr)
}

// manifestFor is manifest j of a client (see workload.vary).
func (b *bench) manifestFor(client, j int) *manifest.Manifest {
	return b.w.manifest(manifestSeed(b.seed, client, j))
}

// checkDigest compares a campaign's digest with the first one recorded
// for the same manifest in this run, or records it as that reference; a
// new reference of the default seed must equal the pinned digest.
func (b *bench) checkDigest(client, j int, got digest) error {
	k := [2]int{client, j}
	b.mu.Lock()
	want, seen := b.refs[k]
	if !seen {
		b.refs[k] = got
	}
	b.mu.Unlock()
	if seen {
		return compare(got, want)
	}
	if b.seed != defaultSeed || j >= pinnedManifests {
		return nil
	}
	line, _ := json.Marshal(got)
	fmt.Fprintf(b.log, "reference %s client %d manifest %d: %s\n", b.w.name, client, j, line)
	pins, err := pinned(b.w.name)
	if err != nil {
		return err
	}
	if client >= len(pins) || j >= len(pins[client]) {
		return fmt.Errorf("no digest pinned for client %d manifest %d", client, j)
	}
	return compare(got, pins[client][j])
}

// localEnv runs manifest.Runner campaigns in this process.
type localEnv struct {
	b        *bench
	cacheDir string // filledDiskCache: the store filled during set-up
	tr       *tracing
	// cacheRef is each manifest's popcache outcome in its first campaign.
	cacheRef map[int]popcache.Stats
}

func (b *bench) setupLocal(tr *tracing) (env, error) {
	e := &localEnv{b: b, tr: tr, cacheRef: make(map[int]popcache.Stats)}
	if b.w.cache == filledDiskCache {
		dir, err := b.dir("popcache-")
		if err != nil {
			return nil, err
		}
		e.cacheDir = dir
		// The cold run that fills the store is the reference the warm
		// campaigns must reproduce.
		m := b.manifestFor(0, 0)
		fill := runLocal(b, m, popcache.New(dir, 0), nil)
		if fill.fail != "" {
			return nil, fmt.Errorf("filling the popcache: %s", fill.fail)
		}
		n := uint64(len(m.Entries))
		if want := (popcache.Stats{Misses: n, Puts: n}); fill.cache != want {
			return nil, fmt.Errorf("filling the popcache: %+v, want %+v", fill.cache, want)
		}
		b.setupCheck("cold fill", b.checkDigest(0, 0, fill.got))
	}
	warm := e.campaign(0, 0)
	b.setupCheck("warm-up campaign", failErr(warm.fail))
	return e, nil
}

func failErr(s string) error {
	if s == "" {
		return nil
	}
	return errors.New(s)
}

// runLocal executes one local campaign over the given cache and
// inspects it; tr may be nil.
func runLocal(b *bench, m *manifest.Manifest, cache *popcache.Cache, tr *tracing) outcome {
	o := outcome{id: fmt.Sprintf("c%06d", b.nextSeq()), m: m}
	out, err := b.dir(o.id + "-")
	if err != nil {
		o.fail = err.Error()
		return o
	}
	defer os.RemoveAll(out)
	r := &manifest.Runner{OutDir: out, Parallelism: maxSims, PopCache: cache}
	if tr != nil {
		o.trace = newCampaignTrace(m)
		r.Obs = &obs.Observer{Tracer: tr.tracer}
		r.Hooks = o.trace.hooks()
	}
	o.start = time.Now()
	_, err = r.Run(m)
	o.end = time.Now()
	o.cache = cache.Stats()
	if err != nil {
		o.fail = err.Error()
		return o
	}
	if err := inspect(&o, r.ReportPath(m), out); err != nil {
		o.fail = err.Error()
	}
	return o
}

func (e *localEnv) campaign(c, j int) outcome {
	m := e.b.manifestFor(c, j)
	var cache *popcache.Cache
	switch e.b.w.cache {
	case freshMemCache:
		cache = popcache.New("", 0)
	case filledDiskCache:
		cache = popcache.New(e.cacheDir, 0)
	}
	o := runLocal(e.b, m, cache, e.tr)
	if o.fail != "" {
		return o
	}
	if err := e.checkCache(j, len(m.Entries), o.cache); err != nil {
		o.fail = err.Error()
	} else if err := e.b.checkDigest(c, j, o.got); err != nil {
		o.fail = err.Error()
	}
	return o
}

// checkCache checks a campaign's popcache outcome against what the
// workload means to happen, so no campaign is served by an earlier one
// unless the workload says so.
func (e *localEnv) checkCache(j, entries int, got popcache.Stats) error {
	var want popcache.Stats
	switch e.b.w.cache {
	case freshMemCache:
		// Entry populations always miss; anything beyond that (the
		// sampling layer's pilot and measured populations) must repeat
		// the manifest's first campaign exactly and never touch disk.
		ref, seen := e.cacheRef[j]
		if !seen {
			if got.Misses < uint64(entries) || got.DiskHits != 0 {
				return fmt.Errorf("popcache %+v: want at least %d misses and no disk hits", got, entries)
			}
			e.cacheRef[j] = got
			return nil
		}
		want = ref
	case filledDiskCache:
		want = popcache.Stats{DiskHits: uint64(entries)}
	}
	if got != want {
		return fmt.Errorf("popcache %+v, want %+v", got, want)
	}
	return nil
}

func (e *localEnv) close() {
	if e.cacheDir != "" {
		os.RemoveAll(e.cacheDir)
	}
}

// serviceEnv is an in-process campaignd.Service configured like spad's
// flag defaults, backed by two in-process dist workers on loopback.
type serviceEnv struct {
	b       *bench
	workers []*dist.Worker
	served  []chan error
	svc     *campaignd.Service
	dataDir string
	wire    *wireCounter
}

// pollEvery is how often a client polls its campaign's state.
const pollEvery = time.Millisecond

func (b *bench) setupService(tr *tracing) (env, error) {
	e := &serviceEnv{b: b, wire: &wireCounter{}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	o := &obs.Observer{Metrics: obs.NewRegistry()} // spad always keeps a registry
	var wobs *obs.Observer
	if tr != nil {
		o.Tracer = tr.tracer
		wobs = &obs.Observer{Tracer: tr.tracer}
	}
	var addrs []string
	for i := 0; i < maxSims; i++ {
		w := &dist.Worker{Parallelism: 1, Obs: wobs}
		if err := w.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- w.Serve() }()
		e.workers = append(e.workers, w)
		e.served = append(e.served, done)
		addrs = append(addrs, w.Addr())
	}
	dir, err := b.dir("spad-")
	if err != nil {
		return nil, err
	}
	e.dataDir = dir
	e.svc = campaignd.New(campaignd.Config{
		DataDir:     dir,
		Workers:     addrs,
		ChunkTarget: 250 * time.Millisecond,
		Dial:        e.wire.dial,
		Obs:         o,
	})
	if err := e.svc.Start(); err != nil {
		return nil, err
	}
	for _, a := range addrs {
		if err := e.svc.Coordinator().Ping(a); err != nil {
			return nil, fmt.Errorf("handshake with worker %s: %w", a, err)
		}
	}
	// The local path — the same manifest through a worker-less
	// manifest.Runner — is the reference the service must reproduce.
	for c := range tenants {
		ref := runLocal(b, b.manifestFor(c, 0), nil, nil)
		if ref.fail != "" {
			return nil, fmt.Errorf("local reference for %s: %s", tenants[c], ref.fail)
		}
		b.setupCheck("local reference", b.checkDigest(c, 0, ref.got))
	}
	for c := range tenants {
		warm := e.campaign(c, 0)
		b.setupCheck("warm-up campaign", failErr(warm.fail))
	}
	ok = true
	return e, nil
}

func (e *serviceEnv) campaign(c, j int) outcome {
	m := *e.b.manifestFor(c, j)
	m.Name = fmt.Sprintf("%s-%d", m.Name, e.b.nextSeq())
	o := outcome{client: c, m: &m}
	o.start = time.Now()
	id, err := e.svc.Submit(campaignd.Spec{Tenant: tenants[c], Manifest: &m})
	if err != nil {
		o.end = time.Now()
		o.fail = "submission rejected: " + err.Error()
		o.rejected = true
		return o
	}
	o.id = id
	var rec *campaignd.Record
	for {
		rec, err = e.svc.Get(id)
		if err != nil || rec.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	o.end = time.Now()
	if err != nil {
		o.fail = err.Error()
		return o
	}
	o.rec = rec
	if rec.State != campaignd.StateDone {
		o.fail = fmt.Sprintf("campaign %s %s: %s", id, rec.State, rec.Error)
		return o
	}
	path, err := e.svc.ReportPath(id)
	if err != nil {
		o.fail = err.Error()
		return o
	}
	if err := inspect(&o, path, filepath.Dir(path)); err != nil {
		o.fail = err.Error()
	} else if err := e.b.checkDigest(c, j, o.got); err != nil {
		o.fail = err.Error()
	}
	// The campaign is terminal; its directory only costs disk from here.
	os.RemoveAll(filepath.Dir(path))
	return o
}

func (e *serviceEnv) close() {
	if e.svc != nil {
		e.svc.Drain(10 * time.Second)
	}
	for i, w := range e.workers {
		w.Close()
		<-e.served[i]
	}
	e.workers, e.served = nil, nil
	if e.dataDir != "" {
		os.RemoveAll(e.dataDir)
	}
}

// wireCounter is the coordinator's dialer: it counts the bytes and the
// newline-delimited frames crossing every dist connection, each way.
type wireCounter struct {
	bytesOut, bytesIn   atomic.Int64
	framesOut, framesIn atomic.Int64
}

func (wc *wireCounter) dial(network, address string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, wc: wc}, nil
}

type countingConn struct {
	net.Conn
	wc *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.wc.bytesIn.Add(int64(n))
	c.wc.framesIn.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wc.bytesOut.Add(int64(n))
	c.wc.framesOut.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// closedLoop runs campaigns until the phase deadline: each client starts
// its next campaign only when the previous one has been reported and
// checked.
func (b *bench) closedLoop(e env, phase time.Duration) []outcome {
	deadline := time.Now().Add(phase)
	var (
		mu  sync.Mutex
		all []outcome
		wg  sync.WaitGroup
	)
	for c := 0; c < b.w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				j := 0
				if b.w.vary {
					j = k / 2
				}
				o := e.campaign(c, j)
				mu.Lock()
				all = append(all, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}
