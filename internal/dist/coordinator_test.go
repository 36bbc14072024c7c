package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/sim"
)

// startWorker boots a real worker on a loopback port and tears it down
// with the test.
func startWorker(t *testing.T) *Worker {
	t.Helper()
	w := &Worker{Parallelism: 2, HeartbeatEvery: 50 * time.Millisecond}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Serve() }()
	t.Cleanup(func() {
		w.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("worker did not stop")
		}
	})
	return w
}

// fastCoord returns a coordinator tuned for test-speed failure handling.
func fastCoord(workers ...string) *Coordinator {
	return &Coordinator{
		Workers:      workers,
		ChunkTarget:  time.Millisecond, // many small chunks
		ChunkTimeout: 10 * time.Second,
		ReadTimeout:  2 * time.Second,
		DialTimeout:  time.Second,
		BackoffBase:  time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
	}
}

const (
	testBench = "swaptions"
	testScale = 0.05
	testSeed  = uint64(42)
)

func testJob() Job {
	return Job{Benchmark: testBench, Config: sim.DefaultConfig(), Scale: testScale}
}

// localPop is the reference every distributed run must match.
func localPop(t *testing.T, runs int) *population.Population {
	t.Helper()
	p, err := population.Generate(testBench, sim.DefaultConfig(), testScale, runs, testSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustJSON pins byte-identity, the subsystem's core guarantee.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkPopEqual(t *testing.T, got, want *population.Population) {
	t.Helper()
	g, w := mustJSON(t, got), mustJSON(t, want)
	if string(g) != string(w) {
		t.Errorf("distributed population differs from local:\n got %s\nwant %s", g, w)
	}
}

func TestNoWorkersRunsLocally(t *testing.T) {
	c := fastCoord() // zero workers: a purely local runner
	results, err := c.Run(context.Background(), testJob(), testSeed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results, want 8", len(results))
	}
	for i, r := range results {
		if r.Offset != i {
			t.Fatalf("result %d has offset %d; want seed order", i, r.Offset)
		}
		res, err := sim.Run(testBench, sim.DefaultConfig(), testScale, testSeed+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics[sim.MetricRuntime] != res.Metrics[sim.MetricRuntime] {
			t.Errorf("offset %d: runtime %g != local %g", i, r.Metrics[sim.MetricRuntime], res.Metrics[sim.MetricRuntime])
		}
	}
}

func TestWorkerCountsByteIdentical(t *testing.T) {
	const runs = 12
	want := localPop(t, runs)
	for _, nw := range []int{1, 2, 4} {
		addrs := make([]string, nw)
		for i := range addrs {
			addrs[i] = startWorker(t).Addr()
		}
		c := fastCoord(addrs...)
		got, err := c.GeneratePopulation(context.Background(), testBench, sim.DefaultConfig(), testScale, runs, testSeed)
		if err != nil {
			t.Fatalf("%d workers: %v", nw, err)
		}
		checkPopEqual(t, got, want)
	}
}

func TestRunRejectsBadJobs(t *testing.T) {
	c := fastCoord()
	if _, err := c.Run(context.Background(), testJob(), testSeed, 0); err == nil {
		t.Error("zero runs should error")
	}
	if _, err := c.Run(context.Background(), Job{Config: sim.DefaultConfig()}, testSeed, 4); err == nil {
		t.Error("missing benchmark should error")
	}
	bad := testJob()
	bad.Config.Cores = -1
	if _, err := c.Run(context.Background(), bad, testSeed, 4); err == nil {
		t.Error("invalid config should error")
	}
}

func TestExecErrorAbortsJob(t *testing.T) {
	w := startWorker(t)
	for name, c := range map[string]*Coordinator{
		"remote": fastCoord(w.Addr()),
		"local":  fastCoord(),
	} {
		job := testJob()
		job.Benchmark = "no-such-benchmark"
		_, err := c.Run(context.Background(), job, testSeed, 4)
		if err == nil {
			t.Fatalf("%s: unknown benchmark should abort the job", name)
		}
		if !strings.Contains(err.Error(), "no-such-benchmark") {
			t.Errorf("%s: error should name the benchmark: %v", name, err)
		}
	}
}

func TestUnreachableWorkerFallsBackLocal(t *testing.T) {
	// A bound-then-closed listener yields a port that refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	c := fastCoord(addr)
	c.MaxWorkerFailures = 2
	c.Obs = &obs.Observer{Metrics: reg}
	got, err := c.GeneratePopulation(context.Background(), testBench, sim.DefaultConfig(), testScale, 8, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 8))
	if v := reg.Counter(obs.MetricDistLocalChunks).Value(); v == 0 {
		t.Error("local fallback counter never incremented")
	}
	if v := reg.Counter(obs.MetricDistWorkersDead).Value(); v == 0 {
		t.Error("dead-worker counter never incremented")
	}
}

func TestPing(t *testing.T) {
	w := startWorker(t)
	c := fastCoord()
	if err := c.Ping(w.Addr()); err != nil {
		t.Errorf("ping healthy worker: %v", err)
	}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	dead := ln.Addr().String()
	ln.Close()
	if err := c.Ping(dead); err == nil {
		t.Error("ping dead address should error")
	}
}

// fakeWorker serves scripted protocol conversations for failure-mode
// tests. Each accepted connection is handed to handle; when handle
// returns, the connection closes.
type fakeWorker struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startFakeWorker(t *testing.T, handle func(c *conn)) *fakeWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeWorker{ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				c := newConn(nc, 0)
				defer c.close()
				handle(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeWorker) addr() string { return f.ln.Addr().String() }

// answerHello consumes the hello frame and accepts it.
func answerHello(t *testing.T, c *conn) bool {
	f, err := c.recv(time.Now().Add(5 * time.Second))
	if err != nil || f.Type != frameHello {
		return false
	}
	return c.send(frame{Type: frameHelloOK, Version: ProtocolVersion, Parallelism: 1}) == nil
}

func TestOutOfOrderResultsCommitInSeedOrder(t *testing.T) {
	// A worker that streams results in reverse offset order, one
	// single-run batch each: legal under the protocol, and must not
	// perturb the returned sample order.
	var multiRun atomic.Bool
	fake := startFakeWorker(t, func(c *conn) {
		if !answerHello(t, c) {
			return
		}
		for {
			req, err := c.recv(time.Now().Add(5 * time.Second))
			if err != nil || req.Type != frameRunChunk {
				return
			}
			if req.Count > 1 {
				multiRun.Store(true)
			}
			for i := req.Count - 1; i >= 0; i-- {
				off := req.Start + i
				res, err := sim.Run(req.Benchmark, *req.Config, req.Scale, req.BaseSeed+uint64(off))
				if err != nil {
					c.send(frame{Type: frameError, ID: req.ID, Error: err.Error()})
					return
				}
				b := &ResultBatch{}
				b.add(off, res.Metrics, res.Cycles, 0)
				if c.send(frame{Type: frameResultBatch, ID: req.ID, Batch: b}) != nil {
					return
				}
			}
			if c.send(frame{Type: frameChunkDone, ID: req.ID, Count: req.Count}) != nil {
				return
			}
		}
	})

	c := fastCoord(fake.addr())
	// A long target leaves the tail cap alone to carve 10 runs as
	// 5+3+1+1, so chunks hold several runs to reverse.
	c.ChunkTarget = time.Hour
	got, err := c.GeneratePopulation(context.Background(), testBench, sim.DefaultConfig(), testScale, 10, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 10))
	if !multiRun.Load() {
		t.Error("every chunk held one run; reverse order was never exercised")
	}
}

func TestWorkerDeathMidChunkRedispatches(t *testing.T) {
	// The dying worker streams a batch of up to two bogus results per
	// chunk and drops the connection without chunk_done, every time. Its
	// partial results must be discarded (never committed), the chunks
	// re-dispatched, and the healthy worker must finish the job with
	// local-identical samples.
	var partial atomic.Bool
	dying := startFakeWorker(t, func(c *conn) {
		if !answerHello(t, c) {
			return
		}
		req, err := c.recv(time.Now().Add(5 * time.Second))
		if err != nil || req.Type != frameRunChunk {
			return
		}
		b := &ResultBatch{}
		for i := 0; i < 2 && i < req.Count; i++ {
			b.add(req.Start+i, map[string]float64{sim.MetricRuntime: -12345}, 0, 0) // poison: must never commit
		}
		if len(b.Offsets) < req.Count {
			partial.Store(true)
		}
		c.send(frame{Type: frameResultBatch, ID: req.ID, Batch: b})
		// close without chunk_done: mid-chunk death
	})
	healthy := startWorker(t)

	reg := obs.NewRegistry()
	c := fastCoord(dying.addr(), healthy.Addr())
	// A long target leaves the tail cap alone to carve 12 runs over two
	// workers into first chunks of 3, so the poison batch is partial.
	c.ChunkTarget = time.Hour
	c.MaxWorkerFailures = 2
	c.Obs = &obs.Observer{Metrics: reg}
	got, err := c.GeneratePopulation(context.Background(), testBench, sim.DefaultConfig(), testScale, 12, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 12))
	for _, s := range got.Metrics[sim.MetricRuntime] {
		if s == -12345 {
			t.Fatal("poison sample from the dying worker was committed")
		}
	}
	if v := reg.Counter(obs.MetricDistRedispatches).Value(); v == 0 {
		t.Error("mid-chunk death never triggered a re-dispatch")
	}
	if !partial.Load() {
		t.Error("the dying worker never died with part of a chunk sent")
	}
	if v := reg.Counter(obs.MetricDistWorkersDead).Value(); v == 0 {
		t.Error("repeatedly dying worker was never declared dead")
	}
}

// TestMalformedBatchRedispatches drives bad peer batches through
// dispatch: each one, even when followed by a chunk_done claiming
// success, must be handled as a transport failure — the chunk
// re-dispatched to the healthy worker, the poison never committed, and
// the population byte-identical to local.
func TestMalformedBatchRedispatches(t *testing.T) {
	const poison = -12345
	poisoned := map[string]float64{sim.MetricRuntime: poison}
	for _, tc := range []struct {
		name  string
		batch func(req frame) *ResultBatch
	}{
		{"offset outside chunk", func(req frame) *ResultBatch {
			b := &ResultBatch{}
			for i := 1; i <= req.Count; i++ {
				b.add(req.Start+i, poisoned, 0, 0)
			}
			return b
		}},
		{"offset repeated in batch", func(req frame) *ResultBatch {
			b := &ResultBatch{}
			for i := 0; i < req.Count; i++ {
				b.add(req.Start+i, poisoned, 0, 0)
			}
			b.add(req.Start, poisoned, 0, 0)
			return b
		}},
		{"ragged columns", func(req frame) *ResultBatch {
			b := &ResultBatch{}
			for i := 0; i < req.Count; i++ {
				b.add(req.Start+i, poisoned, 0, 0)
			}
			b.Cycles = b.Cycles[:len(b.Cycles)-1]
			return b
		}},
		{"nil batch", func(req frame) *ResultBatch { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := startFakeWorker(t, func(c *conn) {
				if !answerHello(t, c) {
					return
				}
				req, err := c.recv(time.Now().Add(5 * time.Second))
				if err != nil || req.Type != frameRunChunk {
					return
				}
				c.send(frame{Type: frameResultBatch, ID: req.ID, Batch: tc.batch(req)})
				c.send(frame{Type: frameChunkDone, ID: req.ID, Count: req.Count})
				c.recv(time.Now().Add(5 * time.Second)) // until the coordinator hangs up
			})
			healthy := startWorker(t)

			reg := obs.NewRegistry()
			c := fastCoord(bad.addr(), healthy.Addr())
			c.MaxWorkerFailures = 2
			c.Obs = &obs.Observer{Metrics: reg}
			got, err := c.GeneratePopulation(context.Background(), testBench, sim.DefaultConfig(), testScale, 12, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			checkPopEqual(t, got, localPop(t, 12))
			for _, s := range got.Metrics[sim.MetricRuntime] {
				if s == poison {
					t.Fatal("poison sample from a malformed batch was committed")
				}
			}
			if v := reg.Counter(obs.MetricDistRedispatches).Value(); v == 0 {
				t.Error("malformed batch never triggered a re-dispatch")
			}
		})
	}
}

func TestSlowWorkerDuplicateCommitDiscarded(t *testing.T) {
	// A worker that answers hello and then goes silent: the read deadline
	// trips, the chunk re-dispatches to the healthy worker, and the job
	// still completes with exactly one commit per chunk.
	silent := startFakeWorker(t, func(c *conn) {
		if !answerHello(t, c) {
			return
		}
		// Accept the chunk but never respond; the next recv blocks until
		// the coordinator gives up on us and closes the connection.
		if req, err := c.recv(time.Now().Add(5 * time.Second)); err != nil || req.Type != frameRunChunk {
			return
		}
		c.recv(time.Now().Add(30 * time.Second))
	})
	healthy := startWorker(t)

	c := fastCoord(silent.addr(), healthy.Addr())
	c.ReadTimeout = 300 * time.Millisecond
	c.MaxWorkerFailures = 1
	got, err := c.GeneratePopulation(context.Background(), testBench, sim.DefaultConfig(), testScale, 9, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	checkPopEqual(t, got, localPop(t, 9))
}

// TestHooksFireOncePerRun: the coordinator reports every committed
// remote run to its Observer exactly once — one "sim.run" span per seed
// of the job, carrying the job's benchmark and no error, and none for a
// seed outside it.
func TestHooksFireOncePerRun(t *testing.T) {
	w := startWorker(t)
	trace := &syncBuffer{}
	c := fastCoord(w.Addr())
	c.Obs = &obs.Observer{Tracer: obs.NewTracer(trace)}
	if _, err := c.Run(context.Background(), testJob(), testSeed, 7); err != nil {
		t.Fatal(err)
	}
	checkRunsObservedOnce(t, trace.Bytes(), 7)
}

// simRun is one "sim.run" span of a coordinator's trace.
type simRun struct {
	Benchmark string
	Seed      uint64
	Elapsed   time.Duration
	Err       string
}

// simRuns decodes the "sim.run" spans of a JSONL trace.
func simRuns(t *testing.T, trace []byte) []simRun {
	t.Helper()
	var out []simRun
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			DurUS int64  `json:"dur_us"`
			Attrs struct {
				Benchmark string `json:"benchmark"`
				Seed      uint64 `json:"seed"`
				Error     string `json:"error"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		if rec.Kind == "span" && rec.Name == "sim.run" {
			out = append(out, simRun{Benchmark: rec.Attrs.Benchmark, Seed: rec.Attrs.Seed,
				Elapsed: time.Duration(rec.DurUS) * time.Microsecond, Err: rec.Attrs.Error})
		}
	}
	return out
}

// checkRunsObservedOnce asserts a trace holds exactly one successful
// testBench "sim.run" span for each seed testSeed+0 … testSeed+runs−1
// and no other.
func checkRunsObservedOnce(t *testing.T, trace []byte, runs int) {
	t.Helper()
	seen := map[uint64]int{}
	for _, r := range simRuns(t, trace) {
		seen[r.Seed]++
		if r.Benchmark != testBench || r.Err != "" {
			t.Errorf("sim.run span for seed %d: benchmark %q, error %q", r.Seed, r.Benchmark, r.Err)
		}
		if r.Seed < testSeed || r.Seed >= testSeed+uint64(runs) {
			t.Errorf("sim.run span for seed %d outside the job's range", r.Seed)
		}
	}
	for i := 0; i < runs; i++ {
		if n := seen[testSeed+uint64(i)]; n != 1 {
			t.Errorf("run %d observed %d times, want exactly 1", i, n)
		}
	}
}

func TestCollectorMatchesLocalSamples(t *testing.T) {
	w := startWorker(t)
	c := fastCoord(w.Addr())
	got, err := c.Collector(context.Background(), testJob(), sim.MetricRuntime).Collect(testSeed, 10, 0, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := localPop(t, 10).Metrics[sim.MetricRuntime]
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("sample %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestCollectorRejectsMissingMetric(t *testing.T) {
	w := startWorker(t)
	c := fastCoord(w.Addr())
	_, err := c.Collector(context.Background(), testJob(), "no-such-metric").Collect(testSeed, 4, 0, core.Hooks{})
	if err == nil || !strings.Contains(err.Error(), "no-such-metric") {
		t.Errorf("missing metric should error by name, got %v", err)
	}
}

func TestAnalyzeWithCoordinatorCollector(t *testing.T) {
	w := startWorker(t)
	c := fastCoord(w.Addr())
	p := core.Params{F: 0.5, C: 0.9}
	opts := core.Options{Samples: 40, BaseSeed: testSeed}

	distA, err := core.AnalyzeWith(c.Collector(context.Background(), testJob(), sim.MetricRuntime), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) (float64, error) {
		res, err := sim.Run(testBench, sim.DefaultConfig(), testScale, seed)
		if err != nil {
			return 0, err
		}
		return res.Metrics[sim.MetricRuntime], nil
	}
	localA, err := core.Analyze(run, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(mustJSON(t, distA.Samples)) != string(mustJSON(t, localA.Samples)) {
		t.Error("distributed analysis samples differ from local")
	}
	if distA.Interval != localA.Interval {
		t.Errorf("intervals differ: %+v vs %+v", distA.Interval, localA.Interval)
	}
}

func TestSplitAddrs(t *testing.T) {
	if got := SplitAddrs(""); got != nil {
		t.Errorf("empty string should yield nil, got %v", got)
	}
	got := SplitAddrs("a:1, b:2,,c:3,")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestSplitAddrsDedupsRepeats(t *testing.T) {
	// A repeated address would double that worker's share of the
	// failure budget and its connection count; SplitAddrs keeps the
	// first occurrence only.
	got := SplitAddrs("a:1,b:2, a:1,c:3,b:2,a:1")
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("addr %d: %q != %q", i, got[i], want[i])
		}
	}
}
