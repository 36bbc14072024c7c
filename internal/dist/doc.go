// Package dist distributes SPA campaigns across worker processes. SPA
// sample collection is embarrassingly parallel over seeds (Sec. 4.3 of
// the paper runs batches of independent seeded executions), so the
// subsystem shards a campaign's seed range into contiguous chunks and
// farms them out to workers over TCP, exactly the shape of distributed
// SMC engines (Bulychev et al., "Distributed Parametric and Statistical
// Model Checking").
//
// The replicability contract carries over unchanged: every run is
// identified by its absolute seed offset, results are committed by
// offset, and the coordinator returns samples ordered by seed offset —
// so a distributed campaign is byte-identical to a local one for any
// worker count, chunk size, or arrival order.
//
// The API has one entry point per operation, each taking the context
// that cancels it: Coordinator.Run for raw results, GeneratePopulation
// for a population, and Collector for a core.Collector bound to one
// metric. The coordinator is also where runs are observed: every run it
// executes in-process or commits from a worker is reported exactly once
// to its Obs (counters, duration histogram, a "sim.run" span, a
// progress tick), whichever layer asked for it — a campaign population,
// an adaptive refinement round, or a sampling pilot block.
//
// Topology: a Coordinator (the campaign process) connects out to one or
// more Worker servers (cmd/spaworker). The wire protocol is
// newline-delimited JSON frames over a plain TCP connection — stdlib
// only, one connection per worker. There is a single protocol version
// with an exact-match handshake, so coordinators and workers run the
// same build. Chunks are carved pull-style and sized from each worker's
// observed throughput, so every dispatch targets the same wall time and
// fast workers take more of the seed range; workers stream results back
// in columnar batches.
//
// Failure layer: per-chunk deadlines, read and write deadlines on every
// frame, heartbeats during long chunks, idle-connection reaping and TCP
// keepalive on the worker side, bounded exponential backoff with jitter
// on reconnects, automatic re-dispatch of chunks from dead or slow
// workers to healthy ones, and graceful degradation to in-process
// execution when no worker is reachable (a coordinator with no workers
// at all is simply a local runner).
//
// The transport is injectable — Coordinator.Dial and Worker.ListenFunc
// replace the real network — which is how internal/faultx subjects the
// whole layer to deterministic, seeded chaos (delays, stalls, abrupt
// closes, truncated and duplicated frames, refused connects) and how
// the chaos soak test proves the byte-identity contract holds under
// network pathology, not just clean failures.
package dist
