// Package sim is the multicore processor simulator substrate: the
// replacement for the paper's gem5 v22.1 + Ruby setup (see DESIGN.md for
// the substitution argument). It executes the synthetic multithreaded
// programs of internal/workload on a timing model of the Table 2 system —
// four out-of-order-class x86 cores with private L1s, a shared inclusive
// L2 with a MESI directory, a crossbar interconnect with 16-byte links,
// and 90-cycle DRAM — with the paper's variability injection (uniform 0–4
// cycle jitter on memory accesses) plus optional OS-noise and colocation
// effects for "real machine" populations (Fig. 1).
//
// Each run is deterministic for its seed: workload structure, DRAM jitter,
// scheduling noise and thermal behaviour all derive from split substreams
// of the run seed, which is the property SPA's replicable campaigns
// require (Sec. 5.2).
package sim

import "fmt"

// Config describes the simulated system. DefaultConfig reproduces Table 2.
type Config struct {
	// Cores is the number of x86-class cores (Table 2: 4).
	Cores int
	// FreqGHz converts cycles to seconds for the runtime metric.
	FreqGHz float64

	// L1I/L1D/L2 geometry (Table 2: I 32KB/2-way, D 32KB/8-way,
	// shared inclusive L2 3MB/16-way, 64B blocks).
	L1ISize, L1IWays int
	L1DSize, L1DWays int
	L2Size, L2Ways   int
	BlockSize        int

	// Latencies in cycles (Table 2: L1 2-cycle, L2 16-cycle, memory
	// 90-cycle).
	L1Latency  uint64
	L2Latency  uint64
	MemLatency uint64

	// ReplacementPolicy selects the cache replacement policy for every
	// cache level: "lru" (default, Table 2's model), "fifo" or "random".
	ReplacementPolicy string

	// CoherenceProtocol selects "mesi" (default, Table 2) or "msi"
	// (the protocol ablation: no Exclusive state, so private
	// read-then-write pays an upgrade transaction).
	CoherenceProtocol string

	// PrefetchNextLine enables a simple next-line prefetcher: every L1
	// demand miss also pulls the following block into the shared L2, off
	// the critical path. Off by default (the Table 2 system model and the
	// recorded experiment campaign run without it); the prefetcher
	// ablation turns it on.
	PrefetchNextLine bool

	// MSHRs is the per-core bound on outstanding memory accesses — the
	// out-of-order core approximation: loads and stores issue without
	// blocking until the window fills, and synchronization operations
	// fence (drain) the window. 1 reverts to a blocking in-order memory
	// model. Value dependencies inside the window are not modeled.
	MSHRs int

	// JitterMax is the inclusive bound of the uniform random latency added
	// to each memory access — the paper's variability injection (0–4).
	// Negative disables injection (the ablation's deterministic mode).
	JitterMax int

	// L2Banks is the number of L2 banks (crossbar output ports).
	L2Banks int
	// NocHopLatency is the crossbar base traversal latency.
	NocHopLatency uint64
	// LinkBytes is the crossbar flit size (Table 2: 16B links).
	LinkBytes int

	// Front-end structures. BPKind selects the branch predictor:
	// "bimodal" (default) or "gshare".
	BPKind            string
	BPEntries         int
	BPHistoryBits     uint
	MispredictPenalty uint64
	TLBEntries        int
	PageSize          int
	TLBWalkLatency    uint64

	// Scheduling.
	SchedQuantum    uint64
	CtxSwitchCost   uint64
	MigrationFlush  float64 // fraction of L1D lost when a thread migrates
	LockLatency     uint64  // uncontended acquire/transfer cost
	UnlockLatency   uint64
	QueueOpLatency  uint64
	BarrierLatency  uint64
	InvalidateCost  uint64 // extra cycles when a write invalidates sharers
	OwnerForwardFee uint64 // extra cycles when a Modified copy is forwarded

	// OS noise and colocation model "real machine" variability (Fig. 1).
	// OSNoiseRate is the per-compute-op probability of a kernel
	// preemption; OSNoiseCycles its mean cost. ColocationProb is the
	// per-run probability that a co-located process slows ColocCores
	// cores by ColocationFactor for the whole run.
	OSNoiseRate      float64
	OSNoiseCycles    uint64
	ColocationProb   float64
	ColocationFactor float64
	ColocCores       int

	// Thermal/sprinting model (Table 1 template 8's example).
	Thermal ThermalConfig

	// CtxSwitchKernelBlocks is the number of kernel cache blocks streamed
	// through the L2 on each context switch (full-system pollution).
	CtxSwitchKernelBlocks int

	// ASLRPages is the span (in pages) of the per-run, per-thread random
	// base-address offset, modeling address-space layout randomization —
	// one of the variability origins the paper cites (program layout /
	// linking order [31]). Zero disables it. Offsets shift cache-set
	// mappings, so conflict-miss counts vary at run granularity.
	ASLRPages int

	// SampleInterval is the trace sampling period in cycles.
	SampleInterval uint64
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
}

// ThermalConfig parameterizes the sprint/thermal state machine.
type ThermalConfig struct {
	Enabled     bool
	Ambient     float64 // idle-equilibrium temperature (°C)
	HeatRate    float64 // °C per sample at full activity
	CoolRate    float64 // fractional return toward ambient per sample
	SprintEnter float64 // sprint allowed below this temperature
	AlertTemp   float64 // thermal alert above this temperature
	SprintBoost float64 // speed multiplier while sprinting
	ThrottleDip float64 // speed multiplier after an alert, until cooled
	// InitSpread is the span of the per-run random initial temperature
	// above Ambient — the thermal analogue of the paper's "hardware state
	// when the program begins" variability origin (Sec. 2.1). It shifts
	// how soon the first alert fires, quantizing runs into sprint/alert
	// count modes on both sides of the typical run.
	InitSpread float64
}

// DefaultConfig returns the Table 2 system with the paper's variability
// injection enabled.
func DefaultConfig() Config {
	return Config{
		Cores:   4,
		FreqGHz: 2.0,

		L1ISize: 32 * 1024, L1IWays: 2,
		L1DSize: 32 * 1024, L1DWays: 8,
		L2Size: 3 * 1024 * 1024, L2Ways: 16,
		BlockSize: 64,

		ReplacementPolicy: "lru",
		CoherenceProtocol: "mesi",

		L1Latency:  2,
		L2Latency:  16,
		MemLatency: 90,
		MSHRs:      4,
		JitterMax:  4,

		L2Banks:       4,
		NocHopLatency: 2,
		LinkBytes:     16,

		BPKind:            "bimodal",
		BPEntries:         1024,
		BPHistoryBits:     8,
		MispredictPenalty: 12,
		TLBEntries:        64,
		PageSize:          4096,
		TLBWalkLatency:    40,

		SchedQuantum:    50_000,
		CtxSwitchCost:   1_500,
		MigrationFlush:  0.6,
		LockLatency:     24,
		UnlockLatency:   8,
		QueueOpLatency:  30,
		BarrierLatency:  40,
		InvalidateCost:  12,
		OwnerForwardFee: 20,

		CtxSwitchKernelBlocks: 24,
		ASLRPages:             512,

		Thermal: ThermalConfig{
			Enabled:     true,
			Ambient:     45,
			HeatRate:    5,
			CoolRate:    0.1,
			SprintEnter: 55,
			AlertTemp:   78,
			SprintBoost: 1.25,
			ThrottleDip: 0.65,
			InitSpread:  26,
		},

		SampleInterval: 20_000,
		MaxCycles:      2_000_000_000,
	}
}

// HardwareLikeConfig layers the OS-noise and colocation effects on top of
// the default system, producing "real machine" populations like Fig. 1's
// bimodal ferret runtimes: most runs are clean, but a colocated process
// occasionally steals capacity for a whole run.
func HardwareLikeConfig() Config {
	cfg := DefaultConfig()
	cfg.OSNoiseRate = 0.002
	cfg.OSNoiseCycles = 8_000
	cfg.ColocationProb = 0.2
	cfg.ColocationFactor = 0.38
	cfg.ColocCores = 2
	return cfg
}

// VariantConfig returns a named system variant — the set campaigns,
// simrun and the experiments select from: "default" (or ""), "hardware"
// (HardwareLikeConfig), and the Fig. 4 pair "l2half" (512 kB L2) and
// "l2double" (1 MB L2).
func VariantConfig(name string) (Config, error) {
	cfg := DefaultConfig()
	switch name {
	case "", "default":
	case "hardware":
		cfg = HardwareLikeConfig()
	case "l2half":
		cfg.L2Size = 512 * 1024
	case "l2double":
		cfg.L2Size = 1024 * 1024
	default:
		return Config{}, fmt.Errorf("sim: unknown variant %q (want default, hardware, l2half or l2double)", name)
	}
	return cfg, nil
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.Cores > 64:
		return fmt.Errorf("sim: cores %d outside 1..64", c.Cores)
	case c.FreqGHz <= 0:
		return fmt.Errorf("sim: non-positive frequency")
	case c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0:
		return fmt.Errorf("sim: block size %d not a power of two", c.BlockSize)
	case c.L2Banks <= 0:
		return fmt.Errorf("sim: non-positive L2 bank count")
	case c.SampleInterval == 0:
		return fmt.Errorf("sim: zero sample interval")
	case c.MaxCycles == 0:
		return fmt.Errorf("sim: zero cycle budget")
	case c.ColocationProb < 0 || c.ColocationProb > 1:
		return fmt.Errorf("sim: colocation probability %g outside [0,1]", c.ColocationProb)
	case c.BPKind != "" && c.BPKind != "bimodal" && c.BPKind != "gshare":
		return fmt.Errorf("sim: unknown branch predictor %q", c.BPKind)
	case c.MSHRs < 1:
		return fmt.Errorf("sim: MSHRs %d must be at least 1", c.MSHRs)
	case c.CoherenceProtocol != "" && c.CoherenceProtocol != "mesi" && c.CoherenceProtocol != "msi":
		return fmt.Errorf("sim: unknown coherence protocol %q", c.CoherenceProtocol)
	case c.ReplacementPolicy != "" && c.ReplacementPolicy != "lru" &&
		c.ReplacementPolicy != "fifo" && c.ReplacementPolicy != "random":
		return fmt.Errorf("sim: unknown replacement policy %q", c.ReplacementPolicy)
	}
	return nil
}
