// Package coherence implements the MESI directory protocol of the simulated
// system (Table 2: "MESI directory"). The directory lives beside the shared
// L2 and tracks, per block, which cores hold the line and in which state.
// The model is timing-oriented: it reports which protocol actions an access
// triggers (invalidations, owner writebacks, upgrades) so the machine model
// can charge crossbar and memory latency; data movement itself is not
// simulated.
//
// The Directory holds no per-block state of its own: its transitions act on
// an Entry the caller stores. The machine keeps one Entry per L2 line —
// the L2 is inclusive, so a block absent from it can only be Invalid.
package coherence

import (
	"fmt"
	"math/bits"
)

// State is a block's directory-visible state.
type State uint8

// MESI states as seen by the directory. Exclusive and Modified both imply a
// single owner; the directory conservatively tracks Exclusive separately so
// silent E→M upgrades cost nothing, as in real MESI.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// Entry is one block's directory state. The zero Entry is Invalid. In
// Exclusive and Modified the single sharer bit is the owner.
type Entry struct {
	Sharers uint64 // bitmask of cores holding the line
	State   State
}

// Protocol selects the coherence protocol variant.
type Protocol int

const (
	// MESI grants Exclusive on a sole read, making the subsequent write a
	// silent E→M upgrade (Table 2's protocol).
	MESI Protocol = iota
	// MSI has no Exclusive state: a sole reader holds Shared, so every
	// first write pays an upgrade transaction. Kept for the protocol
	// ablation.
	MSI
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == MSI {
		return "MSI"
	}
	return "MESI"
}

// Directory applies the protocol's transitions to caller-held entries
// and counts the actions they cause.
type Directory struct {
	cores    int
	protocol Protocol
	// invScratch and holderScratch back the slices returned via
	// Action.InvalidatedCores and Drop; see the aliasing note on Action.
	invScratch    []int
	holderScratch []int
	stats         Stats
}

// Stats counts protocol actions.
type Stats struct {
	ReadMisses    uint64
	WriteMisses   uint64
	Invalidations uint64 // sharer copies invalidated by upgrades/writes
	OwnerForwards uint64 // dirty data forwarded/written back from an owner
	Upgrades      uint64 // S→M upgrades that only needed invalidations
}

// New builds a MESI directory for the given core count (≤ 64).
func New(cores int) (*Directory, error) {
	return NewWithProtocol(cores, MESI)
}

// NewWithProtocol builds a directory running the given protocol variant.
func NewWithProtocol(cores int, p Protocol) (*Directory, error) {
	if cores <= 0 || cores > 64 {
		return nil, fmt.Errorf("coherence: core count %d outside 1..64", cores)
	}
	if p != MESI && p != MSI {
		return nil, fmt.Errorf("coherence: unknown protocol %d", p)
	}
	return &Directory{cores: cores, protocol: p}, nil
}

// Reset zeroes the counters, as in a freshly built directory.
func (d *Directory) Reset() { d.stats = Stats{} }

// Action describes the coherence work an access caused; the machine model
// converts these to latency.
//
// InvalidatedCores aliases a scratch buffer owned by the Directory and is
// only valid until the next Read/Write call; callers must consume it
// immediately (the machine model does) or copy it.
type Action struct {
	// Invalidated is the number of remote copies invalidated.
	Invalidated int
	// InvalidatedCores lists the cores whose copies were invalidated so
	// their private caches can be kept in sync.
	InvalidatedCores []int
	// OwnerWriteback is set when a Modified remote copy had to be written
	// back / forwarded.
	OwnerWriteback bool
	// OwnerCore is the core that held the Modified copy.
	OwnerCore int
	// WasMiss is set when the block was not in the requesting core's state
	// at all (directory read/write miss, as opposed to an upgrade).
	WasMiss bool
	// Upgrade is set when a Shared holder's write required a directory
	// upgrade transaction (always in MSI; in MESI only when the line was
	// genuinely Shared rather than Exclusive).
	Upgrade bool
}

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("coherence: core %d out of range", core))
	}
}

// Read records core's read of the block whose state is e and returns the
// triggered actions.
func (d *Directory) Read(core int, e *Entry) Action {
	d.checkCore(core)
	bit := uint64(1) << uint(core)
	var act Action
	switch e.State {
	case Invalid:
		if d.protocol == MSI {
			e.State = Shared
		} else {
			e.State = Exclusive
		}
		e.Sharers = bit
		act.WasMiss = true
		d.stats.ReadMisses++
	case Shared:
		if e.Sharers&bit == 0 {
			e.Sharers |= bit
			act.WasMiss = true
			d.stats.ReadMisses++
		}
	case Exclusive, Modified:
		if e.Sharers == bit {
			break // silent hit
		}
		if e.State == Modified {
			act.OwnerWriteback = true
			act.OwnerCore = bits.TrailingZeros64(e.Sharers)
			d.stats.OwnerForwards++
		}
		// Owner downgrades to Shared; reader joins.
		e.State = Shared
		e.Sharers |= bit
		act.WasMiss = true
		d.stats.ReadMisses++
	}
	return act
}

// Write records core's write of the block whose state is e and returns the
// triggered actions.
func (d *Directory) Write(core int, e *Entry) Action {
	d.checkCore(core)
	bit := uint64(1) << uint(core)
	var act Action
	switch e.State {
	case Invalid:
		act.WasMiss = true
		d.stats.WriteMisses++
	case Shared:
		// Invalidate all other sharers; upgrade if we were one of them.
		d.invScratch = d.invScratch[:0]
		for s := e.Sharers &^ bit; s != 0; s &= s - 1 {
			act.Invalidated++
			d.invScratch = append(d.invScratch, bits.TrailingZeros64(s))
			d.stats.Invalidations++
		}
		act.InvalidatedCores = d.invScratch
		if e.Sharers&bit != 0 {
			act.Upgrade = true
			d.stats.Upgrades++
		} else {
			act.WasMiss = true
			d.stats.WriteMisses++
		}
	case Exclusive, Modified:
		if e.Sharers == bit {
			break // silent E→M or M hit
		}
		owner := bits.TrailingZeros64(e.Sharers)
		if e.State == Modified {
			act.OwnerWriteback = true
			act.OwnerCore = owner
			d.stats.OwnerForwards++
		}
		act.Invalidated++
		d.invScratch = append(d.invScratch[:0], owner)
		act.InvalidatedCores = d.invScratch
		d.stats.Invalidations++
		act.WasMiss = true
		d.stats.WriteMisses++
	}
	*e = Entry{Sharers: bit, State: Modified}
	return act
}

// Evict removes core's copy of the block whose state is e (L1 eviction or
// back-invalidation). It returns whether the evicted copy was Modified.
func (d *Directory) Evict(core int, e *Entry) (wasModified bool) {
	d.checkCore(core)
	bit := uint64(1) << uint(core)
	switch e.State {
	case Shared:
		e.Sharers &^= bit
		if e.Sharers == 0 {
			*e = Entry{}
		}
	case Exclusive, Modified:
		if e.Sharers == bit {
			wasModified = e.State == Modified
			*e = Entry{}
		}
	}
	return wasModified
}

// Drop removes every core's copy of the block whose state is e (L2
// eviction with inclusion). It returns the cores that held the line so the
// machine can back-invalidate their L1s, and whether a modified copy
// existed. The returned slice aliases a scratch buffer valid until the next
// Drop call.
func (d *Directory) Drop(e *Entry) (holders []int, hadModified bool) {
	if e.State == Invalid {
		return nil, false
	}
	d.holderScratch = d.holderScratch[:0]
	for s := e.Sharers; s != 0; s &= s - 1 {
		d.holderScratch = append(d.holderScratch, bits.TrailingZeros64(s))
	}
	hadModified = e.State == Modified
	*e = Entry{}
	return d.holderScratch, hadModified
}

// CheckInvariants verifies the MESI safety properties of one entry:
// Modified/Exclusive imply exactly one holder (the owner), Shared implies
// at least one holder, Invalid implies none, and every holder is a core of
// this directory. It returns the violation, if any.
func (d *Directory) CheckInvariants(e Entry) error {
	if d.cores < 64 && e.Sharers>>uint(d.cores) != 0 {
		return fmt.Errorf("coherence: sharers %#x name a core outside 0..%d", e.Sharers, d.cores-1)
	}
	holders := bits.OnesCount64(e.Sharers)
	switch e.State {
	case Modified, Exclusive:
		if holders != 1 {
			return fmt.Errorf("coherence: %v with %d holders", e.State, holders)
		}
	case Shared:
		if holders == 0 {
			return fmt.Errorf("coherence: Shared with no holders")
		}
	case Invalid:
		if holders != 0 {
			return fmt.Errorf("coherence: Invalid with %d holders", holders)
		}
	default:
		return fmt.Errorf("coherence: unknown state %d", e.State)
	}
	return nil
}

// Stats returns a copy of the action counters.
func (d *Directory) Stats() Stats { return d.stats }
