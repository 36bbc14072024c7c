// Package cache implements the set-associative caches of the simulated
// memory hierarchy (Table 2 of the paper): per-core L1 instruction and data
// caches and a shared inclusive L2, all with 64-byte blocks. Replacement is
// true-LRU by default, with FIFO and (deterministic) random policies
// available for the replacement ablation.
package cache

import (
	"errors"
	"fmt"
)

// Policy selects a replacement policy.
type Policy int

const (
	// LRU evicts the least recently used way (the default).
	LRU Policy = iota
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
	// Random evicts a pseudo-random way, deterministically derived from
	// the access sequence so simulations stay replicable.
	Random
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	default:
		return "lru"
	}
}

// Line state packs into one tag word per way: the tag above tagShift, then
// the dirty and valid flags. A hit test is then a single compare of the word
// (dirty flag masked off) against the wanted tag with the valid flag set.
// The flags take the tag's top two bits, which a block of 4 bytes or more
// always leaves clear.
const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
	tagShift  = 2
)

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative, write-back cache. Line state is held in two
// parallel arrays indexed by slot (set × ways + way), so a caller can keep
// per-line state of its own in arrays of the same length (see Access).
type Cache struct {
	name      string
	sets      int
	ways      int
	blockBits uint
	// setShift/setMask enable the shift-and-mask index fast path when the
	// set count is a power of two (every Table 2 cache except the 3 MB L2);
	// setMask == 0 selects the general modulo path.
	setShift uint
	setMask  uint64
	policy   Policy
	tags     []uint64 // packed tag and flags per slot; zero is an invalid line
	// stamps is the per-slot logical clock of the last fill (and, under
	// LRU, the last hit): larger means more recent.
	stamps   []uint64
	clock    uint64
	rngState uint64 // xorshift state for the Random policy
	stats    Stats
}

// initialRNGState seeds the deterministic xorshift stream of the Random
// replacement policy; Reset restores it so a reused cache replays the same
// victim sequence as a freshly built one.
const initialRNGState = 0x9E3779B97F4A7C15

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	BlockSize int
	// Policy selects the replacement policy (default LRU).
	Policy Policy
}

// New builds a cache. Size, associativity, and block size must be positive
// powers of two with Size = sets × ways × block.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockSize <= 0 {
		return nil, errors.New("cache: non-positive geometry")
	}
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("cache: block size %d not a power of two", cfg.BlockSize)
	}
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockSize {
		blockBits++
	}
	rows := cfg.SizeBytes / cfg.BlockSize
	if rows%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: %d blocks not divisible by %d ways", rows, cfg.Ways)
	}
	sets := rows / cfg.Ways
	if sets == 0 {
		return nil, fmt.Errorf("cache: zero sets (size %d too small for %d ways)", cfg.SizeBytes, cfg.Ways)
	}
	// Sets need not be a power of two (Table 2's 3MB/16-way L2 has 3072);
	// indexing uses modulo, as Ruby does for such geometries.
	if cfg.Policy < LRU || cfg.Policy > Random {
		return nil, fmt.Errorf("cache: unknown replacement policy %d", cfg.Policy)
	}
	c := &Cache{
		name:      cfg.Name,
		sets:      sets,
		ways:      cfg.Ways,
		blockBits: blockBits,
		policy:    cfg.Policy,
		tags:      make([]uint64, sets*cfg.Ways),
		stamps:    make([]uint64, sets*cfg.Ways),
		rngState:  initialRNGState,
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
		for 1<<c.setShift < sets {
			c.setShift++
		}
	}
	return c, nil
}

// Reset returns the cache to its post-New state — every line invalid, the
// LRU clock and the Random-policy stream at their initial values, all
// counters zero — without reallocating the line arrays. It exists so a
// pooled simulation runner can reuse the multi-megabyte line arrays across
// runs while staying bit-identical to a freshly constructed cache.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamps)
	c.clock = 0
	c.rngState = initialRNGState
	c.stats = Stats{}
}

// BlockAddr returns the block-aligned address (tag+set) for addr.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr >> c.blockBits << c.blockBits }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.blockBits
	if c.setMask != 0 {
		// Power-of-two set count: identical (set, tag) to the modulo path,
		// computed with a mask and a shift.
		return int(blk & c.setMask), blk >> c.setShift
	}
	return int(blk % uint64(c.sets)), blk / uint64(c.sets)
}

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	Hit bool
	// Slot is the line now holding the accessed block: the hit way, or the
	// way the miss filled. On a miss it is also the displaced line's slot.
	Slot int
	// Evicted is set when a valid line was displaced to make room.
	Evicted bool
	// EvictedAddr is the block address of the displaced line.
	EvictedAddr uint64
	// Writeback is set when the displaced line was dirty.
	Writeback bool
}

// Access looks up addr, allocating on miss (displacing the LRU way), and
// marks the line dirty on writes. It returns what happened so the caller
// can model latency, inclusion, and coherence.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	set, tag := c.index(addr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways : base+c.ways]
	stamps := c.stamps[base : base+c.ways : base+c.ways]
	c.clock++
	want := tag<<tagShift | lineValid

	// One pass over the set serves both hit detection and victim
	// pre-selection (first invalid way, else the smallest stamp for LRU and
	// FIFO — FIFO never refreshes stamps on hits), so the miss path does
	// not rescan.
	victim := -1
	minIdx := -1
	var oldest uint64 = ^uint64(0)
	for w, t := range tags {
		if t&^lineDirty == want {
			if c.policy == LRU {
				stamps[w] = c.clock
			}
			if write {
				tags[w] = t | lineDirty
			}
			c.stats.Hits++
			return AccessResult{Hit: true, Slot: base + w}
		}
		if t&lineValid != 0 {
			if stamps[w] < oldest {
				oldest = stamps[w]
				minIdx = w
			}
		} else if victim == -1 {
			victim = w
		}
	}
	if victim == -1 {
		if c.policy == Random {
			// xorshift64*: deterministic, independent of map ordering.
			c.rngState ^= c.rngState << 13
			c.rngState ^= c.rngState >> 7
			c.rngState ^= c.rngState << 17
			victim = int(c.rngState % uint64(c.ways))
		} else {
			victim = minIdx
		}
	}
	res := AccessResult{Slot: base + victim}
	if old := tags[victim]; old&lineValid != 0 {
		res.Evicted = true
		res.EvictedAddr = c.reconstruct(set, old>>tagShift)
		if old&lineDirty != 0 {
			res.Writeback = true
			c.stats.Writebacks++
		}
		c.stats.Evictions++
	}
	tags[victim] = want
	if write {
		tags[victim] |= lineDirty
	}
	stamps[victim] = c.clock
	c.stats.Misses++
	return res
}

// reconstruct rebuilds a block address from set and tag.
func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) << c.blockBits
}

// Slot returns the slot of addr's block, or -1 when it is not resident,
// without touching replacement state or statistics.
func (c *Cache) Slot(addr uint64) int {
	set, tag := c.index(addr)
	base := set * c.ways
	want := tag<<tagShift | lineValid
	for w, t := range c.tags[base : base+c.ways] {
		if t&^lineDirty == want {
			return base + w
		}
	}
	return -1
}

// Invalidate drops addr's block if resident, returning whether it was dirty
// (the caller models the writeback). Used for coherence invalidations and
// L2-inclusion back-invalidations.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	slot := c.Slot(addr)
	if slot < 0 {
		return false, false
	}
	dirty = c.tags[slot]&lineDirty != 0
	c.tags[slot] = 0
	return true, dirty
}

// FlushRatio invalidates roughly the given fraction of resident lines
// (deterministically: every k-th valid line), modeling the cold-cache effect
// of a context switch or migration. It returns the number of lines dropped.
func (c *Cache) FlushRatio(ratio float64) int {
	if ratio <= 0 {
		return 0
	}
	if ratio >= 1 {
		ratio = 1
	}
	stride := int(1 / ratio)
	if stride < 1 {
		stride = 1
	}
	dropped, seen := 0, 0
	for i, t := range c.tags {
		if t&lineValid == 0 {
			continue
		}
		if seen%stride == 0 {
			c.tags[i] = 0
			dropped++
		}
		seen++
	}
	return dropped
}

// Lines returns the number of line slots (sets × ways).
func (c *Cache) Lines() int { return len(c.tags) }

// Block returns the block address held in slot and whether the line is
// valid. It exists for invariant checks (e.g. verifying L2 inclusion) and
// does not touch replacement state or statistics.
func (c *Cache) Block(slot int) (block uint64, valid bool) {
	t := c.tags[slot]
	return c.reconstruct(slot/c.ways, t>>tagShift), t&lineValid != 0
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets and Ways expose geometry for tests.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
