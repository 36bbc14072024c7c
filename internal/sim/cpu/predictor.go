// Package cpu models the per-core front-end structures whose behaviour
// feeds the evaluation's metrics: a 2-bit saturating-counter branch
// predictor (branch MPKI, %time handling mispredictions) and a data TLB
// (TLB MPKI, avg cycles between TLB misses — Table 1 template 4's example).
package cpu

import "fmt"

// BranchPredictor is a table of 2-bit saturating counters indexed by a PC
// hash — the classic bimodal predictor.
type BranchPredictor struct {
	counters []uint8
	mask     uint64
	stats    BranchStats
}

// BranchStats counts predictor outcomes.
type BranchStats struct {
	Predictions uint64
	Mispredicts uint64
}

// NewBranchPredictor builds a predictor with the given number of counters
// (rounded up to a power of two, minimum 16). Counters start weakly taken.
func NewBranchPredictor(entries int) *BranchPredictor {
	n := 16
	for n < entries {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &BranchPredictor{counters: c, mask: uint64(n - 1)}
}

// Predict consumes the actual outcome of the branch at pc and reports
// whether the predictor mispredicted it, updating the counter.
func (b *BranchPredictor) Predict(pc uint64, taken bool) (mispredict bool) {
	idx := (pc >> 2) & b.mask
	ctr := b.counters[idx]
	predictTaken := ctr >= 2
	mispredict = predictTaken != taken
	if taken && ctr < 3 {
		b.counters[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		b.counters[idx] = ctr - 1
	}
	b.stats.Predictions++
	if mispredict {
		b.stats.Mispredicts++
	}
	return mispredict
}

// Stats returns a copy of the counters.
func (b *BranchPredictor) Stats() BranchStats { return b.stats }

// Reset restores every counter to weakly taken and zeroes the statistics, as
// in a freshly built predictor.
func (b *BranchPredictor) Reset() {
	for i := range b.counters {
		b.counters[i] = 2
	}
	b.stats = BranchStats{}
}

// TLB is a fully associative, true-LRU translation lookaside buffer over
// fixed-size pages. Its entries are one recency-ordered array of page
// numbers, most recently used first: a hit moves the page to the front, a
// miss inserts it there and drops the last (least recently used) page when
// the TLB is full. At the simulated 64 entries a scan of one small array
// beats a map plus a linked list, on hits and on misses alike.
type TLB struct {
	pageBits uint
	pages    []uint64 // resident pages, MRU first; cap is the entry count
	stats    TLBStats
}

// TLBStats counts translation outcomes.
type TLBStats struct {
	Lookups uint64
	Misses  uint64
}

// NewTLB builds a TLB with the given entry count and page size (a power of
// two).
func NewTLB(entries int, pageSize int) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("cpu: non-positive TLB entries %d", entries)
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("cpu: page size %d not a power of two", pageSize)
	}
	bits := uint(0)
	for 1<<bits < pageSize {
		bits++
	}
	return &TLB{pageBits: bits, pages: make([]uint64, 0, entries)}, nil
}

// Lookup translates addr, returning whether it missed. On a miss the page
// is filled, evicting the LRU entry when full.
func (t *TLB) Lookup(addr uint64) (miss bool) {
	page := addr >> t.pageBits
	t.stats.Lookups++
	for i, p := range t.pages {
		if p == page {
			copy(t.pages[1:i+1], t.pages[:i])
			t.pages[0] = page
			return false
		}
	}
	t.stats.Misses++
	if len(t.pages) < cap(t.pages) {
		t.pages = t.pages[:len(t.pages)+1]
	}
	copy(t.pages[1:], t.pages) // shifts out the LRU page when full
	t.pages[0] = page
	return true
}

// Flush empties the TLB (context switch).
func (t *TLB) Flush() { t.pages = t.pages[:0] }

// Stats returns a copy of the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Reset flushes all translations and zeroes the statistics (Flush keeps
// them), matching a freshly built TLB.
func (t *TLB) Reset() {
	t.Flush()
	t.stats = TLBStats{}
}

// Resident returns the number of valid entries.
func (t *TLB) Resident() int { return len(t.pages) }

// Gshare is a global-history branch predictor: the PC hash is XORed with a
// shift register of recent outcomes before indexing the counter table,
// letting it capture correlated branches the bimodal table cannot.
type Gshare struct {
	counters []uint8
	mask     uint64
	history  uint64
	histBits uint
	stats    BranchStats
}

// NewGshare builds a gshare predictor with the given table size (rounded
// up to a power of two, minimum 16) and history length in bits (clamped to
// the index width).
func NewGshare(entries int, historyBits uint) *Gshare {
	n := 16
	for n < entries {
		n <<= 1
	}
	idxBits := uint(0)
	for 1<<idxBits < n {
		idxBits++
	}
	if historyBits > idxBits {
		historyBits = idxBits
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &Gshare{counters: c, mask: uint64(n - 1), histBits: historyBits}
}

// Predict consumes the branch outcome, updating the counters and the
// global history, and reports whether the prediction was wrong.
func (g *Gshare) Predict(pc uint64, taken bool) (mispredict bool) {
	idx := ((pc >> 2) ^ g.history) & g.mask
	ctr := g.counters[idx]
	predictTaken := ctr >= 2
	mispredict = predictTaken != taken
	if taken && ctr < 3 {
		g.counters[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		g.counters[idx] = ctr - 1
	}
	g.history = (g.history << 1) & ((1 << g.histBits) - 1)
	if taken {
		g.history |= 1
	}
	g.stats.Predictions++
	if mispredict {
		g.stats.Mispredicts++
	}
	return mispredict
}

// Stats returns a copy of the counters.
func (g *Gshare) Stats() BranchStats { return g.stats }

// Reset restores the counters to weakly taken and clears the global history
// and statistics, as in a freshly built predictor.
func (g *Gshare) Reset() {
	for i := range g.counters {
		g.counters[i] = 2
	}
	g.history = 0
	g.stats = BranchStats{}
}

// Predictor is the interface both branch predictors satisfy, letting the
// machine select one by configuration.
type Predictor interface {
	Predict(pc uint64, taken bool) bool
	Stats() BranchStats
	// Reset restores the predictor to its freshly built state.
	Reset()
}

// Interface checks.
var (
	_ Predictor = (*BranchPredictor)(nil)
	_ Predictor = (*Gshare)(nil)
)
