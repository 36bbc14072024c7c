package coherence

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// tracked holds a block → Entry table beside a Directory, the way the
// machine holds one Entry per L2 line, and exposes the per-block API the
// tests are phrased in.
type tracked struct {
	*Directory
	blocks map[uint64]*Entry
}

func track(d *Directory) *tracked { return &tracked{Directory: d, blocks: map[uint64]*Entry{}} }

func (tr *tracked) entry(block uint64) *Entry {
	e, ok := tr.blocks[block]
	if !ok {
		e = &Entry{}
		tr.blocks[block] = e
	}
	return e
}

func (tr *tracked) Read(core int, block uint64) Action {
	return tr.Directory.Read(core, tr.entry(block))
}
func (tr *tracked) Write(core int, block uint64) Action {
	return tr.Directory.Write(core, tr.entry(block))
}
func (tr *tracked) Evict(core int, block uint64) bool {
	return tr.Directory.Evict(core, tr.entry(block))
}

func (tr *tracked) DropBlock(block uint64) ([]int, bool) { return tr.Directory.Drop(tr.entry(block)) }

// StateOf returns the block's state and its holders in ascending order.
func (tr *tracked) StateOf(block uint64) (State, []int) {
	e := tr.entry(block)
	var holders []int
	for c := 0; c < 64; c++ {
		if e.Sharers&(1<<uint(c)) != 0 {
			holders = append(holders, c)
		}
	}
	return e.State, holders
}

// TrackedBlocks counts the blocks with directory state.
func (tr *tracked) TrackedBlocks() int {
	n := 0
	for _, e := range tr.blocks {
		if e.State != Invalid {
			n++
		}
	}
	return n
}

// CheckInvariants checks every block's entry.
func (tr *tracked) CheckInvariants() error {
	for block, e := range tr.blocks {
		if err := tr.Directory.CheckInvariants(*e); err != nil {
			return fmt.Errorf("block %#x: %w", block, err)
		}
	}
	return nil
}

func mustNew(t *testing.T, cores int) *tracked {
	t.Helper()
	d, err := New(cores)
	if err != nil {
		t.Fatal(err)
	}
	return track(d)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("0 cores should error")
	}
	if _, err := New(65); err == nil {
		t.Error("65 cores should error")
	}
	if _, err := New(4); err != nil {
		t.Errorf("4 cores should be fine: %v", err)
	}
}

func TestReadExclusiveThenShared(t *testing.T) {
	d := mustNew(t, 4)
	act := d.Read(0, 0x100)
	if !act.WasMiss {
		t.Error("first read should miss")
	}
	if st, holders := d.StateOf(0x100); st != Exclusive || len(holders) != 1 || holders[0] != 0 {
		t.Errorf("after first read: %v %v", st, holders)
	}
	// Second core reads: downgrade to Shared, no writeback (was clean E).
	act = d.Read(1, 0x100)
	if !act.WasMiss || act.OwnerWriteback {
		t.Errorf("E→S on remote read: %+v", act)
	}
	if st, holders := d.StateOf(0x100); st != Shared || len(holders) != 2 {
		t.Errorf("after second read: %v %v", st, holders)
	}
	// Re-read by a sharer is silent.
	act = d.Read(0, 0x100)
	if act.WasMiss {
		t.Error("sharer re-read should be silent")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := mustNew(t, 4)
	d.Read(0, 0x200)
	d.Read(1, 0x200)
	d.Read(2, 0x200)
	act := d.Write(1, 0x200)
	if act.Invalidated != 2 {
		t.Errorf("upgrade should invalidate 2 sharers, got %d", act.Invalidated)
	}
	if act.WasMiss {
		t.Error("upgrade by a sharer is not a directory miss")
	}
	if st, holders := d.StateOf(0x200); st != Modified || len(holders) != 1 || holders[0] != 1 {
		t.Errorf("after upgrade: %v %v", st, holders)
	}
	if d.Stats().Upgrades != 1 {
		t.Errorf("upgrade count %d", d.Stats().Upgrades)
	}
}

func TestWriteAfterRemoteModified(t *testing.T) {
	d := mustNew(t, 4)
	d.Write(0, 0x300)
	act := d.Write(1, 0x300)
	if !act.OwnerWriteback || act.OwnerCore != 0 {
		t.Errorf("M→M migration should write back the owner: %+v", act)
	}
	if act.Invalidated != 1 {
		t.Errorf("old owner should be invalidated: %+v", act)
	}
	if st, holders := d.StateOf(0x300); st != Modified || holders[0] != 1 {
		t.Errorf("after migration: %v %v", st, holders)
	}
}

func TestReadAfterRemoteModified(t *testing.T) {
	d := mustNew(t, 2)
	d.Write(0, 0x400)
	act := d.Read(1, 0x400)
	if !act.OwnerWriteback || act.OwnerCore != 0 {
		t.Errorf("M→S should write back: %+v", act)
	}
	if st, holders := d.StateOf(0x400); st != Shared || len(holders) != 2 {
		t.Errorf("after M→S: %v %v", st, holders)
	}
}

func TestSilentUpgradesAndHits(t *testing.T) {
	d := mustNew(t, 2)
	d.Read(0, 0x500) // E
	act := d.Write(0, 0x500)
	if act.WasMiss || act.Invalidated != 0 || act.OwnerWriteback {
		t.Errorf("silent E→M should cost nothing: %+v", act)
	}
	act = d.Write(0, 0x500)
	if act.WasMiss {
		t.Error("M hit should be silent")
	}
	act = d.Read(0, 0x500)
	if act.WasMiss {
		t.Error("owner read hit should be silent")
	}
}

func TestEvict(t *testing.T) {
	d := mustNew(t, 2)
	d.Write(0, 0x600)
	if !d.Evict(0, 0x600) {
		t.Error("evicting a Modified copy should report modified")
	}
	if st, _ := d.StateOf(0x600); st != Invalid {
		t.Errorf("block should be untracked after owner eviction, got %v", st)
	}
	// Sharer eviction leaves the other sharer.
	d.Read(0, 0x700)
	d.Read(1, 0x700)
	if d.Evict(0, 0x700) {
		t.Error("evicting a Shared copy is not modified")
	}
	if st, holders := d.StateOf(0x700); st != Shared || len(holders) != 1 || holders[0] != 1 {
		t.Errorf("after sharer eviction: %v %v", st, holders)
	}
	if d.Evict(3-2, 0x700); d.TrackedBlocks() != 0 {
		t.Error("last sharer eviction should untrack the block")
	}
	if d.Evict(0, 0xDEAD) {
		t.Error("evicting an untracked block is a no-op")
	}
}

func TestDropBlock(t *testing.T) {
	d := mustNew(t, 4)
	d.Read(0, 0x800)
	d.Read(2, 0x800)
	holders, hadMod := d.DropBlock(0x800)
	if len(holders) != 2 || hadMod {
		t.Errorf("DropBlock = %v, %v", holders, hadMod)
	}
	if d.TrackedBlocks() != 0 {
		t.Error("block should be gone")
	}
	d.Write(1, 0x900)
	holders, hadMod = d.DropBlock(0x900)
	if len(holders) != 1 || holders[0] != 1 || !hadMod {
		t.Errorf("DropBlock of modified = %v, %v", holders, hadMod)
	}
	if h, m := d.DropBlock(0xAAA); h != nil || m {
		t.Error("dropping untracked block should be empty")
	}
}

// MESI safety invariants hold under arbitrary interleaved traffic — the
// model-checking-style property test.
func TestInvariantsUnderRandomTrafficProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d, err := New(4)
		if err != nil {
			return false
		}
		tr := track(d)
		r := randx.New(seed)
		for i := 0; i < 3000; i++ {
			core := r.Intn(4)
			block := uint64(r.Intn(32)) * 64 // small block pool to force sharing
			switch r.Intn(4) {
			case 0:
				tr.Read(core, block)
			case 1:
				tr.Write(core, block)
			case 2:
				tr.Evict(core, block)
			case 3:
				tr.DropBlock(block)
			}
			if tr.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCheckCorePanics(t *testing.T) {
	d := mustNew(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core should panic")
		}
	}()
	d.Read(5, 0x100)
}

func TestMSIProtocolNoExclusive(t *testing.T) {
	msi, err := NewWithProtocol(2, MSI)
	if err != nil {
		t.Fatal(err)
	}
	d := track(msi)
	d.Read(0, 0x100)
	if st, holders := d.StateOf(0x100); st != Shared || len(holders) != 1 {
		t.Errorf("MSI sole read should be Shared: %v %v", st, holders)
	}
	// A write by the sole sharer pays an upgrade in MSI.
	act := d.Write(0, 0x100)
	if !act.Upgrade || act.WasMiss || act.Invalidated != 0 {
		t.Errorf("MSI sole-sharer write should be a pure upgrade: %+v", act)
	}
	if d.Stats().Upgrades != 1 {
		t.Errorf("upgrade count %d", d.Stats().Upgrades)
	}
	// The same sequence in MESI is silent.
	mesi, _ := New(2)
	m := track(mesi)
	m.Read(0, 0x100)
	actMESI := m.Write(0, 0x100)
	if actMESI.Upgrade || actMESI.WasMiss {
		t.Errorf("MESI E→M should be silent: %+v", actMESI)
	}
	if _, err := NewWithProtocol(2, Protocol(9)); err == nil {
		t.Error("unknown protocol should error")
	}
	if MSI.String() != "MSI" || MESI.String() != "MESI" {
		t.Error("protocol names wrong")
	}
}

func TestMSIInvariantsUnderTraffic(t *testing.T) {
	msi, err := NewWithProtocol(4, MSI)
	if err != nil {
		t.Fatal(err)
	}
	d := track(msi)
	r := randx.New(77)
	for i := 0; i < 2000; i++ {
		core := r.Intn(4)
		block := uint64(r.Intn(24)) * 64
		switch r.Intn(3) {
		case 0:
			d.Read(core, block)
		case 1:
			d.Write(core, block)
		case 2:
			d.Evict(core, block)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckInvariantsRejectsBadEntries(t *testing.T) {
	d := mustNew(t, 4)
	for _, e := range []Entry{
		{State: Modified, Sharers: 0b11},
		{State: Exclusive},
		{State: Shared},
		{State: Invalid, Sharers: 0b1},
		{State: Shared, Sharers: 1 << 4}, // core 4 of a 4-core directory
		{State: State(7), Sharers: 0b1},
	} {
		if d.Directory.CheckInvariants(e) == nil {
			t.Errorf("entry %+v should violate the invariants", e)
		}
	}
	for _, e := range []Entry{{}, {State: Shared, Sharers: 0b1010}, {State: Modified, Sharers: 0b1000}} {
		if err := d.Directory.CheckInvariants(e); err != nil {
			t.Errorf("entry %+v: %v", e, err)
		}
	}
}
