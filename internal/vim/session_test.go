package vim

import (
	"errors"
	"testing"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/platform"
)

// twoSessions builds an EPXA1 board (eight 2 KB frames) carrying two
// sessions of four frames each under the given arbitration policy, with
// the IMU reconfigured to two channels.
func twoSessions(t *testing.T, arb Arbitration) (*platform.Board, *Manager, *Session, *Session) {
	t.Helper()
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	if err := board.IMU.SetChannels(2); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(board.Kern, board.IMU, platform.DPBase, platform.IMURegBase,
		board.DP.PageSize(), arb)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Attach(Config{}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Attach(Config{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return board, m, a, b
}

// fill maps an object covering pages frames of data on s and prepares the
// execution, so the session's partition is fully occupied (one parameter
// frame + data pages).
func fill(t *testing.T, s *Session, obj uint8, pages int) uint32 {
	t.Helper()
	ps := int(s.m.pageSz)
	base, err := s.m.k.Alloc(pages * ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(obj, base, uint32(pages*ps), In); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareExecute(nil); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestAttachPartitioning pins the partition carve and Attach's checks: a
// session needs two frames and a configured IMU channel, and partitions are
// carved first fit in attach order.
func TestAttachPartitioning(t *testing.T) {
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	if err := board.IMU.SetChannels(2); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(board.Kern, board.IMU, platform.DPBase, platform.IMURegBase,
		board.DP.PageSize(), StaticPartition)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(Config{}, 1, 0); !errors.Is(err, ErrPartition) {
		t.Fatalf("one-frame session accepted: %v", err)
	}
	for _, ch := range []int{-1, 2} {
		if _, err := m.Attach(Config{}, 4, ch); !errors.Is(err, ErrPartition) {
			t.Fatalf("session on channel %d of a 2-channel IMU accepted: %v", ch, err)
		}
	}
	a, err := m.Attach(Config{}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := a.Partition(); lo != 0 || hi != 5 {
		t.Fatalf("session A partition = [%d,%d), want [0,5)", lo, hi)
	}
	if _, err := m.Attach(Config{}, 4, 1); !errors.Is(err, ErrPartition) {
		t.Fatalf("overcommitted partition accepted: %v", err)
	}
	b, err := m.Attach(Config{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := b.Partition(); lo != 5 || hi != 8 {
		t.Fatalf("session B partition = [%d,%d), want [5,8)", lo, hi)
	}
	if m.single() {
		t.Fatal("two-session manager reports single")
	}
}

// TestPrepareExecuteConfinedToPartition asserts that a session's initial
// mapping never spills outside its home partition, even when the mapped
// object would fill the whole board.
func TestPrepareExecuteConfinedToPartition(t *testing.T) {
	_, m, a, _ := twoSessions(t, StaticPartition)
	fill(t, a, 1, 12) // 12 pages >> 3 data frames of the partition
	lo, hi := a.Partition()
	for f, fr := range m.Frames() {
		inPart := f >= lo && f < hi
		if fr.Occupied && !inPart {
			t.Fatalf("frame %d outside [%d,%d) occupied by session %d", f, lo, hi, fr.Sess)
		}
		if inPart && !fr.Occupied {
			t.Fatalf("frame %d of the partition left free", f)
		}
	}
	if got := a.Count.PagesLoaded; got != 3 {
		t.Fatalf("pages loaded = %d, want 3 (partition minus parameter frame)", got)
	}
}

// TestStaticExhaustionEvictsOwnFramesOnly asserts the partition-exhaustion
// contract: a session whose partition is full services its faults by
// evicting its own frames only, and the neighbour session's frames and
// stats stay untouched.
func TestStaticExhaustionEvictsOwnFramesOnly(t *testing.T) {
	board, m, a, b := twoSessions(t, StaticPartition)
	fill(t, a, 1, 12)
	fill(t, b, 1, 12)
	framesBefore := m.Frames()

	// Session A faults on a page far beyond its resident set.
	board.IMU.InjectFault(0, 1, 8*2048)
	if err := a.HandleFault(); err != nil {
		t.Fatal(err)
	}
	if a.Count.Faults != 1 || a.Count.Evictions != 1 {
		t.Fatalf("session A counters = %+v, want 1 fault, 1 eviction", a.Count)
	}
	if a.Count.Steals != 0 || m.Count.Steals != 0 {
		t.Fatal("static partitioning stole a frame")
	}
	if b.Count.Evictions != 0 || b.Count.Faults != 0 {
		t.Fatalf("session B was disturbed: %+v", b.Count)
	}
	blo, bhi := b.Partition()
	for f := blo; f < bhi; f++ {
		if m.Frames()[f] != framesBefore[f] {
			t.Fatalf("session B frame %d changed: %+v -> %+v", f, framesBefore[f], m.Frames()[f])
		}
	}
	// The faulted page landed inside A's partition.
	alo, ahi := a.Partition()
	found := false
	for f := alo; f < ahi; f++ {
		if fr := m.Frames()[f]; fr.Occupied && fr.Obj == 1 && fr.VPage == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("faulted page not resident in session A's partition")
	}
}

// TestGlobalLRUStealsColdestNeighbourFrame asserts the stealing path: under
// GlobalLRU arbitration a session whose partition is exhausted takes the
// globally least-recently-used frame from its neighbour, visible in both
// sessions' stats.
func TestGlobalLRUStealsColdestNeighbourFrame(t *testing.T) {
	board, m, a, b := twoSessions(t, GlobalLRU)
	fill(t, a, 1, 12)
	fill(t, b, 1, 12)

	// Stamp A's entries hot and B's cold so the global-LRU arbiter picks
	// B as the victim session (hardware would stamp LastUse on hits).
	for f := 0; f < 8; f++ {
		e := board.IMU.Entry(f)
		if !e.Valid || e.Obj == copro.ParamObj {
			continue
		}
		if e.Sess == 0 {
			e.LastUse = 100 + uint64(f)
		} else {
			e.LastUse = 1 + uint64(f)
		}
		if err := board.IMU.SetEntry(f, e); err != nil {
			t.Fatal(err)
		}
	}

	board.IMU.InjectFault(0, 1, 8*2048)
	if err := a.HandleFault(); err != nil {
		t.Fatal(err)
	}
	if a.Count.Steals != 1 {
		t.Fatalf("session A steals = %d, want 1", a.Count.Steals)
	}
	if b.Count.Evictions != 1 {
		t.Fatalf("session B evictions = %d, want 1 (its frame was stolen)", b.Count.Evictions)
	}
	if a.Count.Evictions != 0 {
		t.Fatalf("session A evictions = %d, want 0", a.Count.Evictions)
	}
	if m.Count.Steals != 1 || m.Count.Evictions != 1 {
		t.Fatalf("aggregate counters = %+v", m.Count)
	}
	// The stolen frame now belongs to A and holds the faulted page.
	blo, bhi := b.Partition()
	stolen := false
	for f := blo; f < bhi; f++ {
		if fr := m.Frames()[f]; fr.Occupied && fr.Sess == 0 && fr.Obj == 1 && fr.VPage == 8 {
			stolen = true
		}
	}
	if !stolen {
		t.Fatal("faulted page not resident on a frame stolen from session B")
	}
	// The shared TLB entry is session-tagged for A.
	for f := blo; f < bhi; f++ {
		e := board.IMU.Entry(f)
		if e.Valid && e.Obj == 1 && e.VPage == 8 && e.Sess != 0 {
			t.Fatalf("stolen frame's TLB entry tagged session %d, want 0", e.Sess)
		}
	}
}

// TestGlobalLRUBorrowsFreeForeignFrames asserts that under GlobalLRU a
// session may claim free frames outside its home partition before
// resorting to eviction.
func TestGlobalLRUBorrowsFreeForeignFrames(t *testing.T) {
	board, m, a, b := twoSessions(t, GlobalLRU)
	fill(t, a, 1, 12) // A full
	// B maps nothing: its data frames stay free.
	if err := b.PrepareExecute(nil); err != nil {
		t.Fatal(err)
	}
	board.IMU.InjectFault(0, 1, 8*2048)
	if err := a.HandleFault(); err != nil {
		t.Fatal(err)
	}
	if a.Count.Evictions != 0 || a.Count.Steals != 0 {
		t.Fatalf("free borrow should not evict or steal: %+v", a.Count)
	}
	blo, bhi := b.Partition()
	found := false
	for f := blo; f < bhi; f++ {
		if fr := m.Frames()[f]; fr.Occupied && fr.Sess == 0 && fr.Obj == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("faulted page not placed on a borrowed free frame")
	}
}

// TestFinishReleasesOnlyOwnFrames asserts that one session's end-of-
// operation flush leaves the neighbour's residency and TLB slice alone.
func TestFinishReleasesOnlyOwnFrames(t *testing.T) {
	board, m, a, b := twoSessions(t, StaticPartition)
	fill(t, a, 1, 2)
	fill(t, b, 1, 2)
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	alo, ahi := a.Partition()
	for f := alo; f < ahi; f++ {
		fr := m.Frames()[f]
		if fr.Occupied && !fr.Pinned {
			t.Fatalf("session A frame %d still occupied after Finish", f)
		}
	}
	blo, bhi := b.Partition()
	occupied := 0
	for f := blo; f < bhi; f++ {
		if m.Frames()[f].Occupied {
			occupied++
		}
	}
	if occupied != 3 { // parameter frame + two data pages
		t.Fatalf("session B occupancy = %d after A's Finish, want 3", occupied)
	}
	for f := blo; f < bhi; f++ {
		if e := board.IMU.Entry(f); e.Valid && e.Sess != 1 {
			t.Fatalf("TLB entry %d lost its session tag: %+v", f, e)
		}
	}
}

// TestArbitrationNames pins the arbitration name parsing and rendering.
func TestArbitrationNames(t *testing.T) {
	if a, ok := NewArbitration(""); !ok || a != StaticPartition {
		t.Fatal("default arbitration is not static")
	}
	if a, ok := NewArbitration("global-lru"); !ok || a != GlobalLRU {
		t.Fatal("global-lru not recognised")
	}
	if _, ok := NewArbitration("optimal"); ok {
		t.Fatal("unknown arbitration accepted")
	}
	if StaticPartition.String() != "static" || GlobalLRU.String() != "global-lru" {
		t.Fatal("arbitration names wrong")
	}
	if imu.MaxChannels < 2 {
		t.Fatal("IMU must support at least two channels for sessions")
	}
}
