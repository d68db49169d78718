package vim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/platform"
)

// rig builds a board plus a manager whose only session, on IMU channel 0,
// spans the whole page pool (the paper's original module), for direct unit
// testing.
func rig(t *testing.T, cfg Config) (*platform.Board, *Session) {
	t.Helper()
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(board.Kern, board.IMU, platform.DPBase, platform.IMURegBase,
		board.DP.PageSize(), StaticPartition)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Attach(cfg, board.DP.Pages(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return board, s
}

func TestMapObjectValidation(t *testing.T) {
	_, s := rig(t, Config{})
	if err := s.MapObject(copro.ParamObj, 0, 16, In); !errors.Is(err, ErrBadObject) {
		t.Fatalf("reserved id accepted: %v", err)
	}
	if err := s.MapObject(1, 0x1000, 0, In); !errors.Is(err, ErrBadObject) {
		t.Fatalf("zero size accepted: %v", err)
	}
	if err := s.MapObject(1, 0x1001, 16, In); !errors.Is(err, ErrBadObject) {
		t.Fatalf("unaligned base accepted: %v", err)
	}
	if err := s.MapObject(1, 0x1000, 16, In); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(1, 0x2000, 16, In); !errors.Is(err, ErrBadObject) {
		t.Fatalf("duplicate id accepted: %v", err)
	}
	s.UnmapAll()
	if err := s.MapObject(1, 0x2000, 16, In); err != nil {
		t.Fatalf("id not released by UnmapAll: %v", err)
	}
}

func TestPrepareExecuteInitialMapping(t *testing.T) {
	board, s := rig(t, Config{})
	ps := int(s.m.PageSize())
	// 2-page input, 2-page output: everything plus the parameter page
	// fits the 8 frames.
	inBase, _ := board.Kern.Alloc(2 * ps)
	outBase, _ := board.Kern.Alloc(2 * ps)
	data := make([]byte, 2*ps)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := board.Kern.WriteUser(inBase, data); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(0, inBase, uint32(2*ps), In); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(1, outBase, uint32(2*ps), Out); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareExecute([]uint32{0xabcd, 42}); err != nil {
		t.Fatal(err)
	}

	// Parameter words sit in frame 0.
	w, _ := board.DP.ReadB(0)
	if w != 0xabcd {
		t.Fatalf("param word 0 = %#x", w)
	}
	// Input pages were loaded; output pages mapped without copies.
	if s.m.Count.PagesLoaded != 2 {
		t.Fatalf("pages loaded = %d, want 2", s.m.Count.PagesLoaded)
	}
	if s.m.Count.LoadsElided != 2 {
		t.Fatalf("loads elided = %d, want 2", s.m.Count.LoadsElided)
	}
	// Input page 0 contents landed in some frame.
	found := false
	for f := 0; f < board.DP.Pages(); f++ {
		page, _ := board.DP.ReadPage(f)
		if page[0] == data[0] && page[1] == data[1] && page[100] == data[100] {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("input page contents not found in any frame")
	}
	// The TLB mirrors the frame table: every occupied frame has a valid
	// entry at its own index.
	for f, fr := range s.m.Frames() {
		e := board.IMU.Entry(f)
		if fr.Occupied != e.Valid {
			t.Fatalf("frame %d occupancy %v but TLB valid %v", f, fr.Occupied, e.Valid)
		}
		if fr.Occupied && int(e.Frame) != f {
			t.Fatalf("entry %d points at frame %d", f, e.Frame)
		}
	}
}

func TestPrepareExecuteRejectsTooManyParams(t *testing.T) {
	_, s := rig(t, Config{})
	params := make([]uint32, int(s.m.PageSize()/4)+1)
	if err := s.PrepareExecute(params); err == nil {
		t.Fatal("oversized parameter list accepted")
	}
}

func TestPrepareExecuteStopsWhenFull(t *testing.T) {
	board, s := rig(t, Config{})
	ps := int(s.m.PageSize())
	// 12 input pages for 7 free frames: initial mapping must stop at
	// capacity and leave the rest for demand paging.
	base, _ := board.Kern.Alloc(12 * ps)
	if err := s.MapObject(0, base, uint32(12*ps), In); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareExecute(nil); err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, fr := range s.m.Frames() {
		if fr.Occupied {
			occupied++
		}
	}
	if occupied != board.DP.Pages() {
		t.Fatalf("occupied frames = %d, want all %d", occupied, board.DP.Pages())
	}
	if s.m.Count.PagesLoaded != uint64(board.DP.Pages()-1) {
		t.Fatalf("pages loaded = %d, want %d", s.m.Count.PagesLoaded, board.DP.Pages()-1)
	}
}

// --- Policy unit tests ---------------------------------------------------

func policyFixture(t *testing.T) (*imu.IMU, []Frame) {
	t.Helper()
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	u := board.IMU
	frames := make([]Frame, 8)
	for i := range frames {
		frames[i] = Frame{Occupied: true, Obj: 0, VPage: uint32(i), LoadSeq: uint64(10 + i)}
		e := imu.TLBEntry{Valid: true, Obj: 0, VPage: uint32(i), Frame: uint8(i), LastUse: uint64(100 + i)}
		if err := u.SetEntry(i, e); err != nil {
			t.Fatal(err)
		}
	}
	return u, frames
}

func TestFIFOVictimIsOldestLoad(t *testing.T) {
	u, frames := policyFixture(t)
	frames[3].LoadSeq = 1 // oldest
	if v := (FIFO{}).Victim(frames, u); v != 3 {
		t.Fatalf("FIFO victim = %d, want 3", v)
	}
}

func TestFIFOSkipsPinnedAndFree(t *testing.T) {
	u, frames := policyFixture(t)
	frames[0].LoadSeq = 1
	frames[0].Pinned = true
	frames[1].LoadSeq = 2
	frames[1].Occupied = false
	frames[2].LoadSeq = 3
	if v := (FIFO{}).Victim(frames, u); v != 2 {
		t.Fatalf("FIFO victim = %d, want 2 (0 pinned, 1 free)", v)
	}
}

func TestLRUVictimIsColdestEntry(t *testing.T) {
	u, frames := policyFixture(t)
	e := u.Entry(5)
	e.LastUse = 1 // coldest
	_ = u.SetEntry(5, e)
	if v := (LRU{}).Victim(frames, u); v != 5 {
		t.Fatalf("LRU victim = %d, want 5", v)
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	u, frames := policyFixture(t)
	// All referenced: the first sweep clears, the second evicts frame 0.
	for i := range frames {
		e := u.Entry(i)
		e.Ref = true
		_ = u.SetEntry(i, e)
	}
	v := (&Clock{}).Victim(frames, u)
	if v != 0 {
		t.Fatalf("clock victim = %d, want 0 after full sweep", v)
	}
	// Ref bits must have been cleared by the sweep.
	for i := range frames {
		if u.Entry(i).Ref && i != v {
			t.Fatalf("entry %d still referenced after sweep", i)
		}
	}
	// Now mark only frame 2 unreferenced-free: hand position continues.
	e := u.Entry(4)
	e.Ref = true
	_ = u.SetEntry(4, e)
	c := &Clock{}
	if v := c.Victim(frames, u); v < 0 {
		t.Fatal("clock found no victim")
	}
}

func TestRandomIsSeededAndEligible(t *testing.T) {
	u, frames := policyFixture(t)
	frames[1].Pinned = true
	r1 := &Random{Rng: rand.New(rand.NewSource(5))}
	r2 := &Random{Rng: rand.New(rand.NewSource(5))}
	for i := 0; i < 32; i++ {
		v1 := r1.Victim(frames, u)
		v2 := r2.Victim(frames, u)
		if v1 != v2 {
			t.Fatal("random policy not reproducible for equal seeds")
		}
		if v1 == 1 {
			t.Fatal("random policy chose a pinned frame")
		}
	}
}

func TestQuickPoliciesNeverPickIneligible(t *testing.T) {
	u, _ := policyFixture(t)
	pols := []Policy{FIFO{}, LRU{}, &Clock{}, &Random{Rng: rand.New(rand.NewSource(1))}}
	f := func(occupancy uint8, pins uint8) bool {
		frames := make([]Frame, 8)
		any := false
		for i := range frames {
			frames[i].Occupied = occupancy&(1<<i) != 0
			frames[i].Pinned = pins&(1<<i) != 0
			frames[i].LoadSeq = uint64(i)
			if frames[i].Occupied && !frames[i].Pinned {
				any = true
			}
		}
		for _, p := range pols {
			v := p.Victim(frames, u)
			if !any {
				if v >= 0 {
					return false
				}
				continue
			}
			if v < 0 || !frames[v].Occupied || frames[v].Pinned {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range []string{"", "fifo", "lru", "clock", "random"} {
		if _, ok := NewPolicy(name, 1); !ok {
			t.Errorf("NewPolicy(%q) failed", name)
		}
	}
	if _, ok := NewPolicy("optimal", 1); ok {
		t.Error("NewPolicy accepted unknown name")
	}
}

func TestDirectionString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("Direction strings wrong")
	}
}

func TestManagerRejectsNilDependencies(t *testing.T) {
	board, _ := rig(t, Config{})
	if _, err := NewManager(nil, board.IMU, platform.DPBase, platform.IMURegBase, 2048, StaticPartition); err == nil {
		t.Fatal("nil kernel accepted")
	}
	if _, err := NewManager(board.Kern, nil, platform.DPBase, platform.IMURegBase, 2048, StaticPartition); err == nil {
		t.Fatal("nil IMU accepted")
	}
}

func TestBounceBufferAllocatedOnce(t *testing.T) {
	_, s := rig(t, Config{BounceBuffer: true})
	if !s.Config().BounceBuffer {
		t.Fatal("bounce flag lost")
	}
	if s.m.bounce == 0 {
		t.Fatal("bounce buffer not allocated")
	}
}

func TestFinishFlushesDirtyPages(t *testing.T) {
	board, s := rig(t, Config{})
	ps := int(s.m.PageSize())
	base, _ := board.Kern.Alloc(ps)
	if err := s.MapObject(3, base, uint32(ps), Out); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareExecute(nil); err != nil {
		t.Fatal(err)
	}
	// Find the frame holding the output page and dirty it through the
	// hardware path (write via port B + dirty bit in the TLB entry).
	var frame int = -1
	for f, fr := range s.m.Frames() {
		if fr.Occupied && !fr.Pinned && fr.Obj == 3 {
			frame = f
		}
	}
	if frame < 0 {
		t.Fatal("output page not mapped by PrepareExecute")
	}
	if err := board.DP.WriteB(uint32(frame*ps), 0xfeedc0de, 0xf); err != nil {
		t.Fatal(err)
	}
	e := board.IMU.Entry(frame)
	e.Dirty = true
	if err := board.IMU.SetEntry(frame, e); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	got, _ := board.Kern.ReadUser(base, 4)
	if got[0] != 0xde || got[1] != 0xc0 {
		t.Fatalf("dirty page not flushed: % x", got)
	}
	if s.m.Count.PagesFlushed != 1 {
		t.Fatalf("PagesFlushed = %d, want 1", s.m.Count.PagesFlushed)
	}
	// All frames released and the TLB cleared.
	for f, fr := range s.m.Frames() {
		if fr.Occupied && !fr.Pinned {
			t.Fatalf("frame %d still occupied after Finish", f)
		}
		if f > 0 && board.IMU.Entry(f).Valid {
			t.Fatalf("TLB entry %d still valid after Finish", f)
		}
	}
}
