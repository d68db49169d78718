package vim

import (
	"errors"
	"testing"
)

// TestDetachInvariants pins the dynamic teardown contract: after Detach the
// session's TLB entries are gone, its frames are free, the survivor is
// untouched, and both the partition and the session slot are reusable by a
// later Attach.
func TestDetachInvariants(t *testing.T) {
	board, m, a, b := twoSessions(t, StaticPartition)
	fill(t, a, 1, 12)
	fill(t, b, 1, 12)
	aFramesBefore := m.Frames()
	blo, bhi := b.Partition()

	if err := m.Detach(b); err != nil {
		t.Fatal(err)
	}
	// Double detach must fail, not corrupt.
	if err := m.Detach(b); !errors.Is(err, ErrPartition) {
		t.Fatalf("double Detach: %v", err)
	}
	// The detached session's TLB entries are gone; the survivor's remain.
	for f := 0; f < board.IMU.Entries(); f++ {
		e := board.IMU.Entry(f)
		if e.Valid && e.Sess == 1 {
			t.Fatalf("TLB entry %d still owned by the detached session: %+v", f, e)
		}
	}
	survivors := 0
	for f := 0; f < board.IMU.Entries(); f++ {
		if e := board.IMU.Entry(f); e.Valid && e.Sess == 0 {
			survivors++
		}
	}
	if survivors == 0 {
		t.Fatal("survivor session lost its TLB entries")
	}
	// The detached partition's frames are free; the survivor's unchanged.
	for f := blo; f < bhi; f++ {
		if m.Frames()[f].Occupied {
			t.Fatalf("frame %d of the detached partition still occupied", f)
		}
	}
	alo, ahi := a.Partition()
	for f := alo; f < ahi; f++ {
		if m.Frames()[f] != aFramesBefore[f] {
			t.Fatalf("survivor frame %d changed across Detach: %+v -> %+v",
				f, aFramesBefore[f], m.Frames()[f])
		}
	}
	if m.single() != true {
		t.Fatal("manager with one survivor does not report single")
	}

	// The freed partition and session slot are reusable: a new session
	// lands on slot 1 over the same frames (first fit) and runs.
	c, err := m.Attach(Config{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := c.Partition(); lo != blo || hi != bhi {
		t.Fatalf("reattached partition [%d,%d), want the freed [%d,%d)", lo, hi, blo, bhi)
	}
	fill(t, c, 1, 12)
	occupied := 0
	for f := blo; f < bhi; f++ {
		if fr := m.Frames()[f]; fr.Occupied && fr.Sess == 1 {
			occupied++
		}
	}
	if occupied != bhi-blo {
		t.Fatalf("reattached session occupies %d of %d reclaimed frames", occupied, bhi-blo)
	}
}

// TestDetachFramesReusableBySurvivor asserts that a survivor can grow into
// the reclaimed frames: under GlobalLRU the freed partition's frames are
// borrowed by the survivor's demand paging.
func TestDetachFramesReusableBySurvivor(t *testing.T) {
	board, m, a, b := twoSessions(t, GlobalLRU)
	fill(t, a, 1, 12)
	fill(t, b, 1, 12)
	if err := m.Detach(b); err != nil {
		t.Fatal(err)
	}
	blo, bhi := b.Partition()

	// The survivor faults on a non-resident page; with its own partition
	// full it must borrow one of the reclaimed free frames instead of
	// evicting its own.
	board.IMU.InjectFault(0, 1, 8*2048)
	if err := a.HandleFault(); err != nil {
		t.Fatal(err)
	}
	if a.Count.Evictions != 0 || a.Count.Steals != 0 {
		t.Fatalf("survivor evicted or stole instead of borrowing a reclaimed frame: %+v", a.Count)
	}
	found := false
	for f := blo; f < bhi; f++ {
		if fr := m.Frames()[f]; fr.Occupied && fr.Sess == 0 && fr.Obj == 1 && fr.VPage == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("faulted page not placed on a reclaimed frame")
	}
}

// TestAttachRespectsBorrowedFrames asserts the carve never claims a frame a
// neighbour has borrowed: the first-fit run skips occupied frames even
// outside any live partition.
func TestAttachRespectsBorrowedFrames(t *testing.T) {
	board, m, a, b := twoSessions(t, GlobalLRU)
	fill(t, a, 1, 12)
	if err := b.PrepareExecute(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Detach(b); err != nil {
		t.Fatal(err)
	}
	// Survivor borrows a reclaimed frame (frame 4, the lowest free one).
	board.IMU.InjectFault(0, 1, 8*2048)
	if err := a.HandleFault(); err != nil {
		t.Fatal(err)
	}
	// A 4-frame attach no longer fits [4,8) — the borrowed frame splits the
	// run — so the attach must fail rather than hand out an occupied frame.
	if _, err := m.Attach(Config{}, 4, 1); !errors.Is(err, ErrPartition) {
		t.Fatalf("attach over a borrowed frame: %v", err)
	}
	// A smaller attach fits behind the borrowed frame.
	c, err := m.Attach(Config{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := c.Partition()
	for f := lo; f < hi; f++ {
		if m.Frames()[f].Occupied {
			t.Fatalf("carved frame %d already occupied", f)
		}
	}
}
