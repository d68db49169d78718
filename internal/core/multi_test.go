package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/copro/vecadd"
	"repro/internal/platform"
	"repro/internal/vim"
)

// vecaddImg builds a vector-add bitstream for the test board (core and IMU
// at 40 MHz, like the production image).
func vecaddImg(t *testing.T, board string) []byte {
	t.Helper()
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	img, err := bitstream.Build(bitstream.Header{
		Device:    board,
		Core:      vecadd.CoreName,
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       1024,
		Payload:   payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestGangTwoVecAdds runs two vector-add sessions concurrently in a
// two-slot shell behind one VIM on the EPXA1 (four frames each, objects
// exceeding the partitions so both sessions demand-page), and verifies both
// results.
func TestGangTwoVecAdds(t *testing.T) {
	const n = 1024 // elements: 3 x 4 KB objects per session, 2 pages each
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGang(board, vim.StaticPartition, 40_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	img := vecaddImg(t, "EPXA1")
	var members [2]*Member
	var outs [2]uint32
	var wants [2][]uint32
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2; i++ {
		mb, err := g.AttachMember(i, img, 4, vim.Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := board.Kern.Alloc(4 * n)
		b, _ := board.Kern.Alloc(4 * n)
		c, _ := board.Kern.Alloc(4 * n)
		av := make([]uint32, n)
		bv := make([]uint32, n)
		want := make([]uint32, n)
		buf := make([]byte, 4*n)
		for j := 0; j < n; j++ {
			av[j] = rng.Uint32()
			bv[j] = rng.Uint32()
			want[j] = av[j] + bv[j]
		}
		for j, v := range av {
			binary.LittleEndian.PutUint32(buf[4*j:], v)
		}
		if err := board.Kern.WriteUser(a, buf); err != nil {
			t.Fatal(err)
		}
		for j, v := range bv {
			binary.LittleEndian.PutUint32(buf[4*j:], v)
		}
		if err := board.Kern.WriteUser(b, buf); err != nil {
			t.Fatal(err)
		}
		if err := mb.Sess.MapObject(vecadd.ObjA, a, 4*n, vim.In); err != nil {
			t.Fatal(err)
		}
		if err := mb.Sess.MapObject(vecadd.ObjB, b, 4*n, vim.In); err != nil {
			t.Fatal(err)
		}
		if err := mb.Sess.MapObject(vecadd.ObjC, c, 4*n, vim.Out); err != nil {
			t.Fatal(err)
		}
		mb.Params = []uint32{n}
		members[i] = mb
		outs[i] = c
		wants[i] = want
	}
	rep, err := g.ExecuteAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := board.Kern.ReadUser(outs[i], 4*n)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if v := binary.LittleEndian.Uint32(got[4*j:]); v != wants[i][j] {
				t.Fatalf("session %d element %d = %#x, want %#x", i, j, v, wants[i][j])
			}
		}
	}
	if len(rep.Sessions) != 2 {
		t.Fatalf("report carries %d sessions, want 2", len(rep.Sessions))
	}
	for i, s := range rep.Sessions {
		if s.VIM.Faults == 0 {
			t.Errorf("session %d had no faults; objects should exceed its partition", i)
		}
		if s.DonePs <= 0 {
			t.Errorf("session %d has no completion time", i)
		}
	}
	if rep.VIM.Faults != rep.Sessions[0].VIM.Faults+rep.Sessions[1].VIM.Faults {
		t.Error("aggregate faults do not sum the per-session faults")
	}
	if rep.TotalPs() <= 0 {
		t.Error("gang total time not positive")
	}
	// A second ExecuteAll on the same gang must start clean.
	rep2, err := g.ExecuteAll()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TotalPs() != rep.TotalPs() {
		t.Errorf("second run drifted: %v != %v", rep2.TotalPs(), rep.TotalPs())
	}
}

// TestGangConstructionErrors pins the gang construction contract: an empty
// gang does not execute, and a one-frame member or a core clock that does
// not divide the shell clock is rejected without taking the slot.
func TestGangConstructionErrors(t *testing.T) {
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGang(board, vim.GlobalLRU, 40_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ExecuteAll(); err == nil {
		t.Fatal("executed an empty gang")
	}
	img := vecaddImg(t, "EPXA1")
	if _, err := g.AttachMember(0, img, 1, vim.Config{}, 0); err == nil {
		t.Fatal("accepted a one-frame member")
	}
	for _, hz := range []int64{-1, 30_000_000, 80_000_000} {
		if _, err := g.AttachMember(0, img, 4, vim.Config{}, hz); err == nil {
			t.Fatalf("accepted a %d Hz core on a 40 MHz shell", hz)
		}
	}
	if _, err := g.AttachMember(0, img, 4, vim.Config{}, 10_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestShellGangStaging pins the staging contract: BeginStage
// parks an instantiated coprocessor in a slot's staging buffer without
// disturbing the resident core, CommitStage swaps it in (so a following
// AttachMember reuses it with zero configuration traffic), CancelStage
// discards it, and every misuse path errors.
func TestShellGangStaging(t *testing.T) {
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGang(board, vim.StaticPartition, 24_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	img := vecaddImg(t, "EPXA1")

	// Staging on a bare slot works and is visible to the slot.
	if err := g.BeginStage(0, img); err != nil {
		t.Fatal(err)
	}
	if got := g.Shell.Slots[0].Staged(); got != vecadd.CoreName {
		t.Fatalf("staged = %q, want %q", got, vecadd.CoreName)
	}
	// A second stage on the same slot is rejected (one buffer per slot).
	if err := g.BeginStage(0, img); err == nil {
		t.Fatal("double-staged a slot")
	}
	if err := g.BeginStage(7, img); err == nil {
		t.Fatal("staged an out-of-range slot")
	}
	if err := g.CommitStage(7); err == nil {
		t.Fatal("committed an out-of-range slot")
	}
	if err := g.CancelStage(-1); err == nil {
		t.Fatal("cancelled an out-of-range slot")
	}

	// Commit makes the staged core resident; AttachMember then takes the
	// zero-config affinity path and reuses it.
	if err := g.CommitStage(0); err != nil {
		t.Fatal(err)
	}
	if got := g.Shell.Slots[0].Resident(); got != vecadd.CoreName {
		t.Fatalf("resident after commit = %q, want %q", got, vecadd.CoreName)
	}
	resident := g.Shell.Slots[0].Core()
	mb, err := g.AttachMember(0, img, 4, vim.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shell.Slots[0].Core() != resident {
		t.Fatal("AttachMember re-instantiated a core the commit had just configured")
	}

	// Committing with an occupied slot or an empty buffer errors; cancel
	// needs something staged.
	if err := g.CommitStage(0); err == nil {
		t.Fatal("committed into an occupied slot with nothing staged")
	}
	if err := g.BeginStage(0, img); err != nil {
		t.Fatal(err) // staging behind a live member is the whole point
	}
	if err := g.CommitStage(0); err == nil {
		t.Fatal("committed while the slot's member still runs")
	}
	if err := g.CancelStage(0); err != nil {
		t.Fatal(err)
	}
	if err := g.CancelStage(0); err == nil {
		t.Fatal("cancelled an empty staging buffer")
	}
	if g.Shell.Slots[0].Core() != resident || g.Shell.Slots[0].Resident() != vecadd.CoreName {
		t.Fatal("stage/cancel churn disturbed the resident core")
	}
	if err := g.DetachMember(mb); err != nil {
		t.Fatal(err)
	}
}

// TestBeginReconfigRejectsBadSlot pins BeginReconfig's slot check: like
// AttachMember and the staging calls, an index outside the shell is an
// error, not a panic, and a valid empty slot still reconfigures.
func TestBeginReconfigRejectsBadSlot(t *testing.T) {
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGang(board, vim.StaticPartition, 24_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{-1, 2, 5} {
		err := g.BeginReconfig(slot)
		want := fmt.Sprintf("core: slot %d out of range [0,2)", slot)
		if err == nil || err.Error() != want {
			t.Errorf("BeginReconfig(%d) = %v, want %q", slot, err, want)
		}
	}
	if err := g.BeginReconfig(1); err != nil {
		t.Fatalf("BeginReconfig on an empty slot: %v", err)
	}
}
