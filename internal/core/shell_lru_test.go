package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/copro"
	"repro/internal/copro/vecadd"
	"repro/internal/imu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/vim"
)

// lruStop is a shell gang's state at one return to the OS: everything a
// fault service or a completion reads or that a hit run changes.
type lruStop struct {
	Cycle   int64
	TLB     [8]imu.TLBEntry
	DP      uint32
	IMU     imu.Counters
	ChIMU   [2]imu.Counters
	VIM     vim.Counters
	SessVIM [2]vim.Counters
	CP      [2]copro.CPOut
	IMUOut  [2]copro.IMUOut
}

// runGlobalLRUShell runs two vector adds of different lengths side by side
// in a 2-slot shell gang under GlobalLRU arbitration, each with a home
// partition of three frames on the eight-frame EPXA1, so both demand-page,
// borrow the free frames and then steal each other's least recently used
// one. It checks both sums and returns the state at every return to the OS
// and the shell.
func runGlobalLRUShell(t *testing.T, sched sim.Scheduler) ([]lruStop, *platform.ShellHW) {
	t.Helper()
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGang(board, vim.GlobalLRU, 40_000_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Shell.Eng.SetScheduler(sched)
	img := vecaddImg(t, "EPXA1")
	rng := rand.New(rand.NewSource(23))
	var members [2]*Member
	var outs [2]uint32
	var wants [2][]byte
	for i, n := range []int{1024, 640} {
		mb, err := g.AttachMember(i, img, 3, vim.Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var addrs [3]uint32
		var in [2][]byte
		for j, obj := range []uint8{vecadd.ObjA, vecadd.ObjB, vecadd.ObjC} {
			if addrs[j], err = board.Kern.Alloc(4 * n); err != nil {
				t.Fatal(err)
			}
			dir := vim.Out
			if j < 2 {
				dir = vim.In
				in[j] = make([]byte, 4*n)
				rng.Read(in[j])
				if err := board.Kern.WriteUser(addrs[j], in[j]); err != nil {
					t.Fatal(err)
				}
			}
			if err := mb.Sess.MapObject(obj, addrs[j], uint32(4*n), dir); err != nil {
				t.Fatal(err)
			}
		}
		wants[i] = make([]byte, 4*n)
		for k := 0; k < 4*n; k += 4 {
			sum := binary.LittleEndian.Uint32(in[0][k:]) + binary.LittleEndian.Uint32(in[1][k:])
			binary.LittleEndian.PutUint32(wants[i][k:], sum)
		}
		mb.Params = []uint32{uint32(n)}
		members[i], outs[i] = mb, addrs[2]
	}
	for _, mb := range members {
		if err := g.Launch(mb); err != nil {
			t.Fatal(err)
		}
	}
	snap := func() lruStop {
		s := lruStop{Cycle: g.Shell.Dom.Cycles(), IMU: board.IMU.Count, VIM: g.M.Count}
		for i := range s.TLB {
			s.TLB[i] = board.IMU.Entry(i)
		}
		dp, err := board.DP.Store().ReadBytes(0, board.DP.Size())
		if err != nil {
			t.Fatal(err)
		}
		s.DP = crc32.ChecksumIEEE(dp)
		for i, mb := range members {
			s.ChIMU[i] = board.IMU.ChCounters(i)
			s.SessVIM[i] = mb.Sess.Count
			if p := g.Shell.Slots[i].Port(); p != nil {
				s.CP[i], s.IMUOut[i] = p.CP(), p.IMU()
			}
		}
		return s
	}
	var stops []lruStop
	for left := 2; left > 0; {
		if _, err := g.Shell.RunUntilEvent(1 << 24); err != nil {
			t.Fatal(err)
		}
		stops = append(stops, snap())
		finished, serviced, err := g.ServicePending()
		if err != nil {
			t.Fatal(err)
		}
		if !serviced {
			t.Fatal("interrupt with nothing to service")
		}
		stops = append(stops, snap())
		g.Shell.Step()
		g.Shell.Step()
		for _, mb := range finished {
			if err := g.DetachMember(mb); err != nil {
				t.Fatal(err)
			}
			left--
		}
	}
	for i, want := range wants {
		got, err := board.Kern.ReadUser(outs[i], len(want))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: session %d computed a wrong sum", sched, i)
		}
	}
	return stops, g.Shell
}

// TestShellGangGlobalLRUMatchesLockstep holds a shell gang whose GlobalLRU
// steals compare the LastUse stamps of two channels — stamps that the
// event-driven scheduler's hit runs apply late, after the neighbour has
// moved on — to the lockstep reference at every return to the OS: every
// TLB row, the dual-port RAM, the IMU and VIM counters and both ports'
// bundles. Frames must actually be stolen, the sums must be right, and the
// event-driven run must have slept through hit runs.
func TestShellGangGlobalLRUMatchesLockstep(t *testing.T) {
	ref, _ := runGlobalLRUShell(t, sim.Lockstep)
	got, shell := runGlobalLRUShell(t, sim.EventDriven)
	if len(ref) != len(got) {
		t.Fatalf("%d stops under lockstep, %d event-driven", len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("stop %d diverges:\n lockstep %+v\n event    %+v", i, ref[i], got[i])
		}
	}
	last := ref[len(ref)-1]
	if last.SessVIM[0].Steals == 0 || last.SessVIM[1].Steals == 0 {
		t.Fatalf("steals %d and %d: each session must steal from the other", last.SessVIM[0].Steals, last.SessVIM[1].Steals)
	}
	if shell.SleptEdges() == 0 {
		t.Fatal("no core slept under the event-driven scheduler")
	}
}
