package exp

import (
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/platform"
)

// TestSoftwareSplitsExactlyByMember holds every execution's software time
// to its members' shares: per component, the members' slices sum to the
// board-wide figure, except for SW(OS), which also holds the one syscall
// charge of each member's launch (booked before its service starts). It
// covers the six pinned sessions gangs and single sessions, whose report
// has one member.
func TestSoftwareSplitsExactlyByMember(t *testing.T) {
	check := func(t *testing.T, boardName string, rep *core.Report, members int) {
		t.Helper()
		if len(rep.Sessions) != members {
			t.Fatalf("report has %d sessions, want %d", len(rep.Sessions), members)
		}
		spec, _ := platform.SpecByName(boardName)
		board, err := platform.NewBoard(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := board.Kern.Costs
		syscallPs := float64(c.SyscallEntry+c.SyscallExit) * 1e12 / float64(board.Kern.CPU.FreqHz)
		var dp, imu, os float64
		for _, s := range rep.Sessions {
			dp += s.SWDPPs
			imu += s.SWIMUPs
			os += s.SWOSPs
		}
		os += float64(members) * syscallPs
		for _, c := range []struct {
			name        string
			parts, want float64
		}{
			{"SW(DP)", dp, rep.SWDPPs},
			{"SW(IMU)", imu, rep.SWIMUPs},
			{"SW(OS)", os, rep.SWOSPs},
		} {
			if math.Abs(c.parts-c.want) > 1 {
				t.Errorf("%s: members sum to %.3f ps, report says %.3f ps", c.name, c.parts, c.want)
			}
		}
	}
	for _, arb := range []string{"static", "global-lru"} {
		for _, boardName := range []string{"EPXA1", "EPXA4", "EPXA10"} {
			t.Run(arb+"/"+boardName, func(t *testing.T) {
				spec, _ := platform.SpecByName(boardName)
				frames := spec.DPBytes >> spec.PageLog
				rep, err := SessionsGang(boardName, arb, frames/2, 16384, 8192, 4242)
				if err != nil {
					t.Fatal(err)
				}
				check(t, boardName, rep, 2)
			})
		}
	}
	for _, c := range []struct {
		app  string
		size int
	}{{"idea", 32 << 10}, {"adpcm", 8 << 10}, {"vecadd", 64 << 10}} {
		t.Run("single/"+c.app, func(t *testing.T) {
			rep, err := Run(repro.Config{Board: "EPXA1"}, c.app, "vim", c.size, 4242, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "EPXA1", rep, 1)
		})
	}
}
