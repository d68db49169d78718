package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/copro/vecadd"
	"repro/internal/platform"
	"repro/internal/vim"
)

func vecaddImage(t *testing.T, device string) []byte {
	t.Helper()
	img, err := bitstream.Build(bitstream.Header{
		Device:    device,
		Core:      vecadd.CoreName,
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       1450,
		Payload:   []byte{0xaa, 0xbb},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func newSession(t *testing.T) (*Session, *platform.Board) {
	t.Helper()
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(board, vim.Config{}), board
}

func TestExecuteBeforeLoad(t *testing.T) {
	s, _ := newSession(t)
	if _, err := s.Execute(1); !errors.Is(err, ErrNoBitstream) {
		t.Fatalf("err = %v, want ErrNoBitstream", err)
	}
}

// TestMapObjectBeforeLoad pins FPGA_MAP_OBJECT's order: the VIM session
// exists from FPGA_LOAD to the unload, and a reload starts from a fresh
// session with no objects mapped.
func TestMapObjectBeforeLoad(t *testing.T) {
	s, board := newSession(t)
	a, _ := board.Kern.Alloc(64)
	if err := s.MapObject(vecadd.ObjA, a, 64, vim.In); !errors.Is(err, ErrNoBitstream) {
		t.Fatalf("map before load: err = %v, want ErrNoBitstream", err)
	}
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(vecadd.ObjA, a, 64, vim.In); err != nil {
		t.Fatal(err)
	}
	s.Unload()
	if err := s.MapObject(vecadd.ObjA, a, 64, vim.In); !errors.Is(err, ErrNoBitstream) {
		t.Fatalf("map after unload: err = %v, want ErrNoBitstream", err)
	}
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(vecadd.ObjA, a, 64, vim.In); err != nil {
		t.Fatalf("map after reload: %v", err)
	}
}

func TestDoubleLoadRejected(t *testing.T) {
	s, _ := newSession(t)
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(vecaddImage(t, "EPXA1")); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	s.Unload()
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatalf("reload after unload failed: %v", err)
	}
}

func TestLoadChargesConfigTime(t *testing.T) {
	s, _ := newSession(t)
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	if s.configPs <= 0 {
		t.Fatal("no configuration time accounted")
	}
}

func TestExecuteEndToEndAndRepeated(t *testing.T) {
	s, board := newSession(t)
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	const n = 64
	a, _ := board.Kern.Alloc(4 * n)
	b, _ := board.Kern.Alloc(4 * n)
	c, _ := board.Kern.Alloc(4 * n)
	buf := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(i))
	}
	if err := board.Kern.WriteUser(a, buf); err != nil {
		t.Fatal(err)
	}
	if err := board.Kern.WriteUser(b, buf); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(vecadd.ObjA, a, 4*n, vim.In); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(vecadd.ObjB, b, 4*n, vim.In); err != nil {
		t.Fatal(err)
	}
	if err := s.MapObject(vecadd.ObjC, c, 4*n, vim.Out); err != nil {
		t.Fatal(err)
	}

	// The same session executes repeatedly (the paper: "the coprocessor
	// should be ready and waiting for new execution, if another
	// FPGA_EXECUTE call appears").
	for round := 0; round < 3; round++ {
		rep, err := s.Execute(n)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		out, _ := board.Kern.ReadUser(c, 4*n)
		for i := 0; i < n; i++ {
			got := binary.LittleEndian.Uint32(out[4*i:])
			if got != uint32(2*i) {
				t.Fatalf("round %d: C[%d] = %d, want %d", round, i, got, 2*i)
			}
		}
		if rep.HWPs <= 0 {
			t.Fatalf("round %d: empty HW time", round)
		}
		if rep.App != vecadd.CoreName || rep.Policy != "fifo" || len(rep.Sessions) != 1 {
			t.Fatalf("report app = %q, policy = %q, %d sessions", rep.App, rep.Policy, len(rep.Sessions))
		}
	}
}

func TestExecuteRejectsOutOfBoundsCoprocessor(t *testing.T) {
	s, board := newSession(t)
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	a, _ := board.Kern.Alloc(64)
	b, _ := board.Kern.Alloc(64)
	c, _ := board.Kern.Alloc(64)
	_ = s.MapObject(vecadd.ObjA, a, 64, vim.In)
	_ = s.MapObject(vecadd.ObjB, b, 64, vim.In)
	_ = s.MapObject(vecadd.ObjC, c, 64, vim.Out)
	// 64-byte objects but SIZE says 600 elements: like any paging
	// hardware, bounds are enforced at page granularity, so the run
	// must die on the first access past the mapped page.
	_, err := s.Execute(600)
	if !errors.Is(err, vim.ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestExecuteRejectsUnknownObject(t *testing.T) {
	s, board := newSession(t)
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	// Only A is mapped; the first access to B must be refused.
	a, _ := board.Kern.Alloc(64)
	_ = s.MapObject(vecadd.ObjA, a, 64, vim.In)
	_, err := s.Execute(4)
	if !errors.Is(err, vim.ErrBadObject) {
		t.Fatalf("err = %v, want ErrBadObject", err)
	}
}

func TestWrongDeviceRejected(t *testing.T) {
	s, _ := newSession(t)
	err := s.Load(vecaddImage(t, "EPXA4"))
	if !errors.Is(err, bitstream.ErrWrongDevice) {
		t.Fatalf("err = %v, want ErrWrongDevice", err)
	}
}

func TestReportTotals(t *testing.T) {
	r := &Report{HWPs: 1, SWDPPs: 2, SWIMUPs: 3, SWOSPs: 4}
	if r.TotalPs() != 10 || r.SWPs() != 9 {
		t.Fatal("report arithmetic wrong")
	}
	pure := &Report{PurePs: 42}
	if pure.TotalPs() != 42 {
		t.Fatal("pure report total wrong")
	}
	if r.TotalMs() != 10/1e9 {
		t.Fatal("TotalMs wrong")
	}
}

func TestRunSoftwareReportsTime(t *testing.T) {
	board, err := platform.NewBoard(platform.EPXA1())
	if err != nil {
		t.Fatal(err)
	}
	rep := RunSoftware(board, "noop", func() { board.CPU.AddCycles(1330) })
	if rep.PurePs <= 0 {
		t.Fatal("no time reported")
	}
	if rep.App != "noop" || rep.Board != "EPXA1" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
}

func TestTraceSessionRecordsWaveform(t *testing.T) {
	s, board := newSession(t)
	if _, err := s.TraceSession(); !errors.Is(err, ErrNoBitstream) {
		t.Fatalf("trace before load: err = %v, want ErrNoBitstream", err)
	}
	if err := s.Load(vecaddImage(t, "EPXA1")); err != nil {
		t.Fatal(err)
	}
	rec, err := s.TraceSession()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := board.Kern.Alloc(64)
	b, _ := board.Kern.Alloc(64)
	c, _ := board.Kern.Alloc(64)
	_ = s.MapObject(vecadd.ObjA, a, 64, vim.In)
	_ = s.MapObject(vecadd.ObjB, b, 64, vim.In)
	_ = s.MapObject(vecadd.ObjC, c, 64, vim.Out)
	if _, err := s.Execute(16); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteVCD(&sb, rec); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, sig := range []string{"cp_access", "cp_tlbhit", "cp_start", "cp_fin", "irq_pld"} {
		if !strings.Contains(out, sig) {
			t.Fatalf("VCD missing signal %s", sig)
		}
	}
	if strings.Count(out, "\n") < 100 {
		t.Fatal("VCD suspiciously short for a full run")
	}
}
