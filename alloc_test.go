// Allocation-regression tests: booting even the largest board must not
// zero (or allocate) memory proportional to the simulated SDRAM, and the
// serving loops must not allocate per-job buffers that outlive their use.
package repro_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/rcsched"
)

// TestByteStoreLazyPages asserts that a large store materialises no backing
// pages until written, and only the touched pages afterwards.
func TestByteStoreLazyPages(t *testing.T) {
	s := mem.NewByteStore(256 << 20)
	if got := s.MaterializedBytes(); got != 0 {
		t.Fatalf("fresh 256 MB store materialised %d bytes, want 0", got)
	}
	if v, err := s.Read32(128 << 20); err != nil || v != 0 {
		t.Fatalf("unwritten word = %#x, %v; want 0, nil", v, err)
	}
	if got := s.MaterializedBytes(); got != 0 {
		t.Fatalf("reads materialised %d bytes, want 0", got)
	}
	if err := s.SetByte(200<<20, 0xab); err != nil {
		t.Fatal(err)
	}
	if got := s.MaterializedBytes(); got <= 0 || got >= 1<<20 {
		t.Fatalf("one write materialised %d bytes, want one page (0 < n < 1 MB)", got)
	}
}

// TestNewSystemNoEagerSDRAMZeroing bounds the construction cost of the
// largest board: allocating a System must stay far below the 256 MB of
// simulated SDRAM it models (the seed implementation allocated and zeroed
// the whole array up front).
func TestNewSystemNoEagerSDRAMZeroing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	spec := platform.EPXA10()
	limit := uint64(spec.SDRAMBytes / 8)
	if got := bytesPerOp(t, func() error {
		_, err := repro.NewSystem(repro.Config{Board: "EPXA10"})
		return err
	}); got > limit {
		t.Fatalf("NewSystem(EPXA10) allocates %d B/op, want <= %d (SDRAM is %d)",
			got, limit, spec.SDRAMBytes)
	}
	board, err := platform.NewBoard(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := board.SDRAM.Store().MaterializedBytes(); got != 0 {
		t.Fatalf("fresh EPXA10 board materialised %d SDRAM bytes, want 0", got)
	}
}

// TestNewBoardAllocationBound gates the construction cost of a serving
// board: its memories build no page table and no page until first
// written (a board built its 48 KB SDRAM page table and 32 KB DP RAM page
// eagerly before, ~90 KB/op).
func TestNewBoardAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement in -short mode")
	}
	got := bytesPerOp(t, func() error {
		_, err := platform.NewBoard(platform.EPXA4())
		return err
	})
	const limit = 16 << 10
	if got > limit {
		t.Fatalf("platform.NewBoard(EPXA4) allocates %d B/op, want <= %d", got, limit)
	}
}

// measuredOps is how many calls bytesPerOp averages over.
const measuredOps = 10

// bytesPerOp measures the heap bytes one call of op allocates: the mean
// over measuredOps calls after a first one, which fills the page pool the
// serving loops recycle. Nothing else runs meanwhile: the tests that call
// it are not parallel.
func bytesPerOp(t *testing.T, op func() error) uint64 {
	t.Helper()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measuredOps; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / measuredOps
}

// allocMBPerOp is bytesPerOp in MB, skipped in -short mode and under
// -race, which distorts allocation.
func allocMBPerOp(t *testing.T, op func() error) float64 {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("allocation gate: skipped in -short mode and distorted by -race")
	}
	return float64(bytesPerOp(t, op)) / 1e6
}

// TestServeAllocationBound gates the per-job setup garbage of a serving
// run: job data is drawn once through one reseeded generator and reused
// scratch, outputs are verified in place against inputs read back from
// user memory, and the board's SDRAM and DP RAM pages are recycled (the
// SATURATE cell at 2x knee allocated 1.32 MB/op before that, and ~0.20 MB/op
// while every board built its page tables eagerly).
func TestServeAllocationBound(t *testing.T) {
	jobs, err := exp.SaturateStream(1600)
	if err != nil {
		t.Fatal(err)
	}
	got := allocMBPerOp(t, func() error {
		_, err := rcsched.Serve(rcsched.Config{Policy: "slack", Slots: 2, Admit: rcsched.AdmitReject}, jobs)
		return err
	})
	const limit = 0.20
	if got > limit {
		t.Fatalf("rcsched.Serve(saturate, slack, reject) allocates %.3f MB/op, want <= %.2f", got, limit)
	}
}

// TestFleetAllocationBound gates the same for a four-board affinity fleet,
// where every board runs its own serving loop (4.03 MB/op before, and
// ~0.74 MB/op while every board built its page tables eagerly).
func TestFleetAllocationBound(t *testing.T) {
	jobs, err := exp.FleetStream(4, 800)
	if err != nil {
		t.Fatal(err)
	}
	got := allocMBPerOp(t, func() error {
		_, err := fleet.Run(exp.FleetConfig(fleet.Affinity, 4, rcsched.AdmitOff), jobs)
		return err
	})
	const limit = 0.6
	if got > limit {
		t.Fatalf("fleet.Run(affinity, 4 boards) allocates %.3f MB/op, want <= %.1f", got, limit)
	}
}

// TestSingleRunAllocationBound gates the host allocations of one VIM cell
// through exp.Run on the EPXA1: a fresh system, its process, FPGA_LOAD,
// the object mappings, one FPGA_EXECUTE and the golden check. The bounds
// are the counts measured when a single session still had its own execute
// loop beside the gang's. AllocsPerRun truncates the mean, so it averages
// over 10 calls: over 3, a few stray runtime allocations read as one more.
func TestSingleRunAllocationBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation gate: skipped in -short mode and distorted by -race")
	}
	for _, c := range []struct {
		app   string
		size  int
		limit float64
	}{
		{"idea", 32 << 10, 91},
		{"adpcm", 8 << 10, 86},
		{"vecadd", 64 << 10, 94},
	} {
		run := func() (*core.Report, error) {
			return exp.Run(repro.Config{Board: "EPXA1"}, c.app, "vim", c.size, 4242, nil)
		}
		if _, err := run(); err != nil {
			t.Fatalf("%s: %v", c.app, err)
		}
		got := testing.AllocsPerRun(10, func() { run() })
		if got > c.limit {
			t.Errorf("exp.Run(%s %d KB, vim, EPXA1) allocates %.0f objects/op, want <= %.0f",
				c.app, c.size>>10, got, c.limit)
		}
	}
}
