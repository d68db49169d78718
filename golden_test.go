// Golden determinism tests: the simulator's measured results are part of its
// contract. These tables were captured from the seed implementation (eager
// flat memory, cross-multiplied scheduler, no fast paths) and every value is
// compared exactly — the allocation-free kernel, the sparse memory model and
// the idle bulk-skip must reproduce the seed's simulated metrics bit for
// bit, not merely approximately.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/imu"
	"repro/internal/platform"
	"repro/internal/vim"
)

// eq compares a float64 metric for exact (bitwise) equality.
func eq(t *testing.T, what string, got, want float64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %v, want exactly %v", what, got, want)
	}
}

// TestGoldenFig3 pins the three execution times of the motivating example.
func TestGoldenFig3(t *testing.T) {
	res, err := exp.RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "fig3 sw_ms", res.Series["sw_ms"], 5.012135338345864)
	eq(t, "fig3 typ_ms", res.Series["typ_ms"], 2.6853947368421047)
	eq(t, "fig3 vim_ms", res.Series["vim_ms"], 3.079047932330827)
}

// TestGoldenFig7 pins the 4-cycle translated read latency.
func TestGoldenFig7(t *testing.T) {
	res, err := exp.RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "fig7 latency_cycles", res.Series["latency_cycles"], 4)
	eq(t, "fig7 read_value_ok", res.Series["read_value_ok"], 1)
}

// TestGoldenFig8 pins the 8 KB adpcmdecode VIM run (the benchmarked cell).
func TestGoldenFig8(t *testing.T) {
	rep, err := exp.Run(repro.Config{}, "adpcm", "vim", 8192, 800+8192, nil)
	if err != nil {
		t.Fatal(err)
	}
	eq(t, "fig8 8KB total_ps", rep.TotalPs(), 1.1130160714285715e+10)
	if rep.VIM.Faults != 16 {
		t.Errorf("fig8 8KB faults = %d, want 16", rep.VIM.Faults)
	}
}

// goldenCell is the pinned measurement record of one experiment cell.
type goldenCell struct {
	TotalPs float64 `json:"total_ps"`
	HWPs    float64 `json:"hw_ps"`
	SWDPPs  float64 `json:"swdp_ps"`
	SWIMUPs float64 `json:"swimu_ps"`
	SWOSPs  float64 `json:"swos_ps"`
	Faults  uint64  `json:"faults"`
	HWCy    int64   `json:"hw_cy"`
}

func cellOf(rep *core.Report) goldenCell {
	return goldenCell{
		TotalPs: rep.TotalPs(),
		HWPs:    rep.HWPs,
		SWDPPs:  rep.SWDPPs,
		SWIMUPs: rep.SWIMUPs,
		SWOSPs:  rep.SWOSPs,
		Faults:  rep.VIM.Faults,
		HWCy:    rep.HWCy,
	}
}

// goldenCellSpec enumerates every policy × board × workload cell of the
// repro.go experiment space. Dataset sizes are chosen to exceed every
// board's dual-port RAM so the replacement policy actually decides.
type goldenCellSpec struct {
	policy, board, workload string
}

func allGoldenCells() []goldenCellSpec {
	var cells []goldenCellSpec
	for _, policy := range []string{"fifo", "lru", "clock", "random"} {
		for _, board := range []string{"EPXA1", "EPXA4", "EPXA10"} {
			for _, workload := range []string{"vecadd", "adpcm", "idea"} {
				cells = append(cells, goldenCellSpec{policy, board, workload})
			}
		}
	}
	// The multi-coprocessor sessions cells: concurrent IDEA+ADPCM behind
	// one VIM, half the page pool each, under both arbitration policies
	// (the policy column carries the arbitration name).
	for _, arb := range []string{"static", "global-lru"} {
		for _, board := range []string{"EPXA1", "EPXA4", "EPXA10"} {
			cells = append(cells, goldenCellSpec{arb, board, "sessions"})
		}
	}
	return cells
}

func (c goldenCellSpec) name() string {
	return fmt.Sprintf("%s/%s/%s", c.workload, c.board, c.policy)
}

func (c goldenCellSpec) run() (*core.Report, error) {
	cfg := repro.Config{Board: c.board, Policy: c.policy, Seed: 4242}
	switch c.workload {
	case "vecadd":
		return exp.Run(cfg, "vecadd", "vim", 4*16384, 4242, nil) // 3 × 64 KB objects
	case "adpcm":
		return exp.Run(cfg, "adpcm", "vim", 8192, 4242, nil) // 8 KB in, 32 KB out
	case "idea":
		return exp.Run(cfg, "idea", "vim", 32768, 4242, nil) // 32 KB in and out
	case "sessions":
		// Concurrent IDEA+ADPCM gang, half the frames each; the policy
		// column names the inter-session arbitration.
		spec, ok := platform.SpecByName(c.board)
		if !ok {
			return nil, fmt.Errorf("unknown board %q", c.board)
		}
		frames := spec.DPBytes >> spec.PageLog
		rep, err := exp.SessionsGang(c.board, c.policy, frames/2, 16384, 8192, 4242)
		if err != nil {
			return nil, err
		}
		return rep.Report(), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
}

// cellReports holds one run of each cell per test process, so
// TestGoldenAllCells and TestGoldenCellCounters pin two views of the same
// sweep.
var cellReports sync.Map // cell name -> func() (*core.Report, error)

func (c goldenCellSpec) report() (*core.Report, error) {
	run, _ := cellReports.LoadOrStore(c.name(), sync.OnceValues(c.run))
	return run.(func() (*core.Report, error))()
}

// cellSpecs is every golden cell, seen through view.
func cellSpecs[C any](view func(*core.Report) C) []goldenSpec[C] {
	var specs []goldenSpec[C]
	for _, c := range allGoldenCells() {
		specs = append(specs, goldenSpec[C]{c.name(), func() (C, error) {
			rep, err := c.report()
			if err != nil {
				var zero C
				return zero, err
			}
			return view(rep), nil
		}})
	}
	return specs
}

// TestGoldenAllCells pins every policy × board × workload cell end to end
// against testdata/golden_cells.json (run one cell with
// -run 'TestGoldenAllCells/<workload>/<board>/<policy>').
func TestGoldenAllCells(t *testing.T) {
	goldenCells(t, pins[goldenCell]{path: "testdata/golden_cells.json", specs: cellSpecs(cellOf)})
}

// counterCell is the pinned IMU and VIM counters of one golden cell.
type counterCell struct {
	IMU imu.Counters `json:"imu"`
	VIM vim.Counters `json:"vim"`
}

// TestGoldenCellCounters pins every golden cell's IMU and VIM counters,
// from the same runs as TestGoldenAllCells.
func TestGoldenCellCounters(t *testing.T) {
	goldenCells(t, pins[counterCell]{
		path: "testdata/cell_counters.json",
		specs: cellSpecs(func(rep *core.Report) counterCell {
			return counterCell{rep.IMU, rep.VIM}
		}),
	})
}

// TestDifferentialExperiments runs every registered experiment — all
// figures and every ablation — and pins every published series value, by
// experiment ID and series label, against
// testdata/experiment_series.json. Checked under each scheduler against the
// same file, it pins the lockstep/event-driven equivalence, and the values
// themselves, across the entire evaluation surface of the reproduction.
func TestDifferentialExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	var specs []goldenSpec[map[string]float64]
	for _, e := range exp.All() {
		specs = append(specs, goldenSpec[map[string]float64]{e.ID, func() (map[string]float64, error) {
			res, err := e.Run()
			if err != nil {
				return nil, err
			}
			return res.Series, nil
		}})
	}
	goldenCells(t, pins[map[string]float64]{path: "testdata/experiment_series.json", specs: specs})
}

// TestGoldenFig9Policies pins the 32 KB IDEA run under all four replacement
// policies, including the per-component time breakdown.
func TestGoldenFig9Policies(t *testing.T) {
	cases := []struct {
		policy  string
		totalPs float64
		hwPs    float64
		swdpPs  float64
		swimuPs float64
		swosPs  float64
		faults  uint64
	}{
		{"fifo", 1.7356149122807014e+10, 1.6397833333333334e+10, 7.08330827067669e+08, 2.3118796992481163e+08, 1.879699248120301e+07, 25},
		{"lru", 1.750795363408521e+10, 1.6397833333333334e+10, 8.190075187969923e+08, 2.723157894736837e+08, 1.879699248120301e+07, 30},
		{"clock", 1.750795363408521e+10, 1.6397833333333334e+10, 8.190075187969923e+08, 2.723157894736837e+08, 1.879699248120301e+07, 30},
		{"random", 1.7447231829573933e+10, 1.6397833333333334e+10, 7.74736842105263e+08, 2.558646616541349e+08, 1.879699248120301e+07, 28},
	}
	for _, c := range cases {
		t.Run(c.policy, func(t *testing.T) {
			cfg := repro.Config{Policy: c.policy}
			if c.policy == "random" {
				cfg.Seed = 4242
			}
			rep, err := exp.Run(cfg, "idea", "vim", 32768, 900+32768, nil)
			if err != nil {
				t.Fatal(err)
			}
			eq(t, "total_ps", rep.TotalPs(), c.totalPs)
			eq(t, "hw_ps", rep.HWPs, c.hwPs)
			eq(t, "swdp_ps", rep.SWDPPs, c.swdpPs)
			eq(t, "swimu_ps", rep.SWIMUPs, c.swimuPs)
			eq(t, "swos_ps", rep.SWOSPs, c.swosPs)
			if rep.VIM.Faults != c.faults {
				t.Errorf("faults = %d, want %d", rep.VIM.Faults, c.faults)
			}
		})
	}
}
