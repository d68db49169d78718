// Golden determinism tests: the simulator's measured results are part of its
// contract. These tables were captured from the seed implementation (eager
// flat memory, cross-multiplied scheduler, no fast paths) and every value is
// compared exactly — the allocation-free kernel, the sparse memory model and
// the idle bulk-skip must reproduce the seed's simulated metrics bit for
// bit, not merely approximately.
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/platform"
	"repro/internal/sim"
)

// -update-golden regenerates testdata/golden_cells.json from the lockstep
// reference scheduler (the seed-equivalent engine). Committed values are
// then enforced against BOTH schedulers on every run.
var updateGolden = flag.Bool("update-golden", false,
	"regenerate testdata/golden_cells.json from the lockstep reference engine")

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
	rep, err := exp.AdpcmVIM(repro.Config{}, 8192, 800+8192)
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
		return exp.VecAddVIM(cfg, 16384, 4242) // 3 × 64 KB objects
	case "adpcm":
		return exp.AdpcmVIM(cfg, 8192, 4242) // 8 KB in, 32 KB out
	case "idea":
		return exp.IdeaVIM(cfg, 32768, 4242) // 32 KB in and out
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

// runWith runs fn with the given package-default sim scheduler installed.
func runWith[T any](s sim.Scheduler, fn func() (T, error)) (T, error) {
	prev := sim.SetDefaultScheduler(s)
	defer sim.SetDefaultScheduler(prev)
	return fn()
}

const goldenCellsPath = "testdata/golden_cells.json"

func loadGoldenCells(t *testing.T) map[string]goldenCell {
	t.Helper()
	data, err := os.ReadFile(goldenCellsPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	want := map[string]goldenCell{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// runCellsParallel fans deterministic, independent experiment cells out
// across GOMAXPROCS with the given package-default scheduler installed for
// the whole batch (the default is process-global, so the two scheduler
// passes run as sequential phases while the cells within a phase run
// concurrently). Results come back indexed, keeping every later comparison
// deterministic.
func runCellsParallel(s sim.Scheduler, specs []goldenCellSpec) ([]*core.Report, []error) {
	prev := sim.SetDefaultScheduler(s)
	defer sim.SetDefaultScheduler(prev)
	reps := make([]*core.Report, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			reps[i], errs[i] = specs[i].run()
		}(i)
	}
	wg.Wait()
	return reps, errs
}

// subtestFiltered reports whether the -run flag narrows execution below
// the named test (a '/' in the pattern), in which case precomputing every
// cell would defeat the filter.
func subtestFiltered() bool {
	f := flag.Lookup("test.run")
	return f != nil && strings.Contains(f.Value.String(), "/")
}

// TestGoldenAllCells pins every policy × board × workload cell end to end
// and doubles as the whole-system differential harness: each cell is run
// under the lockstep reference scheduler and the event-driven default, the
// two reports must agree bit for bit, and both must match the committed
// golden file (captured from the lockstep engine with -update-golden).
// Cells are independent, so a full run farms each scheduler pass across
// GOMAXPROCS up front; a subtest-filtered run
// (-run 'TestGoldenAllCells/<workload>/<board>/<policy>') skips the
// precompute and simulates only the selected cells.
func TestGoldenAllCells(t *testing.T) {
	var want map[string]goldenCell
	if !*updateGolden {
		want = loadGoldenCells(t)
		if len(want) != len(allGoldenCells()) {
			t.Errorf("golden file has %d cells, expected %d", len(want), len(allGoldenCells()))
		}
	}
	specs := allGoldenCells()
	var lockReps, evntReps []*core.Report
	var lockErrs, evntErrs []error
	if !subtestFiltered() {
		lockReps, lockErrs = runCellsParallel(sim.Lockstep, specs)
		evntReps, evntErrs = runCellsParallel(sim.EventDriven, specs)
	}
	got := map[string]goldenCell{}
	for i, spec := range specs {
		i, spec := i, spec
		t.Run(spec.name(), func(t *testing.T) {
			var lockRep, evntRep *core.Report
			var err error
			if lockReps != nil {
				if lockErrs[i] != nil {
					t.Fatal(lockErrs[i])
				}
				if evntErrs[i] != nil {
					t.Fatal(evntErrs[i])
				}
				lockRep, evntRep = lockReps[i], evntReps[i]
			} else {
				if lockRep, err = runWith(sim.Lockstep, spec.run); err != nil {
					t.Fatal(err)
				}
				if evntRep, err = runWith(sim.EventDriven, spec.run); err != nil {
					t.Fatal(err)
				}
			}
			lock, evnt := cellOf(lockRep), cellOf(evntRep)
			if lock != evnt {
				t.Errorf("schedulers disagree:\n lockstep %+v\n event    %+v", lock, evnt)
			}
			if lockRep.IMU != evntRep.IMU {
				t.Errorf("IMU counters disagree:\n lockstep %+v\n event    %+v", lockRep.IMU, evntRep.IMU)
			}
			if !reflect.DeepEqual(lockRep.VIM, evntRep.VIM) {
				t.Errorf("VIM counters disagree:\n lockstep %+v\n event    %+v", lockRep.VIM, evntRep.VIM)
			}
			got[spec.name()] = lock
			if want != nil {
				w, ok := want[spec.name()]
				if !ok {
					t.Errorf("cell %s missing from golden file (re-run with -update-golden)", spec.name())
				} else if lock != w {
					t.Errorf("cell drifted:\n got  %+v\n want %+v", lock, w)
				}
			}
		})
	}
	if *updateGolden {
		if len(got) != len(allGoldenCells()) {
			t.Fatalf("-update-golden needs a full run: ran %d of %d cells (drop the -run filter)",
				len(got), len(allGoldenCells()))
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCellsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), goldenCellsPath)
	}
}

// experimentSeriesPath pins every experiment's full published series, by
// experiment ID and series label, as float64 values (a drift names the
// series that moved). Regenerate with -update-golden.
const experimentSeriesPath = "testdata/experiment_series.json"

// TestDifferentialExperiments runs every registered experiment — all
// figures and every ablation — under both schedulers, requires every
// published series value to match exactly, and compares the lockstep
// series with the committed experimentSeriesPath. Together with
// TestGoldenAllCells this pins the lockstep/event-driven equivalence, and
// the values themselves, across the entire evaluation surface of the
// reproduction.
func TestDifferentialExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	var want map[string]map[string]float64
	if *updateGolden {
		if raceEnabled {
			t.Fatal("-update-golden needs every experiment: build without -race")
		}
	} else {
		data, err := os.ReadFile(experimentSeriesPath)
		if err != nil {
			t.Fatalf("missing series file (run with -update-golden to create): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]map[string]float64{}
	for _, e := range exp.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if raceEnabled && e.ID == "FLEET" {
				t.Skip("fleet sweep under -race: see race_enabled_test.go")
			}
			lock, err := runWith(sim.Lockstep, e.Run)
			if err != nil {
				t.Fatal(err)
			}
			evnt, err := runWith(sim.EventDriven, e.Run)
			if err != nil {
				t.Fatal(err)
			}
			if len(lock.Series) != len(evnt.Series) {
				t.Fatalf("series sizes differ: lockstep %d, event %d", len(lock.Series), len(evnt.Series))
			}
			for k, lv := range lock.Series {
				if ev, ok := evnt.Series[k]; !ok || ev != lv {
					t.Errorf("series %q: lockstep %v, event %v", k, lv, evnt.Series[k])
				}
			}
			got[e.ID] = lock.Series
			if want == nil {
				return
			}
			w, ok := want[e.ID]
			if !ok {
				t.Fatalf("experiment missing from %s (re-run with -update-golden)", experimentSeriesPath)
			}
			for k, wv := range w {
				if lv, ok := lock.Series[k]; !ok {
					t.Errorf("series %q vanished (pinned %v)", k, wv)
				} else if lv != wv {
					t.Errorf("series %q drifted: got %v, want exactly %v", k, lv, wv)
				}
			}
			for k := range lock.Series {
				if _, ok := w[k]; !ok {
					t.Errorf("series %q is not pinned (re-run with -update-golden)", k)
				}
			}
		})
	}
	if *updateGolden {
		if len(got) != len(exp.All()) {
			t.Fatalf("-update-golden needs a full run: ran %d of %d experiments (drop the -run filter)",
				len(got), len(exp.All()))
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentSeriesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d experiments to %s", len(got), experimentSeriesPath)
	}
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
			rep, err := exp.IdeaVIM(cfg, 32768, 900+32768)
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
