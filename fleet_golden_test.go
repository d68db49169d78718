// Golden determinism tests for the fleet dispatch layer: every pinned FLEET
// cell — dispatch policy x pool size at twice the single-board knee per
// board — must match the committed fleet aggregates bit for bit. The
// acceptance property of the fleet work is asserted on the pinned cells
// themselves: at 4 boards the locality-aware policies strictly beat
// seeded-random routing on goodput AND fleet-wide configuration traffic.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/rcsched"
)

// fleetCell is the pinned measurement record of one fleet cell.
type fleetCell struct {
	GoodJobs        int     `json:"good_jobs"`
	Misses          int     `json:"misses"`
	Reconfigs       int     `json:"reconfigs"`
	TotalReconfigPs float64 `json:"total_reconfig_ps"`
	MakespanPs      float64 `json:"makespan_ps"`
	GoodputRPS      float64 `json:"goodput_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	P99LatencyPs    float64 `json:"p99_latency_ps"`
	MissRate        float64 `json:"miss_rate"`
	UtilMin         float64 `json:"util_min"`
	UtilMean        float64 `json:"util_mean"`
	UtilMax         float64 `json:"util_max"`
}

func fleetCellOf(rep *fleet.Report) fleetCell {
	return fleetCell{
		GoodJobs:        rep.GoodJobs,
		Misses:          rep.Misses,
		Reconfigs:       rep.Reconfigs,
		TotalReconfigPs: rep.TotalReconfigPs,
		MakespanPs:      rep.MakespanPs,
		GoodputRPS:      rep.GoodputRPS,
		AchievedRPS:     rep.AchievedRPS,
		P99LatencyPs:    rep.P99LatencyPs,
		MissRate:        rep.MissRate,
		UtilMin:         rep.UtilMin,
		UtilMean:        rep.UtilMean,
		UtilMax:         rep.UtilMax,
	}
}

// fleetCellSpec enumerates the pinned fleet cells: every dispatch policy
// over pools of 2, 4 and 8 boards, offered twice the single-board knee per
// board. The rate is a knee multiple rather than a raw RPS so the fixture
// tracks the configuration's measured capacity, like the SATURATE cells.
type fleetCellSpec struct {
	dispatch string
	boards   int
}

func allFleetCells() []fleetCellSpec {
	var cells []fleetCellSpec
	for _, boards := range exp.FleetBoardCounts() {
		for _, dispatch := range exp.FleetDispatches() {
			cells = append(cells, fleetCellSpec{dispatch, boards})
		}
	}
	return cells
}

func (c fleetCellSpec) name() string {
	return fmt.Sprintf("%s/%db", c.dispatch, c.boards)
}

func (c fleetCellSpec) run(kneeRPS float64) (fleetCell, error) {
	jobs, err := exp.FleetStream(c.boards, kneeRPS)
	if err != nil {
		return fleetCell{}, err
	}
	rep, err := fleet.Run(exp.FleetConfig(c.dispatch, c.boards, rcsched.AdmitOff), jobs)
	if err != nil {
		return fleetCell{}, err
	}
	return fleetCellOf(rep), nil
}

// TestGoldenFleetCells pins the fleet experiment end to end against
// testdata/fleet_cells.json: the single-board knee the stream scales from
// (the saturation fixture's), then every dispatch x pool-size cell.
func TestGoldenFleetCells(t *testing.T) {
	ramp, err := saturateRamp()
	if err != nil {
		t.Fatal(err)
	}
	if ramp.KneeRPS == 0 {
		t.Fatal("the canonical ramp found no knee to scale the fleet rates from")
	}
	var specs []goldenSpec[fleetCell]
	for _, c := range allFleetCells() {
		specs = append(specs, goldenSpec[fleetCell]{c.name(), func() (fleetCell, error) { return c.run(ramp.KneeRPS) }})
	}
	goldenCells(t, pins[fleetCell]{
		path:   "testdata/fleet_cells.json",
		specs:  specs,
		knee:   &kneePin{KneeRPS: ramp.KneeRPS},
		accept: acceptFleet,
	})
}

// acceptFleet is the acceptance property of the fleet work, asserted on the
// pinned cells themselves: at 2x the single-board knee per board on 4
// boards, the locality-aware policies strictly beat seeded-random routing
// on goodput AND on fleet-wide configuration traffic.
func acceptFleet(t *testing.T, got map[string]fleetCell) {
	random := got["random/4b"]
	for _, dispatch := range []string{fleet.Affinity, fleet.Po2} {
		cell := got[dispatch+"/4b"]
		if cell.GoodputRPS <= random.GoodputRPS {
			t.Errorf("%s goodput %.0f jobs/s not above random's %.0f at 4 boards",
				dispatch, cell.GoodputRPS, random.GoodputRPS)
		}
		if cell.TotalReconfigPs >= random.TotalReconfigPs {
			t.Errorf("%s config traffic %.3f ms not below random's %.3f ms at 4 boards",
				dispatch, cell.TotalReconfigPs/1e9, random.TotalReconfigPs/1e9)
		}
	}
}
