// Golden determinism tests for the open-loop saturation layer: the RPS
// ramp's detected knee and every pinned SATURATE cell — offered rate x
// policy x admission mode — must match the committed values bit for bit.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/exp"
	"repro/internal/rcsched"
	"repro/internal/traffic"
)

// saturateCell is the pinned measurement record of one saturation cell.
type saturateCell struct {
	Admitted      int     `json:"admitted"`
	Degraded      int     `json:"degraded"`
	Rejected      int     `json:"rejected"`
	GoodJobs      int     `json:"good_jobs"`
	MakespanPs    float64 `json:"makespan_ps"`
	GoodputRPS    float64 `json:"goodput_rps"`
	AchievedRPS   float64 `json:"achieved_rps"`
	ShedRate      float64 `json:"shed_rate"`
	P99LatencyPs  float64 `json:"p99_latency_ps"`
	P99AdmittedPs float64 `json:"p99_admitted_ps"`
	MissRate      float64 `json:"miss_rate"`
	Faults        uint64  `json:"faults"`
}

func saturateCellOf(rep *rcsched.Report) saturateCell {
	return saturateCell{
		Admitted:      rep.Admitted,
		Degraded:      rep.Degraded,
		Rejected:      rep.Rejected,
		GoodJobs:      rep.GoodJobs,
		MakespanPs:    rep.MakespanPs,
		GoodputRPS:    rep.GoodputRPS,
		AchievedRPS:   rep.AchievedRPS,
		ShedRate:      rep.ShedRate,
		P99LatencyPs:  rep.P99LatencyPs,
		P99AdmittedPs: rep.P99AdmittedPs,
		MissRate:      rep.MissRate,
		Faults:        rep.VIM.Faults,
	}
}

// saturateCellSpec enumerates the pinned saturation cells: both deadline
// policies at the detected knee and at twice the knee, with admission off,
// rejecting, and degrading. The rate is a knee multiple rather than a raw
// RPS so the fixture tracks the configuration's measured capacity.
type saturateCellSpec struct {
	policy string
	admit  string
	mult   float64
}

func allSaturateCells() []saturateCellSpec {
	var cells []saturateCellSpec
	for _, mult := range []float64{1, 2} {
		for _, policy := range []string{"slack", "edf"} {
			for _, admit := range []string{rcsched.AdmitOff, rcsched.AdmitReject, rcsched.AdmitDegrade} {
				cells = append(cells, saturateCellSpec{policy, admit, mult})
			}
		}
	}
	return cells
}

func (c saturateCellSpec) name() string {
	return fmt.Sprintf("%s/%s/%gx", c.policy, c.admit, c.mult)
}

func (c saturateCellSpec) run(kneeRPS float64) (saturateCell, error) {
	jobs, err := exp.SaturateStream(c.mult * kneeRPS)
	if err != nil {
		return saturateCell{}, err
	}
	rep, err := rcsched.Serve(exp.SaturateConfig(c.policy, c.admit), jobs)
	if err != nil {
		return saturateCell{}, err
	}
	return saturateCellOf(rep), nil
}

// saturateRamp is the canonical RPS ramp the SATURATE and FLEET cells scale
// from, run once for both.
var saturateRamp = sync.OnceValues(func() (*traffic.Ramp, error) {
	return exp.SaturateRamp(exp.SaturateConfig("slack", rcsched.AdmitOff))
})

// TestGoldenSaturateCells pins the saturation experiment end to end against
// testdata/saturate_cells.json: first the RPS ramp's detected knee, then
// every offered-rate x policy x admission cell at the knee and past it.
func TestGoldenSaturateCells(t *testing.T) {
	ramp, err := saturateRamp()
	if err != nil {
		t.Fatal(err)
	}
	if ramp.SaturationRPS == 0 {
		t.Fatal("the canonical ramp never saturated the board")
	}
	var specs []goldenSpec[saturateCell]
	for _, c := range allSaturateCells() {
		specs = append(specs, goldenSpec[saturateCell]{c.name(), func() (saturateCell, error) { return c.run(ramp.KneeRPS) }})
	}
	goldenCells(t, pins[saturateCell]{
		path:   "testdata/saturate_cells.json",
		specs:  specs,
		knee:   &kneePin{ramp.KneeRPS, ramp.SaturationRPS},
		accept: acceptSaturate,
	})
}

// acceptSaturate is the acceptance property of the admission-control work,
// asserted on the pinned cells themselves: past saturation (twice the
// detected knee), shedding provably-late jobs strictly improves goodput and
// strictly tightens the admitted-job p99 against admitting everything, for
// both deadline policies — and actually sheds something, or the comparison
// is vacuous. At the knee, admission must stay close to inert: a healthy
// board should not shed its whole stream.
func acceptSaturate(t *testing.T, got map[string]saturateCell) {
	for _, policy := range []string{"slack", "edf"} {
		off, rej := got[policy+"/off/2x"], got[policy+"/reject/2x"]
		if rej.Rejected == 0 {
			t.Errorf("%s: admission shed nothing at 2x the knee", policy)
		}
		if rej.GoodputRPS <= off.GoodputRPS {
			t.Errorf("%s: admission goodput %.0f jobs/s not above admit-everything's %.0f",
				policy, rej.GoodputRPS, off.GoodputRPS)
		}
		if rej.P99AdmittedPs >= off.P99AdmittedPs {
			t.Errorf("%s: admitted-job p99 %.3f ms not below admit-everything's %.3f ms",
				policy, rej.P99AdmittedPs/1e9, off.P99AdmittedPs/1e9)
		}
		if knee1 := got[policy+"/reject/1x"]; knee1.Rejected > knee1.Admitted {
			t.Errorf("%s: admission shed most of a knee-rate stream (%d of %d)",
				policy, knee1.Rejected, knee1.Admitted+knee1.Rejected)
		}
		if deg := got[policy+"/degrade/2x"]; deg.Rejected != 0 {
			t.Errorf("%s: degrade mode rejected %d jobs outright", policy, deg.Rejected)
		}
	}
}
