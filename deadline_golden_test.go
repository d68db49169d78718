// Golden determinism tests for the deadline-aware serving layer: every
// pinned DEADLINE cell runs the full scheduler — pre-staged
// reconfiguration included — and the measured metrics must match the
// committed values bit for bit.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/rcsched"
)

// deadlineCell is the pinned measurement record of one deadline cell.
type deadlineCell struct {
	MakespanPs      float64 `json:"makespan_ps"`
	MeanLatencyPs   float64 `json:"mean_latency_ps"`
	P99LatencyPs    float64 `json:"p99_latency_ps"`
	MissRate        float64 `json:"miss_rate"`
	Misses          int     `json:"misses"`
	TotalReconfigPs float64 `json:"total_reconfig_ps"`
	Reconfigs       int     `json:"reconfigs"`
	StageCommits    int     `json:"stage_commits"`
	StageCancels    int     `json:"stage_cancels"`
	Faults          uint64  `json:"faults"`
}

func deadlineCellOf(rep *rcsched.Report) deadlineCell {
	return deadlineCell{
		MakespanPs:      rep.MakespanPs,
		MeanLatencyPs:   rep.MeanLatencyPs,
		P99LatencyPs:    rep.P99LatencyPs,
		MissRate:        rep.MissRate,
		Misses:          rep.Misses,
		TotalReconfigPs: rep.TotalReconfigPs,
		Reconfigs:       rep.Reconfigs,
		StageCommits:    rep.StageCommits,
		StageCancels:    rep.StageCancels,
		Faults:          rep.VIM.Faults,
	}
}

// deadlineCellSpec enumerates the pinned deadline cells: every deadline-era
// policy with staging off and on at the slow configuration port where
// pre-staging matters most, plus a default-bandwidth pair.
type deadlineCellSpec struct {
	policy string
	stage  bool
	bw     float64
}

func allDeadlineCells() []deadlineCellSpec {
	var cells []deadlineCellSpec
	for _, policy := range []string{"affinity", "edf", "slack"} {
		for _, stage := range []bool{false, true} {
			cells = append(cells, deadlineCellSpec{policy, stage, 250_000})
		}
	}
	cells = append(cells,
		deadlineCellSpec{"affinity", false, rcsched.DefaultConfigBW},
		deadlineCellSpec{"slack", true, rcsched.DefaultConfigBW},
	)
	return cells
}

func (c deadlineCellSpec) name() string {
	staging := "nostage"
	if c.stage {
		staging = "stage"
	}
	return fmt.Sprintf("%s/%s/%dKBps", c.policy, staging, int(c.bw)/1000)
}

func (c deadlineCellSpec) run() (deadlineCell, error) {
	rep, err := rcsched.Serve(rcsched.Config{
		Policy:   c.policy,
		Slots:    2,
		ConfigBW: c.bw,
		Stage:    c.stage,
	}, exp.DeadlineTrace(1))
	if err != nil {
		return deadlineCell{}, err
	}
	return deadlineCellOf(rep), nil
}

// TestGoldenDeadlineCells pins every deadline-aware serving cell end to end
// against testdata/deadline_cells.json.
func TestGoldenDeadlineCells(t *testing.T) {
	var specs []goldenSpec[deadlineCell]
	for _, c := range allDeadlineCells() {
		specs = append(specs, goldenSpec[deadlineCell]{c.name(), c.run})
	}
	goldenCells(t, pins[deadlineCell]{path: "testdata/deadline_cells.json", specs: specs, accept: acceptDeadline})
}

// acceptDeadline is the acceptance property of the deadline work, asserted
// on the pinned cells themselves: on the same saturated stream with a slow
// configuration port, slack with pre-staging strictly lowers both the p99
// latency and the deadline miss-rate against the plain bitstream-affinity
// scheduler, and pre-staging strictly cuts full reconfigurations for every
// policy that uses it.
func acceptDeadline(t *testing.T, got map[string]deadlineCell) {
	aff, slk := got["affinity/nostage/250KBps"], got["slack/stage/250KBps"]
	if slk.P99LatencyPs >= aff.P99LatencyPs {
		t.Errorf("slack+staging p99 %.3f ms not below plain affinity's %.3f ms",
			slk.P99LatencyPs/1e9, aff.P99LatencyPs/1e9)
	}
	if slk.MissRate >= aff.MissRate {
		t.Errorf("slack+staging miss rate %.3f not below plain affinity's %.3f",
			slk.MissRate, aff.MissRate)
	}
	for _, policy := range []string{"affinity", "edf", "slack"} {
		off, on := got[policy+"/nostage/250KBps"], got[policy+"/stage/250KBps"]
		if on.StageCommits == 0 {
			t.Errorf("%s with staging never committed a pre-staged bitstream", policy)
		}
		if on.Reconfigs >= off.Reconfigs {
			t.Errorf("%s with staging streamed %d full reconfigurations, %d without — no saving",
				policy, on.Reconfigs, off.Reconfigs)
		}
	}
}
