// Golden determinism tests for the serving layer: every pinned SERVE cell
// runs the full dynamic-reconfiguration scheduler — sessions attaching and
// detaching at runtime, slots reconfiguring, every job output verified
// against the golden algorithms — and the measured metrics must match the
// committed values bit for bit.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/rcsched"
)

// serveCell is the pinned measurement record of one serving cell.
type serveCell struct {
	MakespanPs      float64 `json:"makespan_ps"`
	MeanWaitPs      float64 `json:"mean_wait_ps"`
	MeanLatencyPs   float64 `json:"mean_latency_ps"`
	TotalReconfigPs float64 `json:"total_reconfig_ps"`
	Reconfigs       int     `json:"reconfigs"`
	Faults          uint64  `json:"faults"`
	SWDPPs          float64 `json:"swdp_ps"`
	SWIMUPs         float64 `json:"swimu_ps"`
	SWOSPs          float64 `json:"swos_ps"`
}

func serveCellOf(rep *rcsched.Report) serveCell {
	return serveCell{
		MakespanPs:      rep.MakespanPs,
		MeanWaitPs:      rep.MeanWaitPs,
		MeanLatencyPs:   rep.MeanLatencyPs,
		TotalReconfigPs: rep.TotalReconfigPs,
		Reconfigs:       rep.Reconfigs,
		Faults:          rep.VIM.Faults,
		SWDPPs:          rep.SWDPPs,
		SWIMUPs:         rep.SWIMUPs,
		SWOSPs:          rep.SWOSPs,
	}
}

// serveCellSpec enumerates the pinned serving cells: every policy over the
// slot-count sweep at the default configuration bandwidth, plus the
// slow-config-port pair in which affinity's reconfiguration saving is most
// visible.
type serveCellSpec struct {
	policy string
	slots  int
	bw     float64
}

func allServeCells() []serveCellSpec {
	var cells []serveCellSpec
	for _, policy := range []string{"fcfs", "sjf", "affinity"} {
		for _, slots := range []int{1, 2, 4} {
			cells = append(cells, serveCellSpec{policy, slots, rcsched.DefaultConfigBW})
		}
	}
	cells = append(cells,
		serveCellSpec{"fcfs", 2, 250_000},
		serveCellSpec{"affinity", 2, 250_000},
	)
	return cells
}

func (c serveCellSpec) name() string {
	return fmt.Sprintf("%s/%dslots/%dKBps", c.policy, c.slots, int(c.bw)/1000)
}

func (c serveCellSpec) run() (serveCell, error) {
	rep, err := rcsched.Serve(rcsched.Config{Policy: c.policy, Slots: c.slots, ConfigBW: c.bw}, exp.ServeTrace())
	if err != nil {
		return serveCell{}, err
	}
	return serveCellOf(rep), nil
}

// TestGoldenServeCells pins every serving cell end to end against
// testdata/serve_cells.json.
func TestGoldenServeCells(t *testing.T) {
	var specs []goldenSpec[serveCell]
	for _, c := range allServeCells() {
		specs = append(specs, goldenSpec[serveCell]{c.name(), c.run})
	}
	goldenCells(t, pins[serveCell]{path: "testdata/serve_cells.json", specs: specs, accept: acceptServe})
}

// acceptServe is the acceptance property of the bitstream-affinity policy,
// asserted on the pinned cells themselves: on the same stream it spends
// strictly less configuration-port time than FCFS — at the default
// bandwidth and even more visibly on the slow port.
func acceptServe(t *testing.T, got map[string]serveCell) {
	for _, bw := range []string{"1000KBps", "250KBps"} {
		aff, fcfs := got["affinity/2slots/"+bw], got["fcfs/2slots/"+bw]
		if aff.TotalReconfigPs >= fcfs.TotalReconfigPs {
			t.Errorf("affinity at %s: reconfig %.3f ms not below fcfs's %.3f ms",
				bw, aff.TotalReconfigPs/1e9, fcfs.TotalReconfigPs/1e9)
		}
		if aff.Reconfigs >= fcfs.Reconfigs {
			t.Errorf("affinity at %s reconfigured %d times, fcfs %d — no saving", bw, aff.Reconfigs, fcfs.Reconfigs)
		}
	}
}
