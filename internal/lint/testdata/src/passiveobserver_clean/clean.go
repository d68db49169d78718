// Package passiveobserverclean is a vimlint fixture: adapters that only
// read their parameters and gauges that only read what they sample are
// passive; a function without a telemetry parameter, and a closure not
// handed to Meter.SetFunc, are out of scope.
package passiveobserverclean

import (
	"repro/internal/rcsched"
	"repro/internal/telemetry"
)

// meterJobs reads the report and writes only the meter and its locals.
func meterJobs(m *telemetry.Meter, rep *rcsched.Report) {
	total := 0.0
	for i := range rep.Jobs {
		total += rep.Jobs[i].LatencyPs
	}
	local := *rep
	local.Reconfigs = 0 // a local copy is the adapter's own value
	m.Set("latency_total_ps", total)
	rep = nil // rebinding the parameter changes only the local copy
	_ = rep
}

// gauges binds live gauges that only read the state they sample.
func gauges(m *telemetry.Meter, slots []bool) {
	queue := []int{1, 2}
	m.SetFunc("queue_depth", func() float64 { return float64(len(queue)) })
	m.SetFunc("slots_busy", func() float64 {
		n := 0
		for _, busy := range slots {
			if busy {
				n++
			}
		}
		return float64(n)
	})
	queue = append(queue, 3) // the owner updates its state outside the gauge
}

// normalize has no telemetry parameter: its parameter writes are someone
// else's business.
func normalize(jr *rcsched.JobReport) {
	jr.Slot = 0
}

// notAGauge writes captured state, but is never handed to SetFunc.
func notAGauge() int {
	n := 0
	inc := func() { n++ }
	inc()
	return n
}
