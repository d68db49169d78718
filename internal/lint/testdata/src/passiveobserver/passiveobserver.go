// Package passiveobserver is a vimlint fixture: a telemetry adapter must
// not assign into the values it renders, and a live gauge must not assign
// to the state it samples — either write is an attempt to steer the run
// or a silent no-op bug.
package passiveobserver

import (
	"repro/internal/rcsched"
	"repro/internal/telemetry"
)

// meterJobs folds a report into a meter and misbehaves.
func meterJobs(m *telemetry.Meter, rep *rcsched.Report, jr rcsched.JobReport) {
	for i := range rep.Jobs {
		m.Observe("latency_ps", rep.Jobs[i].LatencyPs)
		rep.Jobs[i].LatencyPs = 0 // want `meterJobs feeds telemetry and must be passive: assignment into observed parameter rep`
	}
	rep.Reconfigs++   // want `meterJobs feeds telemetry and must be passive: assignment into observed parameter rep`
	jr.Missed = false // want `meterJobs feeds telemetry and must be passive: assignment into observed parameter jr`
}

// traceEvents renders a decision log onto a trace and misbehaves.
func traceEvents(events []rcsched.Event, tr *telemetry.Trace) {
	for i := range events {
		tr.Instant(telemetry.Instant{Name: events[i].Kind, AtPs: events[i].AtPs})
		events[i].Path = "" // want `traceEvents feeds telemetry and must be passive: assignment into observed parameter events`
	}
}

// gauges binds live gauges that write the state they sample.
func gauges(m *telemetry.Meter) {
	queue := []int{1, 2}
	served := 0
	m.SetFunc("queue_depth", func() float64 {
		queue = queue[:0] // want `Meter.SetFunc gauge must be passive: assignment to queue, declared outside the closure`
		return 0
	})
	m.SetFunc("served", func() float64 {
		served++ // want `Meter.SetFunc gauge must be passive: assignment to served, declared outside the closure`
		return float64(served)
	})
}
