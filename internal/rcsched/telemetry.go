package rcsched

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is the adapter between the serving layer and the telemetry
// package: it folds a finished Report into a Meter (counters, histograms,
// per-slot occupancy gauges) and renders it as trace-event spans. Keeping
// the adapter here — not in telemetry — keeps telemetry a leaf package,
// and deriving everything from the Report and its event log keeps the
// serving loop itself nearly untouched: the only live instrumentation is
// the gauge sampler.

// Trace track layout: pid 0 is the scheduler/dispatcher, pid 1 the job
// view (tid = job ID), and pid ServeBoardPid+b board b's slot view
// (tid = slot). A plain Serve run is board 0.
const (
	// SchedulerPid is the trace pid of the dispatcher (fleet routing
	// instants land here).
	SchedulerPid = 0
	// JobsPid is the trace pid of the per-job lifecycle view.
	JobsPid = 1
	// ServeBoardPid is the trace pid of board 0; fleet board b uses
	// ServeBoardPid + b.
	ServeBoardPid = 2
)

// meterReport folds rep's aggregates into m: the stack-wide counters (sim
// engine, VIM, IMU global and per channel) and the serving-layer tallies
// (dispatch paths and shed dispositions from the event log, admission
// dispositions, staging, reconfigurations, per-slot occupancy, wait/latency
// distributions). The sim tallies come in separately — they are
// scheduler-implementation detail the Report deliberately does not carry.
func meterReport(m *telemetry.Meter, rep *Report, st sim.Stats) {
	m.Count("sim_edges_delivered_total", uint64(st.EdgesDelivered))
	m.Count("sim_edges_skipped_total", uint64(st.EdgesSkipped))
	m.Count("sim_heap_ops_total", uint64(st.HeapOps))

	m.Count("vim_faults_total", rep.VIM.Faults)
	m.Count("vim_steals_total", rep.VIM.Steals)
	m.Count("vim_evictions_total", rep.VIM.Evictions)
	m.Count("vim_prefetches_total", rep.VIM.Prefetches)
	m.Count("vim_bytes_total", rep.VIM.BytesIn, "dir", "in")
	m.Count("vim_bytes_total", rep.VIM.BytesOut, "dir", "out")

	m.Count("imu_tlb_accesses_total", rep.IMU.Accesses)
	m.Count("imu_tlb_hits_total", rep.IMU.Hits)
	m.Count("imu_tlb_faults_total", rep.IMU.Faults)
	m.Count("imu_fault_cycles_total", rep.IMU.FaultCycles)
	for ch, c := range rep.IMUCh {
		l := strconv.Itoa(ch)
		m.Count("imu_channel_accesses_total", c.Accesses, "channel", l)
		m.Count("imu_channel_hits_total", c.Hits, "channel", l)
		m.Count("imu_channel_faults_total", c.Faults, "channel", l)
	}

	m.Count("rcsched_reconfig_total", uint64(rep.Reconfigs))
	m.Count("rcsched_stage_commits_total", uint64(rep.StageCommits))
	m.Count("rcsched_stage_cancels_total", uint64(rep.StageCancels))
	m.Count("rcsched_admit_total", uint64(rep.Admitted), "disposition", string(Admitted))
	m.Count("rcsched_admit_total", uint64(rep.Degraded), "disposition", string(Degraded))
	m.Count("rcsched_admit_total", uint64(rep.Rejected), "disposition", string(Rejected))

	for s, o := range rep.SlotOccupancy {
		l := strconv.Itoa(s)
		m.Set("rcsched_slot_busy_ps", o.BusyPs, "slot", l)
		m.Set("rcsched_slot_config_ps", o.ConfigPs, "slot", l)
		m.Set("rcsched_slot_idle_ps", o.IdlePs, "slot", l)
	}

	for _, e := range rep.Events {
		if e.Kind != EventFinish {
			m.Count("rcsched_dispatch_total", 1, "path", e.Path)
		}
	}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Disposition == Rejected {
			continue
		}
		m.Observe("rcsched_queue_wait_ps", j.QueueWaitPs)
		m.Observe("rcsched_latency_ps", j.LatencyPs)
		m.Observe("rcsched_session_faults", float64(j.Faults))
	}
}

// TraceReport renders rep's job lifecycles as Chrome trace events on tr:
// per-job queue → config → exec spans on the job track group (JobsPid,
// tid = job ID), and per-slot config and exec spans on the board's track
// group (boardPid, tid = slot). Rejected jobs become instants, degraded
// jobs a software-execution span. Every value is read from the Report (a
// job's path arg from its shed or dispatch event), so a trace is exactly
// as deterministic as the run it renders.
func TraceReport(tr *telemetry.Trace, rep *Report, boardPid int) {
	if tr == nil {
		return
	}
	tr.NameProcess(JobsPid, "jobs")
	tr.NameProcess(boardPid, fmt.Sprintf("board %d (%s, %s)", boardPid-ServeBoardPid, rep.Board, rep.Policy))
	for s := 0; s < rep.Slots; s++ {
		tr.NameThread(boardPid, s, fmt.Sprintf("slot %d", s))
	}
	paths := make(map[int]string, len(rep.Jobs))
	for _, e := range rep.Events {
		if e.Kind != EventFinish {
			paths[e.Job] = e.Path
		}
	}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		tr.NameThread(JobsPid, j.ID, fmt.Sprintf("job %d (%s)", j.ID, j.App))
		args := map[string]string{
			"app":  j.App,
			"size": strconv.Itoa(j.Size),
			"path": paths[j.ID],
		}
		switch j.Disposition {
		case Rejected:
			tr.Instant(telemetry.Instant{
				Name: "rejected", Pid: JobsPid, Tid: j.ID, AtPs: j.DonePs, Args: args,
			})
			continue
		case Degraded:
			tr.Span(telemetry.Span{
				Name: "queue", Cat: "job", Pid: JobsPid, Tid: j.ID,
				StartPs: j.ArrivalPs, DurPs: j.QueueWaitPs, Args: args,
			})
			tr.Span(telemetry.Span{
				Name: "sw-exec", Cat: "job", Pid: JobsPid, Tid: j.ID,
				StartPs: j.DonePs - j.ExecPs, DurPs: j.ExecPs, Args: args,
			})
			continue
		}
		args["faults"] = strconv.FormatUint(j.Faults, 10)
		dispatchPs := j.ArrivalPs + j.QueueWaitPs
		execStartPs := j.DonePs - j.ExecPs
		tr.Span(telemetry.Span{
			Name: "queue", Cat: "job", Pid: JobsPid, Tid: j.ID,
			StartPs: j.ArrivalPs, DurPs: j.QueueWaitPs, Args: args,
		})
		if j.ReconfigPs > 0 {
			tr.Span(telemetry.Span{
				Name: "config", Cat: "reconfig", Pid: JobsPid, Tid: j.ID,
				StartPs: dispatchPs, DurPs: j.ReconfigPs, Args: args,
			})
			tr.Span(telemetry.Span{
				Name: "config " + j.App, Cat: "reconfig", Pid: boardPid, Tid: j.Slot,
				StartPs: dispatchPs, DurPs: j.ReconfigPs, Args: args,
			})
		}
		tr.Span(telemetry.Span{
			Name: "exec", Cat: "job", Pid: JobsPid, Tid: j.ID,
			StartPs: execStartPs, DurPs: j.ExecPs, Args: args,
		})
		tr.Span(telemetry.Span{
			Name: j.App, Cat: "exec", Pid: boardPid, Tid: j.Slot,
			StartPs: execStartPs, DurPs: j.ExecPs, Args: args,
		})
	}
}
