package rcsched

import (
	"fmt"
	"testing"
)

// TestEventLog pins Report.Events against the per-job reports across
// policies, staging and admission modes: every job has exactly one shed or
// dispatch event; every admitted job has exactly one finish, after its
// dispatch, at the report's Slot and DonePs; a dispatch's instant is the
// job's arrival plus its queue wait; the dispatch path agrees with the
// report's Reconfigured/Staged flags; and a shed's path is its disposition.
func TestEventLog(t *testing.T) {
	jobs := overloadedTrace(t, 24)
	seen := map[string]int{}
	for _, policy := range []string{"fcfs", "affinity", "slack"} {
		for _, stage := range []bool{false, true} {
			for _, admit := range []string{AdmitOff, AdmitReject, AdmitDegrade} {
				name := fmt.Sprintf("%s/stage=%v/%s", policy, stage, admit)
				rep, err := Serve(Config{Policy: policy, Slots: 2, Stage: stage, Admit: admit, ConfigBW: 250_000}, jobs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkEventLog(t, name, rep, seen)
			}
		}
	}
	for _, path := range []string{DispatchResident, DispatchStaged, DispatchStream, string(Rejected), string(Degraded)} {
		if seen[path] == 0 {
			t.Errorf("no %q event anywhere in the matrix: the fixture no longer covers that path", path)
		}
	}
}

// checkEventLog checks one report's log and tallies its paths into seen.
func checkEventLog(t *testing.T, name string, rep *Report, seen map[string]int) {
	t.Helper()
	byID := make(map[int]*JobReport, len(rep.Jobs))
	for i := range rep.Jobs {
		byID[rep.Jobs[i].ID] = &rep.Jobs[i]
	}
	decided := map[int]string{} // job ID -> kind of its shed or dispatch event
	finished := map[int]bool{}
	for i, e := range rep.Events {
		jr, ok := byID[e.Job]
		if !ok {
			t.Fatalf("%s: event %d names unknown job %d", name, i, e.Job)
		}
		bad := func(format string, args ...any) {
			t.Errorf("%s: event %d (%+v): %s", name, i, e, fmt.Sprintf(format, args...))
		}
		switch e.Kind {
		case EventShed, EventDispatch:
			if prev, dup := decided[e.Job]; dup {
				bad("second decision for the job (first was %s)", prev)
			}
			decided[e.Job] = e.Kind
			seen[e.Path]++
		case EventFinish:
			if decided[e.Job] != EventDispatch {
				bad("finish without a preceding dispatch")
			}
			if finished[e.Job] {
				bad("second finish for the job")
			}
			finished[e.Job] = true
			if e.Slot != jr.Slot || e.AtPs != jr.DonePs || e.Path != "" {
				bad("want slot %d at %v with no path, report says so", jr.Slot, jr.DonePs)
			}
		default:
			bad("unknown kind")
		}
		switch e.Kind {
		case EventShed:
			if jr.Disposition == Admitted || e.Path != string(jr.Disposition) || e.Slot != -1 || e.AtPs != jr.DonePs {
				bad("shed disagrees with the report (disposition %s, done %v)", jr.Disposition, jr.DonePs)
			}
		case EventDispatch:
			if jr.Disposition != Admitted || e.Slot != jr.Slot {
				bad("dispatch disagrees with the report (disposition %s, slot %d)", jr.Disposition, jr.Slot)
			}
			if e.AtPs-jr.ArrivalPs != jr.QueueWaitPs {
				bad("dispatch instant minus arrival %v != queue wait %v", e.AtPs-jr.ArrivalPs, jr.QueueWaitPs)
			}
			if (e.Path == DispatchStaged) != jr.Staged ||
				(e.Path == DispatchStream) != (jr.Reconfigured && !jr.Staged) ||
				(e.Path == DispatchResident) != !jr.Reconfigured {
				bad("path disagrees with reconfigured=%v staged=%v", jr.Reconfigured, jr.Staged)
			}
		}
	}
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if decided[jr.ID] == "" {
			t.Errorf("%s: job %d has no shed or dispatch event", name, jr.ID)
		}
		if jr.Disposition == Admitted && !finished[jr.ID] {
			t.Errorf("%s: admitted job %d has no finish event", name, jr.ID)
		}
	}
	if want := len(rep.Jobs) + rep.Admitted; len(rep.Events) != want {
		t.Errorf("%s: %d events, want %d (one decision per job plus one finish per admitted job)",
			name, len(rep.Events), want)
	}
}
