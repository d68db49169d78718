package scenario

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/rcsched"
)

// eventsOf converts one board's decision log (rcsched.Report.Events). The
// result is never nil, so a board that served nothing pins an explicitly
// empty stream.
func eventsOf(log []rcsched.Event) []Event {
	events := make([]Event, len(log))
	for i, e := range log {
		events[i] = Event(e)
	}
	return events
}

// RecordServe executes one rcsched.Serve run and returns it as a scenario,
// its event stream read from the report's decision log. The configuration
// is stored fully resolved (rcsched.Config.Resolve), so later default
// changes cannot silently re-parameterise a pinned run.
func RecordServe(name, desc string, cfg rcsched.Config, jobs []rcsched.Job, match Match) (*Scenario, error) {
	rep, err := rcsched.Serve(cfg, jobs)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{
		Format:      Format,
		Version:     Version,
		Name:        name,
		Description: desc,
		Kind:        KindServe,
		Match:       match,
		Serve:       serveConfigOf(cfg),
		Jobs:        jobSpecsOf(jobs),
		Expect: Expect{
			Events:    eventsOf(rep.Events),
			Jobs:      jobRecords(rep.Jobs, nil),
			Aggregate: serveAggregate(rep),
		},
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: recorded run does not validate: %w", err)
	}
	return sc, nil
}

// RecordFleet executes one fleet.Run and returns it as a scenario, with
// the routing decisions and every board's decision log from its report.
func RecordFleet(name, desc string, cfg fleet.Config, jobs []rcsched.Job, match Match) (*Scenario, error) {
	rep, err := fleet.Run(cfg, jobs)
	if err != nil {
		return nil, err
	}
	boundPs := cfg.BoundPs
	if boundPs == 0 {
		boundPs = fleet.DefaultBoundPs
	}
	decisions := make([]DecisionRecord, len(rep.Decisions))
	boardOf := make(map[int]int, len(rep.Decisions))
	for i, d := range rep.Decisions {
		decisions[i] = DecisionRecord{Job: d.Job, Board: d.Board, EpochPs: d.EpochPs}
		boardOf[d.Job] = d.Board
	}
	boardEvents := make([][]Event, cfg.Boards)
	var faults uint64
	for b, br := range rep.Boards {
		boardEvents[b] = eventsOf(br.Events)
		faults += br.VIM.Faults
	}
	sc := &Scenario{
		Format:      Format,
		Version:     Version,
		Name:        name,
		Description: desc,
		Kind:        KindFleet,
		Match:       match,
		Serve:       serveConfigOf(cfg.Board),
		Fleet: &FleetConfig{
			Boards:   cfg.Boards,
			Dispatch: rep.Dispatch,
			Seed:     cfg.Seed,
			BoundPs:  boundPs,
		},
		Jobs: jobSpecsOf(jobs),
		Expect: Expect{
			Decisions:   decisions,
			BoardEvents: boardEvents,
			Jobs:        jobRecords(rep.Jobs, boardOf),
			Aggregate:   fleetAggregate(rep, faults),
		},
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: recorded run does not validate: %w", err)
	}
	return sc, nil
}

// serveConfigOf pins cfg in resolved form; the run that just succeeded
// under it proves Resolve accepts it.
func serveConfigOf(cfg rcsched.Config) ServeConfig {
	r, _ := cfg.Resolve()
	return ServeConfig{
		Board:    r.Board,
		Slots:    r.Slots,
		ShellHz:  r.ShellHz,
		Policy:   r.Policy,
		ConfigBW: r.ConfigBW,
		Stage:    r.Stage,
		Admit:    r.Admit,
	}
}

func jobSpecsOf(jobs []rcsched.Job) []JobSpec {
	specs := make([]JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = JobSpec{
			ID: j.ID, App: j.App, Size: j.Size,
			ArrivalPs: j.ArrivalPs, DeadlinePs: j.DeadlinePs, Seed: j.Seed,
		}
	}
	return specs
}

// jobsOf rebuilds the arrival stream a replay serves; the inverse of
// jobSpecsOf.
func jobsOf(specs []JobSpec) []rcsched.Job {
	jobs := make([]rcsched.Job, len(specs))
	for i, s := range specs {
		jobs[i] = rcsched.Job{
			ID: s.ID, App: s.App, Size: s.Size,
			ArrivalPs: s.ArrivalPs, DeadlinePs: s.DeadlinePs, Seed: s.Seed,
		}
	}
	return jobs
}

// jobRecords pins every job report; boardOf (fleet only) annotates each
// with the board it was routed to.
func jobRecords(reports []rcsched.JobReport, boardOf map[int]int) []JobRecord {
	recs := make([]JobRecord, len(reports))
	for i, j := range reports {
		recs[i] = JobRecord{
			ID:          j.ID,
			App:         j.App,
			Size:        j.Size,
			Slot:        j.Slot,
			Board:       boardOf[j.ID],
			Disposition: string(j.Disposition),
			ArrivalPs:   j.ArrivalPs,
			DeadlinePs:  j.DeadlinePs,
			QueueWaitPs: j.QueueWaitPs,
			ReconfigPs:  j.ReconfigPs,
			ExecPs:      j.ExecPs,
			LatencyPs:   j.LatencyPs,
			LatenessPs:  j.LatenessPs,
			DonePs:      j.DonePs,
			Reconfig:    j.Reconfigured,
			Staged:      j.Staged,
			Missed:      j.Missed,
			Faults:      j.Faults,
		}
	}
	return recs
}

// summaryAggregate fills the population fields both scenario kinds pin.
func summaryAggregate(s rcsched.Summary) Aggregate {
	return Aggregate{
		MakespanPs:    s.MakespanPs,
		P99LatencyPs:  s.P99LatencyPs,
		P99AdmittedPs: s.P99AdmittedPs,
		Misses:        s.Misses,
		MissRate:      s.MissRate,
		Admitted:      s.Admitted,
		Degraded:      s.Degraded,
		Rejected:      s.Rejected,
		Completed:     s.Completed,
		GoodJobs:      s.GoodJobs,
		OfferedRPS:    s.OfferedRPS,
		AchievedRPS:   s.AchievedRPS,
		GoodputRPS:    s.GoodputRPS,
		ShedRate:      s.ShedRate,
	}
}

func serveAggregate(rep *rcsched.Report) Aggregate {
	a := summaryAggregate(rep.Summary)
	a.TotalReconfigPs, a.Reconfigs = rep.TotalReconfigPs, rep.Reconfigs
	a.StageCommits, a.StageCancels = rep.StageCommits, rep.StageCancels
	a.MeanWaitPs, a.MeanLatencyPs = rep.MeanWaitPs, rep.MeanLatencyPs
	a.UtilMean = rep.UtilMean
	a.Faults = rep.VIM.Faults
	return a
}

// fleetAggregate leaves MeanWaitPs/MeanLatencyPs zero: a fleet report does
// not measure them.
func fleetAggregate(rep *fleet.Report, faults uint64) Aggregate {
	a := summaryAggregate(rep.Summary)
	a.TotalReconfigPs, a.Reconfigs = rep.TotalReconfigPs, rep.Reconfigs
	a.StageCommits, a.StageCancels = rep.StageCommits, rep.StageCancels
	a.UtilMean, a.UtilMin, a.UtilMax = rep.UtilMean, rep.UtilMin, rep.UtilMax
	a.Faults = faults
	return a
}
