package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// serving is one resolved serving run. serve, saturate, fleet and record
// -as <mode> each build one from the flags (newServing) and execute it
// through the same path: one stream generator, one job-log printer and,
// with -ramp, one sweep.
type serving struct {
	mode   string         // serve | saturate | fleet
	board  rcsched.Config // the per-board config as given (Resolve accepted it)
	fleet  *fleet.Config  // fleet only: the dispatch layer over board
	gapMs  float64        // serve: mean gap of the closed-form trace
	spec   traffic.Spec   // saturate, fleet: the open-loop arrival process
	jobs   int
	seed   int64
	budget float64
	ramp   bool
	tele   telemetryFlags
}

// fieldFlags names the flag behind each config field a library validator
// can reject (rcsched.ConfigError.Field).
var fieldFlags = map[string]string{
	"Board": "board", "Slots": "slots", "ConfigBW": "bw", "Policy": "policy", "Admit": "admit",
	"Process": "arrival", "RPS": "rps", "Boards": "boards", "Dispatch": "dispatch",
}

// newServing builds the run mode describes from the flags and validates it
// with the libraries' own validators (rcsched.Config.Resolve,
// fleet.Config.Validate, traffic.Spec.Validate).
func newServing(o *options, mode string) (*serving, error) {
	pol := o.policy
	if pol == "fifo" { // the single-run flag default; serving defaults to FCFS
		pol = "fcfs"
	}
	s := &serving{
		mode:   mode,
		board:  rcsched.Config{Board: o.board, Slots: o.slots, Policy: pol, ConfigBW: o.bw, Stage: o.stage},
		gapMs:  o.gap,
		jobs:   o.jobs,
		seed:   o.seed,
		budget: o.budget,
		ramp:   o.ramp,
		tele:   o.tele,
	}
	if o.jobs <= 0 {
		return nil, fmt.Errorf("%s: -jobs must be positive, got %d (try -jobs 40)", mode, o.jobs)
	}
	if mode != "serve" {
		s.board.Admit = o.admit
		s.spec = traffic.Spec{Process: o.arrival, RPS: o.rps}
	}
	if mode == "fleet" {
		s.fleet = &fleet.Config{Boards: o.boards, Dispatch: o.dispatch, Seed: o.seed, Board: s.board}
	}
	var err error
	if mode != "serve" {
		err = s.spec.Validate()
	}
	if err == nil && s.fleet != nil {
		err = s.fleet.Validate()
	} else if err == nil {
		_, err = s.board.Resolve()
	}
	var ce *rcsched.ConfigError
	if errors.As(err, &ce) && fieldFlags[ce.Field] != "" {
		return nil, fmt.Errorf("%s: -%s: %v", mode, fieldFlags[ce.Field], err)
	} else if err != nil {
		return nil, fmt.Errorf("%s: %v", mode, err)
	}
	switch {
	case mode == "serve" && o.budget <= 0:
		return nil, fmt.Errorf("serve: -budget must be positive, got %g", o.budget)
	case o.budget < 0:
		return nil, fmt.Errorf("%s: -budget must be non-negative, got %g (0 strips deadlines)", mode, o.budget)
	case o.budget == 0 && o.admit != "" && o.admit != "off":
		return nil, fmt.Errorf("%s: -admit %s sheds by deadline, but -budget 0 strips every deadline (set -budget > 0)", mode, o.admit)
	case o.ramp && o.set["budget"]:
		return nil, fmt.Errorf("%s: -budget does not apply to -ramp (every ramp step serves the default deadlines)", mode)
	}
	return s, s.tele.validate(o.ramp)
}

// stream generates the run's job stream — the closed-form trace for serve,
// the open-loop arrival process otherwise — with the budget factor applied
// (for the open-loop modes, 0 strips every deadline).
func (s *serving) stream() ([]rcsched.Job, error) {
	if s.mode == "serve" {
		jobs, err := rcsched.Trace(s.jobs, s.seed, s.gapMs*1e9)
		if err != nil {
			return nil, err
		}
		rcsched.SetBudgets(jobs, s.budget)
		return jobs, nil
	}
	jobs, err := traffic.Stream(s.jobs, s.seed, s.spec)
	if err != nil {
		return nil, err
	}
	if s.budget == 0 {
		for i := range jobs {
			jobs[i].DeadlinePs = 0
		}
	} else if s.budget != rcsched.DefaultBudgetFactor {
		rcsched.SetBudgets(jobs, s.budget)
	}
	return jobs, nil
}

// run serves the stream once and prints the report — or, with -ramp,
// sweeps offered RPS up a linear ramp until the overload detector fires.
func (s *serving) run() error {
	if s.ramp {
		return s.sweep()
	}
	jobs, err := s.stream()
	if err != nil {
		return err
	}
	meter := s.tele.meter()
	if s.fleet != nil {
		fc := *s.fleet
		fc.Meter = meter // the fleet hands each board a child meter
		rep, err := fleet.Run(fc, jobs)
		if err != nil {
			return err
		}
		s.printFleet(rep)
	} else {
		board := s.board
		board.Meter = meter
		rep, err := rcsched.Serve(board, jobs)
		if err != nil {
			return err
		}
		if s.mode == "serve" {
			s.printServe(rep)
		} else {
			s.printSaturate(rep)
		}
	}
	return s.tele.export(meter)
}

// sweep ramps the offered rate from a quarter of -rps up to three times it
// and prints every step plus the knee; a fleet's detector window slides
// over the merged arrival order.
func (s *serving) sweep() error {
	run, who, window := traffic.ServeRunner(s.board), "board", ""
	if s.fleet != nil {
		run, who, window = s.fleet.Runner(), "fleet", ", window over the merged arrival order"
	}
	rps := s.spec.RPS
	res, err := traffic.FindKnee(run, s.spec, traffic.RampSpec{
		StartRPS: rps / 4,
		StepRPS:  rps / 4,
		Steps:    12,
		Jobs:     s.jobs,
		Seed:     s.seed,
	})
	if err != nil {
		return err
	}
	if s.fleet == nil {
		fmt.Printf("mode        saturate ramp (%s arrivals, %d jobs per step, seed %d)\n", s.spec.Process, s.jobs, s.seed)
		fmt.Printf("board       %s\n", s.board.Board)
	} else {
		fmt.Printf("mode        fleet ramp (%d boards, %s dispatch, %s arrivals, %d jobs per step, seed %d)\n",
			s.fleet.Boards, s.fleet.Dispatch, s.spec.Process, s.jobs, s.seed)
		fmt.Printf("board       %s x%d\n", s.board.Board, s.fleet.Boards)
	}
	fmt.Printf("policy      %s (%d slots, admission %s)\n", s.board.Policy, s.board.Slots, s.board.Admit)
	fmt.Printf("detector    >%.0f%% of any %d consecutive jobs failing%s\n",
		100*traffic.DefaultThreshold, traffic.DefaultWindow, window)
	fmt.Println("ramp        target | offered | achieved | goodput RPS | shed | miss | p99 ms")
	for _, p := range res.Points {
		over := ""
		if p.Overloaded {
			over = "  <- overloaded"
		}
		fmt.Printf("  %10.0f | %7.0f | %8.0f | %11.0f | %.2f | %.2f | %7.3f%s\n",
			p.RPS, p.OfferedRPS, p.AchievedRPS, p.GoodputRPS, p.ShedRate, p.MissRate,
			p.P99LatencyPs/1e9, over)
	}
	if res.SaturationRPS == 0 {
		fmt.Printf("knee        not reached: the %s keeps up through %.0f jobs/s\n",
			who, res.Points[len(res.Points)-1].RPS)
		return nil
	}
	fmt.Printf("knee        %.0f jobs/s (saturates at %.0f)\n", res.KneeRPS, res.SaturationRPS)
	return nil
}

func (s *serving) printServe(rep *rcsched.Report) {
	staging := "off"
	if s.board.Stage {
		staging = fmt.Sprintf("on (%d commits, %d cancels)", rep.StageCommits, rep.StageCancels)
	}
	fmt.Printf("mode        serve (%d jobs, seed %d, mean gap %.2f ms, budget factor %g)\n", s.jobs, s.seed, s.gapMs, s.budget)
	fmt.Printf("board       %s\n", rep.Board)
	fmt.Printf("policy      %s\n", rep.Policy)
	fmt.Printf("slots       %d\n", rep.Slots)
	fmt.Printf("config BW   %.0f KB/s\n", rep.ConfigBW/1000)
	fmt.Printf("staging     %s\n", staging)
	fmt.Printf("makespan    %.3f ms\n", rep.MakespanPs/1e9)
	fmt.Printf("mean wait   %.3f ms\n", rep.MeanWaitPs/1e9)
	fmt.Printf("mean lat.   %.3f ms\n", rep.MeanLatencyPs/1e9)
	fmt.Printf("p99 lat.    %.3f ms\n", rep.P99LatencyPs/1e9)
	fmt.Printf("deadlines   %d of %d missed (miss rate %.2f)\n", rep.Misses, len(rep.Jobs), rep.MissRate)
	fmt.Printf("reconfigs   %d (%.3f ms on the config port)\n", rep.Reconfigs, rep.TotalReconfigPs/1e9)
	fmt.Printf("utilisation %.2f mean across slots\n", rep.UtilMean)
	fmt.Printf("sw          %.3f ms DP, %.3f ms IMU, %.3f ms OS\n",
		rep.SWDPPs/1e9, rep.SWIMUPs/1e9, rep.SWOSPs/1e9)
	fmt.Printf("paging      %d faults, %d pages loaded, %d flushed\n",
		rep.VIM.Faults, rep.VIM.PagesLoaded, rep.VIM.PagesFlushed)
	fmt.Println("jobs        (all outputs verified against the golden algorithms)")
	printJobs(rep.Jobs, nil, true)
}

func (s *serving) printSaturate(rep *rcsched.Report) {
	fmt.Printf("mode        saturate (%s arrivals at %.0f jobs/s, %d jobs, seed %d, budget factor %g)\n",
		s.spec.Process, s.spec.RPS, s.jobs, s.seed, s.budget)
	fmt.Printf("board       %s\n", rep.Board)
	fmt.Printf("policy      %s (%d slots, admission %s)\n", rep.Policy, rep.Slots, s.board.Admit)
	printSummary(rep.Summary, rep.Jobs)
	fmt.Printf("utilisation %.2f mean across slots\n", rep.UtilMean)
	fmt.Println("jobs")
	printJobs(rep.Jobs, nil, false)
}

func (s *serving) printFleet(rep *fleet.Report) {
	boardOf := make(map[int]int, len(rep.Decisions))
	for _, d := range rep.Decisions {
		boardOf[d.Job] = d.Board
	}
	fmt.Printf("mode        fleet (%s arrivals at %.0f jobs/s, %d jobs, seed %d, budget factor %g)\n",
		s.spec.Process, s.spec.RPS, s.jobs, s.seed, s.budget)
	fmt.Printf("board       %s x%d (%d slots each)\n", s.board.Board, s.fleet.Boards, s.board.Slots)
	fmt.Printf("dispatch    %s\n", rep.Dispatch)
	fmt.Printf("policy      %s (admission %s)\n", s.board.Policy, s.board.Admit)
	printSummary(rep.Summary, rep.Jobs)
	fmt.Printf("reconfigs   %d (%.3f ms fleet-wide on the config ports)\n", rep.Reconfigs, rep.TotalReconfigPs/1e9)
	fmt.Printf("utilisation %.2f mean per board (spread %.2f-%.2f)\n", rep.UtilMean, rep.UtilMin, rep.UtilMax)
	fmt.Println("boards")
	for b, br := range rep.Boards {
		fmt.Printf("  board %-2d  %3d jobs  %2d reconfigs (%7.3f ms)  %2d missed  goodput %5.0f jobs/s\n",
			b, len(br.Jobs), br.Reconfigs, br.TotalReconfigPs/1e9, br.Misses, br.GoodputRPS)
	}
	fmt.Println("jobs        (merged arrival order)")
	printJobs(rep.Jobs, boardOf, false)
}

// printSummary prints the job-population block saturate and fleet share;
// jobs, in arrival order, feed the overload detector.
func printSummary(sum rcsched.Summary, jobs []rcsched.JobReport) {
	fmt.Printf("offered     %.0f jobs/s measured\n", sum.OfferedRPS)
	fmt.Printf("achieved    %.0f jobs/s (%d of %d completed)\n", sum.AchievedRPS, sum.Completed, len(jobs))
	fmt.Printf("goodput     %.0f jobs/s met their deadline\n", sum.GoodputRPS)
	fmt.Printf("admission   %d admitted, %d degraded, %d rejected (shed rate %.2f)\n",
		sum.Admitted, sum.Degraded, sum.Rejected, sum.ShedRate)
	fmt.Printf("overloaded  %v\n", traffic.Overloaded(jobs, 0, 0))
	fmt.Printf("makespan    %.3f ms\n", sum.MakespanPs/1e9)
	fmt.Printf("p99 lat.    %.3f ms (admitted only: %.3f ms)\n", sum.P99LatencyPs/1e9, sum.P99AdmittedPs/1e9)
	fmt.Printf("deadlines   %d missed (miss rate %.2f over completed)\n", sum.Misses, sum.MissRate)
}

// printJobs prints the per-job log. boardOf (fleet) puts the board each
// job was routed to in place of its slot; reconf (serve) appends how each
// job's slot was configured.
func printJobs(jobs []rcsched.JobReport, boardOf map[int]int, reconf bool) {
	for _, j := range jobs {
		head := fmt.Sprintf("  #%-3d %-7s %5d B  ", j.ID, j.App, j.Size)
		where := fmt.Sprintf("slot %d  ", j.Slot)
		if boardOf != nil {
			head += fmt.Sprintf("board %-2d ", boardOf[j.ID])
			where = ""
		}
		switch j.Disposition {
		case rcsched.Rejected:
			fmt.Printf("%sREJECTED at %7.3f ms (deadline %7.3f ms)\n", head, j.DonePs/1e9, j.DeadlinePs/1e9)
		case rcsched.Degraded:
			fmt.Printf("%sdegraded: SW exec %7.3f  done %7.3f  dl %7.3f ms\n",
				head, j.ExecPs/1e9, j.DonePs/1e9, j.DeadlinePs/1e9)
		default:
			slo := "met "
			if j.Missed {
				slo = fmt.Sprintf("LATE %+.2f", j.LatenessPs/1e9)
			}
			how := ""
			switch {
			case !reconf:
			case j.Staged:
				how = fmt.Sprintf("  staged %.3f ms", j.ReconfigPs/1e9)
			case j.Reconfigured:
				how = fmt.Sprintf("  reconfig %.2f ms", j.ReconfigPs/1e9)
			default:
				how = "  resident"
			}
			fmt.Printf("%s%sarrive %7.3f  wait %7.3f  exec %7.3f  done %7.3f  dl %7.3f ms %s%s\n",
				head, where, j.ArrivalPs/1e9, j.QueueWaitPs/1e9, j.ExecPs/1e9, j.DonePs/1e9, j.DeadlinePs/1e9, slo, how)
		}
	}
}

// validateRecord checks the record-mode flags that the flag table does not.
func validateRecord(scenarioPath, match string, tolerance float64) error {
	if scenarioPath == "" {
		return fmt.Errorf("record: -scenario must name the output file (try -scenario run.json)")
	}
	switch match {
	case "", scenario.Strict, scenario.Metrics:
	default:
		return fmt.Errorf("record: unknown -match %q (want strict or metrics)", match)
	}
	if tolerance < 0 {
		return fmt.Errorf("record: -tolerance must be non-negative, got %g", tolerance)
	}
	if tolerance != 0 && match != scenario.Metrics {
		return fmt.Errorf("record: -tolerance only applies with -match metrics")
	}
	return nil
}

// record executes the run with recording (and meter, when non-nil)
// attached and returns it as a scenario. The scenario's name is the file's
// base name; its description is the reconstructed command line, so a
// corpus stays greppable for how each pinned run was produced.
func (s *serving) record(path string, match scenario.Match, meter *telemetry.Meter) (*scenario.Scenario, error) {
	jobs, err := s.stream()
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), ".json")
	desc := fmt.Sprintf("vimsim -mode record -as %s -scenario %s -board %s -policy %s -slots %d -jobs %d -seed %d",
		s.mode, filepath.Base(path), s.board.Board, s.board.Policy, s.board.Slots, s.jobs, s.seed)
	if s.board.ConfigBW != 0 {
		desc += fmt.Sprintf(" -bw %g", s.board.ConfigBW)
	}
	if s.board.Stage {
		desc += " -stage"
	}
	if s.budget != rcsched.DefaultBudgetFactor {
		desc += fmt.Sprintf(" -budget %g", s.budget)
	}
	if s.mode == "serve" {
		desc += fmt.Sprintf(" -gap %g", s.gapMs)
	} else {
		desc += fmt.Sprintf(" -arrival %s -rps %g -admit %s", s.spec.Process, s.spec.RPS, s.board.Admit)
	}
	if s.fleet != nil {
		desc += fmt.Sprintf(" -boards %d -dispatch %s", s.fleet.Boards, s.fleet.Dispatch)
		fc := *s.fleet
		fc.Meter = meter
		return scenario.RecordFleet(name, desc, fc, jobs, match)
	}
	board := s.board
	board.Meter = meter
	return scenario.RecordServe(name, desc, board, jobs, match)
}

// writeScenario records the run into the scenario file at path and prints
// a summary.
func (s *serving) writeScenario(path string, match scenario.Match) error {
	meter := s.tele.meter()
	sc, err := s.record(path, match, meter)
	if err != nil {
		return err
	}
	data, err := scenario.Serialize(sc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	steps := len(sc.Expect.Events) + len(sc.Expect.Decisions)
	for _, ev := range sc.Expect.BoardEvents {
		steps += len(ev)
	}
	matching := sc.Match.Mode
	if matching == "" {
		matching = scenario.Strict
	}
	fmt.Printf("mode        record (-as %s)\n", s.mode)
	fmt.Printf("scenario    %s (%s, %s matching)\n", path, sc.Kind, matching)
	fmt.Printf("jobs        %d pinned (%d decision steps)\n", len(sc.Jobs), steps)
	fmt.Printf("makespan    %.3f ms\n", sc.Expect.Aggregate.MakespanPs/1e9)
	fmt.Printf("replay      vimsim -mode replay -scenario %s\n", path)
	return s.tele.export(meter)
}

// validateReplay checks the replay-mode flag combination.
func validateReplay(scenarioPath, match, format string) error {
	if scenarioPath == "" {
		return fmt.Errorf("replay: -scenario must name a scenario file or directory (try -scenario testdata/scenarios)")
	}
	switch match {
	case "", scenario.Strict, scenario.Metrics:
	default:
		return fmt.Errorf("replay: unknown -match %q (want strict or metrics)", match)
	}
	switch format {
	case "text", "json", "junit":
	default:
		return fmt.Errorf("replay: unknown -format %q (want text, json or junit)", format)
	}
	return nil
}

// runReplay replays one scenario file — or every *.json under a directory,
// the corpus case — and renders the results in the selected format. The
// boolean result is the overall verdict: false (a non-zero exit) when any
// scenario failed to parse or reproduce.
func runReplay(path, match, format, junitOut string, tele telemetryFlags) (bool, error) {
	info, err := os.Stat(path)
	if err != nil {
		return false, err
	}
	if tele.enabled() && info.IsDir() {
		return false, fmt.Errorf("replay: -metrics-out and -trace-out export exactly one replayed run, but %s is a corpus directory (replay one scenario file)", path)
	}
	files := []string{path}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return false, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			return false, fmt.Errorf("replay: no *.json scenarios under %s", path)
		}
	}
	results := make([]*scenario.Result, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return false, err
		}
		sc, err := scenario.Parse(data)
		if err != nil {
			// A broken file is a failing case, not a dead sweep: the rest
			// of the corpus still replays and the report names the culprit.
			results = append(results, &scenario.Result{
				Name: strings.TrimSuffix(filepath.Base(f), ".json"),
				Err:  err.Error(),
			})
			continue
		}
		// A single-file replay may carry telemetry: the metered re-run must
		// match the scenario exactly like an unmetered one (passivity), so
		// the exports double as a pinned-run telemetry snapshot.
		meter := tele.meter()
		res, err := scenario.ReplayMetered(sc, match, meter)
		if err != nil {
			return false, err
		}
		if err := tele.export(meter); err != nil {
			return false, err
		}
		results = append(results, res)
	}
	switch format {
	case "json":
		data, err := scenario.FormatJSON(results)
		if err != nil {
			return false, err
		}
		os.Stdout.Write(data)
	case "junit":
		data, err := scenario.FormatJUnit("vimsim-scenarios", results)
		if err != nil {
			return false, err
		}
		os.Stdout.Write(data)
	default:
		fmt.Print(scenario.FormatText(results))
	}
	if junitOut != "" {
		data, err := scenario.FormatJUnit("vimsim-scenarios", results)
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(junitOut, data, 0o644); err != nil {
			return false, err
		}
	}
	for _, r := range results {
		if !r.Pass() {
			return false, nil
		}
	}
	return true, nil
}
