// Differential, property and regression tests for the fleet dispatcher.
//
// The dispatcher's contract is that it is a pure routing layer: a one-board
// fleet is bit-identical to a plain rcsched.Serve run, routing replays
// deterministically from (stream, config, seed), and every policy's
// documented invariant is visible in its recorded decision trace.
package fleet_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// allDispatches is every routing policy, uninformed baseline first.
func allDispatches() []string {
	return []string{fleet.Random, fleet.LeastLoaded, fleet.Affinity, fleet.Po2}
}

// stream generates the canonical test stream: n Poisson arrivals at rps.
func stream(t *testing.T, n int, seed int64, rps float64) []rcsched.Job {
	t.Helper()
	jobs, err := traffic.Stream(n, seed, traffic.Spec{Process: traffic.Poisson, RPS: rps})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestOneBoardDifferential pins the dispatcher as a pure routing layer: a
// 1-board fleet under EVERY dispatch policy produces exactly the report a
// plain rcsched.Serve run produces — the board report bit for bit, the
// merged per-job reports, and every fleet aggregate — with admission control
// both off and rejecting.
func TestOneBoardDifferential(t *testing.T) {
	for _, admit := range []string{rcsched.AdmitOff, rcsched.AdmitReject} {
		jobs := stream(t, 40, 1717, 1600)
		board := rcsched.Config{Policy: "slack", Slots: 2, Admit: admit}
		plain, err := rcsched.Serve(board, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, dispatch := range allDispatches() {
			t.Run(dispatch+"/"+admit, func(t *testing.T) {
				rep, err := fleet.Run(fleet.Config{
					Boards: 1, Dispatch: dispatch, Seed: 42, Board: board,
				}, jobs)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Boards) != 1 {
					t.Fatalf("1-board fleet produced %d board reports", len(rep.Boards))
				}
				if !reflect.DeepEqual(rep.Boards[0], plain) {
					t.Errorf("board report diverges from plain rcsched.Serve:\n fleet %+v\n plain %+v",
						rep.Boards[0], plain)
				}
				if !reflect.DeepEqual(rep.Jobs, plain.Jobs) {
					t.Error("merged per-job reports diverge from plain rcsched.Serve")
				}
				for _, d := range rep.Decisions {
					if d.Board != 0 {
						t.Fatalf("job %d routed to board %d of a 1-board fleet", d.Job, d.Board)
					}
				}
				// Every aggregate the fleet report recomputes must equal the
				// single board's own aggregation — same formulas, same jobs.
				pairs := []struct {
					name      string
					got, want float64
				}{
					{"makespan", rep.MakespanPs, plain.MakespanPs},
					{"reconfig_ps", rep.TotalReconfigPs, plain.TotalReconfigPs},
					{"reconfigs", float64(rep.Reconfigs), float64(plain.Reconfigs)},
					{"p99", rep.P99LatencyPs, plain.P99LatencyPs},
					{"p99_admitted", rep.P99AdmittedPs, plain.P99AdmittedPs},
					{"misses", float64(rep.Misses), float64(plain.Misses)},
					{"miss_rate", rep.MissRate, plain.MissRate},
					{"admitted", float64(rep.Admitted), float64(plain.Admitted)},
					{"degraded", float64(rep.Degraded), float64(plain.Degraded)},
					{"rejected", float64(rep.Rejected), float64(plain.Rejected)},
					{"completed", float64(rep.Completed), float64(plain.Completed)},
					{"good_jobs", float64(rep.GoodJobs), float64(plain.GoodJobs)},
					{"offered_rps", rep.OfferedRPS, plain.OfferedRPS},
					{"achieved_rps", rep.AchievedRPS, plain.AchievedRPS},
					{"goodput_rps", rep.GoodputRPS, plain.GoodputRPS},
					{"shed_rate", rep.ShedRate, plain.ShedRate},
					{"util_mean", rep.UtilMean, plain.UtilMean},
					{"util_min", rep.UtilMin, plain.UtilMean},
					{"util_max", rep.UtilMax, plain.UtilMean},
				}
				for _, p := range pairs {
					if p.got != p.want {
						t.Errorf("%s = %v, plain rcsched.Serve says %v", p.name, p.got, p.want)
					}
				}
			})
		}
	}
}

// TestDispatchConservation pins the partition property over policy x boards
// x seeds: Route assigns every generated job to exactly one board, and the
// served fleet report carries every job exactly once with a recorded
// decision and a valid disposition.
func TestDispatchConservation(t *testing.T) {
	for _, dispatch := range allDispatches() {
		for _, boards := range []int{1, 2, 3, 4, 8} {
			for _, seed := range []int64{1, 7, 4242} {
				jobs := stream(t, 48, seed, 3200)
				cfg := fleet.Config{
					Boards: boards, Dispatch: dispatch, Seed: seed + 1,
					Board: rcsched.Config{Policy: "slack", Slots: 2, Admit: rcsched.AdmitReject},
				}
				subs, decisions, err := fleet.Route(cfg, jobs)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[int]int{}
				for _, sub := range subs {
					for _, j := range sub {
						seen[j.ID]++
					}
				}
				if len(decisions) != len(jobs) {
					t.Fatalf("%s/%d boards/seed %d: %d decisions for %d jobs",
						dispatch, boards, seed, len(decisions), len(jobs))
				}
				for _, j := range jobs {
					if seen[j.ID] != 1 {
						t.Fatalf("%s/%d boards/seed %d: job %d routed %d times",
							dispatch, boards, seed, j.ID, seen[j.ID])
					}
				}
				rep, err := fleet.Run(cfg, jobs)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Jobs) != len(jobs) {
					t.Fatalf("%s/%d boards/seed %d: fleet report carries %d of %d jobs",
						dispatch, boards, seed, len(rep.Jobs), len(jobs))
				}
				served := map[int]int{}
				for i := range rep.Jobs {
					j := &rep.Jobs[i]
					served[j.ID]++
					switch j.Disposition {
					case rcsched.Admitted, rcsched.Degraded, rcsched.Rejected:
					default:
						t.Fatalf("job %d has disposition %q", j.ID, j.Disposition)
					}
				}
				for _, j := range jobs {
					if served[j.ID] != 1 {
						t.Fatalf("%s/%d boards/seed %d: job %d appears %d times in the merged report",
							dispatch, boards, seed, j.ID, served[j.ID])
					}
				}
				if rep.Admitted+rep.Degraded+rep.Rejected != len(jobs) {
					t.Fatalf("%s/%d boards/seed %d: dispositions sum to %d, want %d", dispatch, boards, seed,
						rep.Admitted+rep.Degraded+rep.Rejected, len(jobs))
				}
			}
		}
	}
}

// TestIdleBoardsSummary pins a fleet wider than its stream: every idle
// board carries exactly the resolved {Board, Policy, Slots, ConfigBW} stub
// report — so its Summary is zero, which is also the fold of no jobs — the utilisation
// spread bottoms out at 0, and the fleet's and every board's Summary is
// the fold of its own jobs.
func TestIdleBoardsSummary(t *testing.T) {
	board := rcsched.Config{Policy: "slack", Slots: 2}
	rep, err := fleet.Run(fleet.Config{Boards: 8, Dispatch: fleet.LeastLoaded, Board: board}, stream(t, 3, 7, 800))
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for b, br := range rep.Boards {
		if br.Summary != rcsched.Summarize(br.Jobs) {
			t.Errorf("board %d Summary %+v is not the fold of its jobs", b, br.Summary)
		}
		if len(br.Jobs) > 0 {
			continue
		}
		idle++
		want := &rcsched.Report{Board: "EPXA4", Policy: board.Policy, Slots: board.Slots, ConfigBW: rcsched.DefaultConfigBW}
		if !reflect.DeepEqual(br, want) {
			t.Errorf("idle board %d report %+v, want exactly %+v", b, br, want)
		}
		if br.Summary != (rcsched.Summary{}) {
			t.Errorf("idle board %d carries a non-zero Summary %+v", b, br.Summary)
		}
	}
	if idle < 5 {
		t.Fatalf("fixture broken: %d idle boards of 8 for a 3-job stream", idle)
	}
	if rep.UtilMin != 0 {
		t.Errorf("UtilMin = %v with idle boards, want 0", rep.UtilMin)
	}
	if rep.UtilMax <= 0 {
		t.Errorf("UtilMax = %v with busy boards, want > 0", rep.UtilMax)
	}
	if rep.Summary != rcsched.Summarize(rep.Jobs) {
		t.Errorf("fleet Summary %+v is not the fold of the merged jobs %+v",
			rep.Summary, rcsched.Summarize(rep.Jobs))
	}
}

// TestFleetAllRejectedZeroAggregates is the fleet mirror of rcsched's
// TestAdmissionAllRejectedZeroAggregates: when every job is shed on every
// board, each divided aggregate is an explicit 0 — never a NaN from an
// empty completion set or a zero makespan — and the shed rate is 1.
func TestFleetAllRejectedZeroAggregates(t *testing.T) {
	jobs := stream(t, 12, 7, 3200)
	for i := range jobs {
		jobs[i].DeadlinePs = jobs[i].ArrivalPs + 1 // 1 ps budget: provably unmeetable
	}
	rep, err := fleet.Run(fleet.Config{
		Boards: 3, Dispatch: fleet.LeastLoaded,
		Board: rcsched.Config{Policy: "slack", Slots: 2, Admit: rcsched.AdmitReject},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != len(jobs) || rep.Completed != 0 {
		t.Fatalf("want everything rejected: %d rejected, %d completed", rep.Rejected, rep.Completed)
	}
	for name, v := range map[string]float64{
		"MakespanPs":    rep.MakespanPs,
		"P99LatencyPs":  rep.P99LatencyPs,
		"P99AdmittedPs": rep.P99AdmittedPs,
		"MissRate":      rep.MissRate,
		"AchievedRPS":   rep.AchievedRPS,
		"GoodputRPS":    rep.GoodputRPS,
		"UtilMean":      rep.UtilMean,
		"UtilMin":       rep.UtilMin,
		"UtilMax":       rep.UtilMax,
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("%s = %v on an all-rejected fleet run, want explicit 0", name, v)
		}
	}
	if rep.ShedRate != 1 {
		t.Errorf("ShedRate = %v, want 1", rep.ShedRate)
	}
}

// TestDispatchReplayDeterminism pins routing as a function of (stream,
// config, seed): two full fleet runs of the same triple are identical down
// to the decision trace and every per-board report — for the randomised
// policies in particular, the seed fully determines the draw sequence.
func TestDispatchReplayDeterminism(t *testing.T) {
	jobs := stream(t, 64, 7, 6400)
	for _, dispatch := range allDispatches() {
		cfg := fleet.Config{
			Boards: 4, Dispatch: dispatch, Seed: 99,
			Board: rcsched.Config{Policy: "slack", Slots: 2},
		}
		a, err := fleet.Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fleet.Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the same (stream, config, seed) diverged", dispatch)
		}
	}
}

// TestLeastLoadedNeverBusier pins the least-loaded invariant on the decision
// trace: at every decision epoch the chosen board's modelled backlog is no
// larger than any other board's, and ties break to the lowest index.
func TestLeastLoadedNeverBusier(t *testing.T) {
	for _, boards := range []int{2, 4, 8} {
		for _, seed := range []int64{1, 7, 4242} {
			jobs := stream(t, 48, seed, 1600*float64(boards))
			_, decisions, err := fleet.Route(fleet.Config{
				Boards: boards, Dispatch: fleet.LeastLoaded, Seed: seed,
				Board: rcsched.Config{Policy: "slack", Slots: 2},
			}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decisions {
				for b, load := range d.LoadsPs {
					if load < d.LoadsPs[d.Board] {
						t.Fatalf("%d boards/seed %d: job %d went to board %d (backlog %.0f ps) while board %d sat at %.0f ps",
							boards, seed, d.Job, d.Board, d.LoadsPs[d.Board], b, load)
					}
					if b < d.Board && load == d.LoadsPs[d.Board] {
						t.Fatalf("%d boards/seed %d: job %d tie broke upward to board %d over board %d",
							boards, seed, d.Job, d.Board, b)
					}
				}
			}
		}
	}
}

// TestAffinityRoutesToResident pins the affinity invariant on the decision
// trace: whenever any board is modelled as holding the job's bitstream with
// backlog under the bound, the chosen board is such a board — so the
// dispatcher never charges a configuration stream it could have avoided.
func TestAffinityRoutesToResident(t *testing.T) {
	for _, boards := range []int{2, 4, 8} {
		for _, seed := range []int64{1, 7, 4242} {
			jobs := stream(t, 48, seed, 1600*float64(boards))
			_, decisions, err := fleet.Route(fleet.Config{
				Boards: boards, Dispatch: fleet.Affinity, Seed: seed,
				Board: rcsched.Config{Policy: "slack", Slots: 2},
			}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decisions {
				accepting := false
				for b := range d.Resident {
					if d.Resident[b] && d.LoadsPs[b] <= fleet.DefaultBoundPs {
						accepting = true
						break
					}
				}
				if accepting && !d.Resident[d.Board] {
					t.Fatalf("%d boards/seed %d: job %d reconfigures board %d while an accepting board held its bitstream",
						boards, seed, d.Job, d.Board)
				}
			}
		}
	}
}

// TestAffinityNoReconfigAtModerateLoad is the serving-level form of the
// affinity invariant: at moderate load (no board ever past the bound) a
// stream of repeating applications triggers at most one reconfig-charging
// dispatch per application — after first placement, every job is routed to
// a board modelled as holding its bitstream — and the boards themselves
// reconfigure at most once per application per slot (a board may warm the
// same bitstream into both of its slots, but never re-loads over residency).
func TestAffinityNoReconfigAtModerateLoad(t *testing.T) {
	const slots = 2
	jobs := stream(t, 48, 7, 400) // well under one board's knee
	apps := map[string]bool{}
	for _, j := range jobs {
		apps[j.App] = true
	}
	rep, err := fleet.Run(fleet.Config{
		Boards: 4, Dispatch: fleet.Affinity, Seed: 99,
		Board: rcsched.Config{Policy: "slack", Slots: slots},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for _, d := range rep.Decisions {
		for _, load := range d.LoadsPs {
			if load > fleet.DefaultBoundPs {
				t.Skipf("stream no longer moderate: modelled backlog %.0f ps past the bound", load)
			}
		}
		if !d.Resident[d.Board] {
			cold++
		}
	}
	if cold > len(apps) {
		t.Errorf("affinity charged %d cold dispatches for %d distinct applications — residency not being reused",
			cold, len(apps))
	}
	if rep.Reconfigs > len(apps)*slots {
		t.Errorf("affinity fleet reconfigured %d times serving %d applications on %d-slot boards (want <= %d)",
			rep.Reconfigs, len(apps), slots, len(apps)*slots)
	}
}

// TestFleetKneeOnMergedReports is the regression test for overload
// detection on aggregated fleet reports: the detector must slide its window
// over the jobs of ALL boards merged back into arrival order — per-board
// concatenation both hides failure runs that span boards and manufactures
// runs across the seams — and the merge must carry every job exactly once.
func TestFleetKneeOnMergedReports(t *testing.T) {
	fail := rcsched.JobReport{Disposition: rcsched.Rejected}
	ok := rcsched.JobReport{Disposition: rcsched.Admitted}
	at := func(j rcsched.JobReport, id int, ps float64) rcsched.JobReport {
		j.ID, j.ArrivalPs = id, ps
		return j
	}

	// Two boards, failures alternating between them in arrival order: each
	// board alone sees 3 failures spread over its 12 jobs (a quarter of any
	// window — under the 30% threshold), but the merged order carries a run
	// of 6 consecutive failures — overloaded by any honest window.
	var boardA, boardB, merged []rcsched.JobReport
	for i := 0; i < 24; i++ {
		j := ok
		if i >= 8 && i < 14 { // jobs 8..13 fail, alternating boards
			j = fail
		}
		j = at(j, i, float64(i+1)*1e9)
		merged = append(merged, j)
		if i%2 == 0 {
			boardA = append(boardA, j)
		} else {
			boardB = append(boardB, j)
		}
	}
	if traffic.Overloaded(boardA, 0, 0) || traffic.Overloaded(boardB, 0, 0) {
		t.Fatal("fixture broken: a single board should look healthy on its own")
	}
	if !traffic.Overloaded(merged, 0, 0) {
		t.Fatal("fixture broken: the merged order should carry an overload run")
	}
	if traffic.Overloaded(append(append([]rcsched.JobReport{}, boardA...), boardB...), 0, 0) {
		t.Error("per-board concatenation detected the cross-board run only by luck; fixture needs retuning")
	}

	// The converse seam hazard: two boards each ending in a short healthy
	// tail after early failures. Concatenating boards butts board A's late
	// failures against board B's early ones — a run that never happened.
	var tailA, tailB []rcsched.JobReport
	for i := 0; i < 12; i++ {
		j := ok
		if i >= 9 { // board A fails at the end...
			j = fail
		}
		tailA = append(tailA, at(j, i, float64(i+1)*1e9))
	}
	for i := 0; i < 12; i++ {
		j := ok
		if i < 3 { // ...board B at the beginning, in overlapping real time
			j = fail
		}
		tailB = append(tailB, at(j, 100+i, float64(i+1)*1e9+0.5e9))
	}
	concat := append(append([]rcsched.JobReport{}, tailA...), tailB...)
	if !traffic.Overloaded(concat, 0, 0) {
		t.Fatal("fixture broken: the concatenation seam should manufacture a failure run")
	}
	var interleaved []rcsched.JobReport
	for i := range tailA { // true arrival order interleaves the boards
		interleaved = append(interleaved, tailA[i], tailB[i])
	}
	if traffic.Overloaded(interleaved, 0, 0) {
		t.Error("true arrival order flagged overload: the failures were never consecutive")
	}

	// End to end on a real fleet: the merged report's job list carries
	// every board's jobs exactly once, in strict arrival order, and the
	// detector over it trips for a fleet offered far past its capacity.
	jobs := stream(t, 96, 7, 25600)
	rep, err := fleet.Run(fleet.Config{
		Boards: 2, Dispatch: fleet.Random, Seed: 99,
		Board: rcsched.Config{Policy: "slack", Slots: 2},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var hand []rcsched.JobReport
	for _, br := range rep.Boards {
		hand = append(hand, br.Jobs...)
	}
	if len(hand) != len(rep.Jobs) {
		t.Fatalf("merge double-counts: %d jobs across boards, %d in the fleet report", len(hand), len(rep.Jobs))
	}
	for i := 1; i < len(rep.Jobs); i++ {
		if rep.Jobs[i].ArrivalPs < rep.Jobs[i-1].ArrivalPs {
			t.Fatal("fleet report's merged jobs are not in arrival order")
		}
	}
	if !traffic.Overloaded(rep.Jobs, 0, 0) {
		t.Error("a 2-board fleet offered 16x its per-board knee did not read as overloaded")
	}

	// And the fleet ramp finds a knee strictly below its saturation rate.
	ramp, err := traffic.FindKnee(fleet.Config{
		Boards: 2, Dispatch: fleet.LeastLoaded, Seed: 99,
		Board: rcsched.Config{Policy: "slack", Slots: 2},
	}.Runner(), traffic.Spec{Process: traffic.Poisson}, traffic.RampSpec{
		StartRPS: 1600, StepRPS: 1600, Steps: 10, Jobs: 36, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ramp.SaturationRPS == 0 || ramp.KneeRPS <= 0 || ramp.KneeRPS >= ramp.SaturationRPS {
		t.Errorf("fleet ramp found knee %.0f / saturation %.0f", ramp.KneeRPS, ramp.SaturationRPS)
	}
}

// TestFleetStressRace is the dedicated race-detector stress case: many
// boards serving bursty overload concurrently, twice per policy, with the
// two runs required to agree bit for bit. Kept fast enough for -short so
// the -race CI job always exercises the concurrent serving path.
func TestFleetStressRace(t *testing.T) {
	jobs, err := traffic.Stream(96, 4242, traffic.Spec{Process: traffic.Bursty, RPS: 12800})
	if err != nil {
		t.Fatal(err)
	}
	for _, dispatch := range allDispatches() {
		cfg := fleet.Config{
			Boards: 12, Dispatch: dispatch, Seed: 1,
			Board: rcsched.Config{Policy: "slack", Slots: 2, Admit: rcsched.AdmitReject},
		}
		a, err := fleet.Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fleet.Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: concurrent board serving perturbed the report across runs", dispatch)
		}
		if got := a.Admitted + a.Degraded + a.Rejected; got != len(jobs) {
			t.Errorf("%s: dispositions sum to %d, want %d", dispatch, got, len(jobs))
		}
	}
}

// TestFleetConfigValidation pins the error surface: bad board counts, empty
// streams, bad slot counts and unknown dispatch policies are rejected with
// errors, never panics or silent defaults.
func TestFleetConfigValidation(t *testing.T) {
	jobs := stream(t, 8, 1, 800)
	board := rcsched.Config{Policy: "slack", Slots: 2}
	cases := []struct {
		name string
		cfg  fleet.Config
		jobs []rcsched.Job
	}{
		{"zero boards", fleet.Config{Boards: 0, Board: board}, jobs},
		{"negative boards", fleet.Config{Boards: -2, Board: board}, jobs},
		{"empty stream", fleet.Config{Boards: 2, Board: board}, nil},
		{"zero slots", fleet.Config{Boards: 2, Board: rcsched.Config{Policy: "slack"}}, jobs},
		{"unknown dispatch", fleet.Config{Boards: 2, Dispatch: "round-robin", Board: board}, jobs},
	}
	for _, c := range cases {
		if _, err := fleet.Run(c.cfg, c.jobs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The default dispatch is least-loaded, and a negative-seed rng must not
	// panic either.
	rep, err := fleet.Run(fleet.Config{Boards: 2, Seed: -7, Board: board}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dispatch != fleet.LeastLoaded {
		t.Errorf("empty dispatch resolved to %q, want %q", rep.Dispatch, fleet.LeastLoaded)
	}
	if math.IsNaN(rep.GoodputRPS) || math.IsNaN(rep.MissRate) || math.IsNaN(rep.ShedRate) {
		t.Error("fleet aggregates contain NaN on a healthy run")
	}
}

// TestFleetSchedulerAgreement runs one stressed fleet under the lockstep
// reference scheduler and the event-driven default and requires bit-equal
// reports — the dispatch-epoch determinism note made executable outside the
// golden suite.
func TestFleetSchedulerAgreement(t *testing.T) {
	jobs := stream(t, 48, 7, 6400)
	for _, dispatch := range allDispatches() {
		cfg := fleet.Config{
			Boards: 4, Dispatch: dispatch, Seed: 99,
			Board: rcsched.Config{Policy: "slack", Slots: 2, Admit: rcsched.AdmitReject},
		}
		prev := sim.SetDefaultScheduler(sim.Lockstep)
		lock, lockErr := fleet.Run(cfg, jobs)
		sim.SetDefaultScheduler(sim.EventDriven)
		evnt, evntErr := fleet.Run(cfg, jobs)
		sim.SetDefaultScheduler(prev)
		if lockErr != nil || evntErr != nil {
			t.Fatal(lockErr, evntErr)
		}
		if !reflect.DeepEqual(lock, evnt) {
			t.Errorf("%s: lockstep and event-driven schedulers disagree on the fleet report", dispatch)
		}
	}
}

// TestRunRejectsBadJobs: a job no board can serve is rejected by the
// router before any board goroutine starts. A negative size used to panic
// inside a board's Serve, on its goroutine, killing the whole process.
func TestRunRejectsBadJobs(t *testing.T) {
	for name, bad := range map[string]rcsched.Job{
		"negative-size": {ID: 1, App: "adpcm", Size: -8, Seed: 2},
		"nan-arrival":   {ID: 1, App: "adpcm", Size: 1024, ArrivalPs: math.NaN(), Seed: 2},
	} {
		t.Run(name, func(t *testing.T) {
			jobs := []rcsched.Job{{ID: 0, App: "idea", Size: 1024, Seed: 1}, bad}
			cfg := fleet.Config{Boards: 2, Dispatch: fleet.Affinity, Board: rcsched.Config{Slots: 2}}
			if _, err := fleet.Run(cfg, jobs); err == nil {
				t.Fatal("fleet.Run accepted a bad job")
			}
			if _, _, err := fleet.Route(cfg, jobs); err == nil {
				t.Fatal("fleet.Route accepted a bad job")
			}
		})
	}
}

// TestIdleBoardStubResolved is the regression test for an idle board's
// stub report carrying the unresolved per-board config (Board "", Policy
// "", ConfigBW 0) while the served boards carry the resolved EPXA4, fcfs
// and DefaultConfigBW: every board of one fleet must describe the same
// board configuration, served or not.
func TestIdleBoardStubResolved(t *testing.T) {
	rep, err := fleet.Run(fleet.Config{Boards: 3, Dispatch: fleet.Affinity,
		Board: rcsched.Config{Slots: 2}}, stream(t, 1, 7, 800))
	if err != nil {
		t.Fatal(err)
	}
	served := -1
	for b, br := range rep.Boards {
		if len(br.Jobs) > 0 {
			served = b
		}
	}
	if served < 0 {
		t.Fatal("no board served the job")
	}
	want := rep.Boards[served]
	for b, br := range rep.Boards {
		if br.Board != want.Board || br.Policy != want.Policy || br.Slots != want.Slots || br.ConfigBW != want.ConfigBW {
			t.Errorf("board %d describes {%q %q %d %g}, served board %d {%q %q %d %g}",
				b, br.Board, br.Policy, br.Slots, br.ConfigBW,
				served, want.Board, want.Policy, want.Slots, want.ConfigBW)
		}
	}
}
