package scenario

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/rcsched"
)

// testStream is a small canonical-shaped trace: n multi-user jobs with the
// SERVE experiment's seed and mean gap.
func testStream(t *testing.T, n int) []rcsched.Job {
	t.Helper()
	jobs, err := rcsched.Trace(n, 4242, 0.15e9)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func recordServe(t *testing.T, cfg rcsched.Config, jobs []rcsched.Job) *Scenario {
	t.Helper()
	sc, err := RecordServe("test-serve", "unit fixture", cfg, jobs, Match{})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// roundTrip pushes the scenario through Serialize/Parse, proving every
// pinned value survives the file format bit for bit.
func roundTrip(t *testing.T, sc *Scenario) *Scenario {
	t.Helper()
	data, err := Serialize(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("re-parse of a just-serialized scenario: %v", err)
	}
	return back
}

// TestRecordReplayServe records a small serve run, round-trips it through
// the file format and replays it strictly: the replay must reproduce every
// event, job report and aggregate bit for bit.
func TestRecordReplayServe(t *testing.T) {
	cfgs := []rcsched.Config{
		{Slots: 2, Policy: "affinity"},
		{Slots: 2, Policy: "slack", Stage: true, ConfigBW: 250_000},
	}
	for _, cfg := range cfgs {
		jobs := testStream(t, 8)
		if cfg.Policy == "slack" {
			rcsched.SetBudgets(jobs, 1)
		}
		sc := roundTrip(t, recordServe(t, cfg, jobs))
		res, err := Replay(sc, "")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass() {
			t.Fatalf("%s replay diverged:\n%s", cfg.Policy, res.Text())
		}
		if res.Steps == 0 {
			t.Errorf("%s replay matched zero steps; the event stream was not recorded", cfg.Policy)
		}
		if len(sc.Expect.Events) == 0 {
			t.Errorf("%s scenario pinned no events", cfg.Policy)
		}
	}
}

// TestRecordReplayFleet does the same over a 2-board fleet run, including
// the routing decisions and per-board event streams.
func TestRecordReplayFleet(t *testing.T) {
	jobs := testStream(t, 12)
	cfg := fleet.Config{
		Boards:   2,
		Dispatch: fleet.Affinity,
		Seed:     99,
		Board:    rcsched.Config{Slots: 2, Policy: "affinity"},
	}
	sc, err := RecordFleet("test-fleet", "unit fixture", cfg, jobs, Match{})
	if err != nil {
		t.Fatal(err)
	}
	sc = roundTrip(t, sc)
	if len(sc.Expect.Decisions) != len(jobs) {
		t.Fatalf("pinned %d decisions for %d jobs", len(sc.Expect.Decisions), len(jobs))
	}
	res, err := Replay(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Fatalf("fleet replay diverged:\n%s", res.Text())
	}
}

// TestReplayCatchesPerturbations injects single-step corruptions into a
// recorded scenario — the acceptance property: each is caught, and the
// reported first divergence names the right step and field.
func TestReplayCatchesPerturbations(t *testing.T) {
	base := recordServe(t, rcsched.Config{Slots: 2, Policy: "affinity"}, testStream(t, 8))
	cases := []struct {
		name   string
		mutate func(*Scenario)
		where  string // substring the divergence location must carry
		field  string
	}{
		{
			name:   "wrong-slot",
			mutate: func(sc *Scenario) { sc.Expect.Jobs[3].Slot ^= 1 },
			where:  "job", field: "slot",
		},
		{
			name:   "late-completion",
			mutate: func(sc *Scenario) { sc.Expect.Jobs[5].DonePs += 1e9 },
			where:  "job", field: "done_ps",
		},
		{
			name: "flipped-disposition",
			mutate: func(sc *Scenario) {
				sc.Expect.Jobs[2].Disposition = string(rcsched.Rejected)
			},
			where: "job", field: "disposition",
		},
		{
			name: "missing-job",
			mutate: func(sc *Scenario) {
				sc.Expect.Jobs = append(sc.Expect.Jobs[:4], sc.Expect.Jobs[5:]...)
			},
			where: "job",
		},
		{
			name: "event-slot",
			mutate: func(sc *Scenario) {
				for i := range sc.Expect.Events {
					if sc.Expect.Events[i].Kind == rcsched.EventDispatch {
						sc.Expect.Events[i].Slot ^= 1
						return
					}
				}
			},
			where: "event[", field: "slot",
		},
		{
			name: "event-path",
			mutate: func(sc *Scenario) {
				for i := range sc.Expect.Events {
					if sc.Expect.Events[i].Kind == rcsched.EventDispatch {
						sc.Expect.Events[i].Path = DispatchPathFlip(sc.Expect.Events[i].Path)
						return
					}
				}
			},
			where: "event[", field: "path",
		},
		{
			name:   "aggregate",
			mutate: func(sc *Scenario) { sc.Expect.Aggregate.Reconfigs++ },
			where:  "aggregate", field: "reconfigs",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := roundTrip(t, base) // deep copy via the file format
			c.mutate(sc)
			res, err := Replay(sc, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Pass() {
				t.Fatal("perturbation not caught")
			}
			if len(res.Divergences) != 1 {
				t.Fatalf("want exactly the first divergence, got %d", len(res.Divergences))
			}
			d := res.Divergences[0]
			if !strings.Contains(d.Where, c.where) {
				t.Errorf("divergence at %q, want location containing %q", d.Where, c.where)
			}
			if c.field != "" && d.Field != c.field {
				t.Errorf("divergence field %q, want %q", d.Field, c.field)
			}
			if !strings.Contains(res.Text(), "first divergence at") {
				t.Errorf("text diff lacks the first-divergence line:\n%s", res.Text())
			}

			// Every caught perturbation must also render as a failing
			// JUnit case carrying the diff.
			xmlOut, err := FormatJUnit("scenarios", []*Result{res})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(xmlOut), `failures="1"`) {
				t.Errorf("JUnit suite does not count the failure:\n%s", xmlOut)
			}
			if !strings.Contains(string(xmlOut), "diverged at") {
				t.Errorf("JUnit case lacks the divergence message:\n%s", xmlOut)
			}
		})
	}
}

// DispatchPathFlip swaps a dispatch path annotation for a different valid
// one (test helper for the path-perturbation case).
func DispatchPathFlip(p string) string {
	if p == rcsched.DispatchResident {
		return rcsched.DispatchStream
	}
	return rcsched.DispatchResident
}

// TestMetricsMode relaxes the comparison to aggregate tolerances: a small
// in-tolerance nudge passes, a gross one fails, and the strict override
// still catches everything.
func TestMetricsMode(t *testing.T) {
	sc := recordServe(t, rcsched.Config{Slots: 2, Policy: "fcfs"}, testStream(t, 8))
	sc.Match = Match{Mode: Metrics, Tolerance: 0.05}
	sc.Expect.Aggregate.MakespanPs *= 1.01 // within 5%
	sc.Expect.Jobs[0].Slot ^= 1            // metrics mode never looks at this
	res, err := Replay(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Fatalf("in-tolerance metrics replay failed:\n%s", res.Text())
	}

	res, err = Replay(sc, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Fatal("strict override ignored the perturbations")
	}

	sc.Expect.Aggregate.MakespanPs *= 1.2 // way outside 5%
	res, err = Replay(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Fatal("out-of-tolerance metrics replay passed")
	}
	if res.Divergences[0].Where != "aggregate" {
		t.Errorf("metrics divergence at %q, want aggregate", res.Divergences[0].Where)
	}
}

// TestParseRejects pins the error behaviour on bad files: malformed,
// truncated, mistagged, version-skewed and structurally invalid scenarios
// all error cleanly.
func TestParseRejects(t *testing.T) {
	good, err := Serialize(recordServe(t, rcsched.Config{Slots: 2, Policy: "fcfs"}, testStream(t, 4)))
	if err != nil {
		t.Fatal(err)
	}
	fsc, err := RecordFleet("test-fleet", "", fleet.Config{Boards: 2, Dispatch: fleet.Po2,
		Board: rcsched.Config{Slots: 2, Policy: "fcfs"}}, testStream(t, 4), Match{})
	if err != nil {
		t.Fatal(err)
	}
	goodFleet, err := Serialize(fsc)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(data []byte, old, new string) []byte {
		if !strings.Contains(string(data), old) {
			t.Fatalf("fixture lacks %q", old)
		}
		return []byte(strings.Replace(string(data), old, new, 1))
	}
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", []byte{}, "malformed"},
		{"not-json", []byte("#!/bin/sh\n"), "malformed"},
		{"truncated", good[:len(good)/2], "malformed"},
		{"wrong-format", []byte(`{"format":"something-else","version":1}`), "not a scenario file"},
		{"version-skew", []byte(strings.Replace(string(good), `"version": 1`, `"version": 99`, 1)), "version 99 unsupported"},
		{"no-jobs", []byte(strings.Replace(string(good), `"kind": "serve"`, `"kind": "warp"`, 1)), `unknown kind "warp"`},
		// Unresolvable configs fail at parse time, not mid-replay.
		{"unknown-policy", edit(good, `"policy": "fcfs"`, `"policy": "lottery"`), `unknown policy "lottery"`},
		{"unknown-admit", edit(good, `"admit": "off"`, `"admit": "shed"`), `unknown admission mode "shed"`},
		{"unknown-board", edit(good, `"board": "EPXA4"`, `"board": "EPXA9"`), `unknown board "EPXA9"`},
		{"unknown-dispatch", edit(goodFleet, `"dispatch": "po2"`, `"dispatch": "round-robin"`), `unknown dispatch policy "round-robin"`},
		{"zero-slots", edit(good, `"slots": 2`, `"slots": 0`), "positive slot count"},
		{"unresolved-policy", edit(good, `"policy": "fcfs"`, `"policy": ""`), "not fully resolved"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.data)
			if err == nil {
				t.Fatal("parse accepted a bad file")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
