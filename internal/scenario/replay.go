package scenario

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/rcsched"
	"repro/internal/telemetry"
)

// Result is the outcome of replaying one scenario.
type Result struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Mode is the match mode the comparison actually ran under.
	Mode string `json:"mode"`
	// Steps counts the decision-stream steps (events and routing
	// decisions) that matched before the comparison stopped.
	Steps int `json:"steps"`
	// Divergences is empty on a pass; otherwise its first entry is the
	// earliest divergence in replay order (decisions, then per-board
	// events, then job reports, then aggregates).
	Divergences []Divergence `json:"divergences,omitempty"`
	// Err is a replay execution failure (the run itself refused or died),
	// as opposed to a comparison mismatch.
	Err string `json:"error,omitempty"`
}

// Pass reports whether the replay reproduced the scenario.
func (r *Result) Pass() bool { return r.Err == "" && len(r.Divergences) == 0 }

// Replay re-executes the scenario's run from its recorded configuration
// and arrival stream, then matches the outcome against the expectations.
// modeOverride forces Strict or Metrics regardless of the file ("" keeps
// the file's mode). Execution failures land in Result.Err so a corpus
// sweep can keep going; only a nonsensical override is an error here.
func Replay(sc *Scenario, modeOverride string) (*Result, error) {
	return ReplayMetered(sc, modeOverride, nil)
}

// ReplayMetered is Replay with a telemetry meter attached to the replayed
// run. Telemetry is strictly passive, so a metered replay must match the
// scenario exactly as an unmetered one does — the corpus doubles as the
// telemetry regression suite.
func ReplayMetered(sc *Scenario, modeOverride string, m *telemetry.Meter) (*Result, error) {
	match := sc.Match
	switch modeOverride {
	case "":
	case Strict, Metrics:
		match.Mode = modeOverride
	default:
		return nil, fmt.Errorf("scenario: unknown match mode %q", modeOverride)
	}
	res := &Result{Name: sc.Name, Kind: sc.Kind, Mode: match.effectiveMode()}

	// Re-recording the reconstructed run reuses the exact capture path the
	// original recording took: same event logs, same resolution, same
	// ordering — the comparison is recording against recording.
	var re *Scenario
	var err error
	switch sc.Kind {
	case KindServe:
		cfg := sc.serveConfig()
		cfg.Meter = m
		re, err = RecordServe(sc.Name, "", cfg, jobsOf(sc.Jobs), match)
	case KindFleet:
		cfg := sc.fleetConfig()
		cfg.Meter = m
		re, err = RecordFleet(sc.Name, "", cfg, jobsOf(sc.Jobs), match)
	default:
		err = fmt.Errorf("scenario %s: unknown kind %q", sc.Name, sc.Kind)
	}
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	if res.Mode == Metrics {
		res.Divergences = compareAggregate(&sc.Expect.Aggregate, &re.Expect.Aggregate, match.effectiveTol())
	} else {
		res.Steps, res.Divergences = compareStrict(&sc.Expect, &re.Expect)
	}
	return res, nil
}

// serveConfig rebuilds the rcsched configuration the scenario pinned.
func (sc *Scenario) serveConfig() rcsched.Config {
	return rcsched.Config{
		Board:         sc.Serve.Board,
		Slots:         sc.Serve.Slots,
		ShellHz:       sc.Serve.ShellHz,
		Policy:        sc.Serve.Policy,
		ConfigBW:      sc.Serve.ConfigBW,
		Stage:         sc.Serve.Stage,
		Admit:         sc.Serve.Admit,
		FramesPerSlot: sc.Serve.FramesPerSlot,
	}
}

// fleetConfig rebuilds the fleet configuration the scenario pinned.
func (sc *Scenario) fleetConfig() fleet.Config {
	return fleet.Config{
		Boards:   sc.Fleet.Boards,
		Dispatch: sc.Fleet.Dispatch,
		Seed:     sc.Fleet.Seed,
		BoundPs:  sc.Fleet.BoundPs,
		Board:    sc.serveConfig(),
	}
}
