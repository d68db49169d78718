// Package scenario is the record/replay regression harness: it captures a
// serve or fleet run — the full resolved configuration, the arrival stream,
// every dispatch decision and per-job outcome, and the aggregate report —
// into a versioned JSON scenario file, and replays such a file by
// re-executing the run and matching it step by step. Strict matching
// demands bit-identical event streams, job reports and aggregates (Go's
// JSON encoder round-trips float64 exactly, so pinning through JSON loses
// nothing); metrics matching relaxes the comparison to aggregate values
// within a relative tolerance. Divergences come back as human-readable
// first-divergence diffs and render as text, JSON or JUnit for CI.
//
// Recording reads the decision logs the serving layers keep in their
// reports (rcsched.Report.Events per board, fleet.Report.Decisions for
// routing), so a recorded run is the plain run itself — any run worth
// keeping can be promoted into the corpus under testdata/scenarios/
// exactly as it happened. The scenario-file design follows the cli-replay
// related repo.
package scenario

import (
	"encoding/json"
	"fmt"
)

// Format is the magic tag every scenario file carries.
const Format = "vimsim-scenario"

// Version is the scenario format version this build reads and writes.
// Readers accept any file with version in [1, Version]: fields added by a
// later minor revision are simply absent from older files, and a file
// newer than the build is refused rather than half-parsed.
const Version = 1

// Match modes.
const (
	// Strict demands bit-identical event streams, job reports and
	// aggregates — the default, and what the corpus test enforces.
	Strict = "strict"
	// Metrics compares only the aggregate report, each value within
	// Match.Tolerance relative error — for pinning noisy-environment runs
	// where the shape matters more than the bits.
	Metrics = "metrics"
)

// DefaultTolerance is the metrics-mode relative tolerance when the file
// does not set one.
const DefaultTolerance = 0.01

// Scenario kinds.
const (
	KindServe = "serve" // one rcsched.Serve run
	KindFleet = "fleet" // one fleet.Run (dispatch + per-board serves)
)

// Scenario is one recorded run: everything needed to re-execute it (config
// and jobs) plus everything it produced (the expectations).
type Scenario struct {
	Format      string `json:"format"`
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Kind        string `json:"kind"`
	Match       Match  `json:"match"`

	// Serve is the resolved single-board serving configuration; for
	// KindFleet it is the per-board config and Fleet adds the dispatch
	// layer on top.
	Serve ServeConfig  `json:"serve"`
	Fleet *FleetConfig `json:"fleet,omitempty"`

	// Jobs is the explicit arrival stream — recorded verbatim so replay
	// does not depend on any generator staying stable.
	Jobs []JobSpec `json:"jobs"`

	Expect Expect `json:"expect"`
}

// Match selects how a replay is compared against the expectations.
type Match struct {
	// Mode is Strict or Metrics ("" = Strict).
	Mode string `json:"mode"`
	// Tolerance is the metrics-mode relative error bound per aggregate
	// value (0 = DefaultTolerance); strict mode ignores it.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// ServeConfig is a fully resolved rcsched.Config: defaults are filled in at
// record time so a replay cannot drift when a default changes.
type ServeConfig struct {
	Board    string  `json:"board"`
	Slots    int     `json:"slots"`
	ShellHz  int64   `json:"shell_hz"`
	Policy   string  `json:"policy"`
	ConfigBW float64 `json:"config_bw"`
	Stage    bool    `json:"stage,omitempty"`
	Admit    string  `json:"admit,omitempty"`
}

// FleetConfig is the resolved dispatch layer of a KindFleet scenario.
type FleetConfig struct {
	Boards   int     `json:"boards"`
	Dispatch string  `json:"dispatch"`
	Seed     int64   `json:"seed"`
	BoundPs  float64 `json:"bound_ps"`
}

// JobSpec is one job of the recorded arrival stream.
type JobSpec struct {
	ID         int     `json:"id"`
	App        string  `json:"app"`
	Size       int     `json:"size"`
	ArrivalPs  float64 `json:"arrival_ps"`
	DeadlinePs float64 `json:"deadline_ps,omitempty"`
	Seed       int64   `json:"seed"`
}

// Event is one step of a board's recorded decision stream: an
// rcsched.Event (same fields, same meaning; Kind is one of rcsched's
// EventShed, EventDispatch and EventFinish) with its JSON names.
type Event struct {
	Kind string  `json:"kind"`
	Job  int     `json:"job"`
	Slot int     `json:"slot"`
	AtPs float64 `json:"at_ps"`
	Path string  `json:"path,omitempty"`
}

// DecisionRecord is one fleet routing decision.
type DecisionRecord struct {
	Job     int     `json:"job"`
	Board   int     `json:"board"`
	EpochPs float64 `json:"epoch_ps"`
}

// JobRecord mirrors rcsched.JobReport, plus the board the job was routed
// to in a fleet scenario (always 0 for KindServe).
type JobRecord struct {
	ID          int     `json:"id"`
	App         string  `json:"app"`
	Size        int     `json:"size"`
	Slot        int     `json:"slot"`
	Board       int     `json:"board,omitempty"`
	Disposition string  `json:"disposition"`
	ArrivalPs   float64 `json:"arrival_ps"`
	DeadlinePs  float64 `json:"deadline_ps,omitempty"`
	QueueWaitPs float64 `json:"queue_wait_ps"`
	ReconfigPs  float64 `json:"reconfig_ps"`
	ExecPs      float64 `json:"exec_ps"`
	LatencyPs   float64 `json:"latency_ps"`
	LatenessPs  float64 `json:"lateness_ps"`
	DonePs      float64 `json:"done_ps"`
	Reconfig    bool    `json:"reconfigured,omitempty"`
	Staged      bool    `json:"staged,omitempty"`
	Missed      bool    `json:"missed,omitempty"`
	Faults      uint64  `json:"faults"`
}

// Aggregate is the pinned aggregate report. Serve and fleet scenarios
// share the struct; fields the kind does not measure stay zero (e.g.
// UtilMin/UtilMax for serve, MeanWaitPs for fleet).
type Aggregate struct {
	MakespanPs      float64 `json:"makespan_ps"`
	TotalReconfigPs float64 `json:"total_reconfig_ps"`
	Reconfigs       int     `json:"reconfigs"`
	StageCommits    int     `json:"stage_commits"`
	StageCancels    int     `json:"stage_cancels"`
	MeanWaitPs      float64 `json:"mean_wait_ps"`
	MeanLatencyPs   float64 `json:"mean_latency_ps"`
	P99LatencyPs    float64 `json:"p99_latency_ps"`
	P99AdmittedPs   float64 `json:"p99_admitted_ps"`
	Misses          int     `json:"misses"`
	MissRate        float64 `json:"miss_rate"`
	Admitted        int     `json:"admitted"`
	Degraded        int     `json:"degraded"`
	Rejected        int     `json:"rejected"`
	Completed       int     `json:"completed"`
	GoodJobs        int     `json:"good_jobs"`
	OfferedRPS      float64 `json:"offered_rps"`
	AchievedRPS     float64 `json:"achieved_rps"`
	GoodputRPS      float64 `json:"goodput_rps"`
	ShedRate        float64 `json:"shed_rate"`
	UtilMean        float64 `json:"util_mean"`
	UtilMin         float64 `json:"util_min"`
	UtilMax         float64 `json:"util_max"`
	Faults          uint64  `json:"faults"`
}

// Expect is everything the recorded run produced, in the order replay
// compares it: the decision streams first (where a divergence is earliest
// and most tellable), then the per-job reports, then the aggregates.
type Expect struct {
	// Events is the serving loop's decision stream (KindServe).
	Events []Event `json:"events,omitempty"`
	// Decisions and BoardEvents replace Events for KindFleet: the routing
	// trace, then each board's own decision stream (index = board; an
	// unused board records an empty stream).
	Decisions   []DecisionRecord `json:"decisions,omitempty"`
	BoardEvents [][]Event        `json:"board_events,omitempty"`

	Jobs      []JobRecord `json:"jobs"`
	Aggregate Aggregate   `json:"aggregate"`
}

// Parse decodes and validates a scenario file. Malformed or truncated
// JSON, a missing or wrong format tag, a version this build does not
// support, and structurally invalid scenarios all return errors; Parse
// never panics on hostile input.
func Parse(data []byte) (*Scenario, error) {
	// Probe the header first so version skew reports as version skew even
	// if a newer revision changed some field's shape.
	var probe struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("scenario: malformed file: %w", err)
	}
	if probe.Format != Format {
		return nil, fmt.Errorf("scenario: not a scenario file (format %q, want %q)", probe.Format, Format)
	}
	if probe.Version < 1 || probe.Version > Version {
		return nil, fmt.Errorf("scenario: file version %d unsupported (this build reads 1..%d)",
			probe.Version, Version)
	}
	sc := &Scenario{}
	if err := json.Unmarshal(data, sc); err != nil {
		return nil, fmt.Errorf("scenario: malformed file: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Serialize renders the scenario as indented JSON with a trailing newline,
// byte-stable for committing under testdata/scenarios/.
func Serialize(sc *Scenario) ([]byte, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// effectiveMode resolves "" to Strict.
func (m Match) effectiveMode() string {
	if m.Mode == "" {
		return Strict
	}
	return m.Mode
}

// effectiveTol resolves 0 to DefaultTolerance.
func (m Match) effectiveTol() float64 {
	if m.Tolerance == 0 {
		return DefaultTolerance
	}
	return m.Tolerance
}

// Validate checks the scenario's structural invariants — everything replay
// assumes beyond what the serving layers re-check themselves.
func (sc *Scenario) Validate() error {
	if sc.Format != Format {
		return fmt.Errorf("scenario: format is %q, want %q", sc.Format, Format)
	}
	if sc.Version < 1 || sc.Version > Version {
		return fmt.Errorf("scenario: version %d unsupported (this build reads 1..%d)", sc.Version, Version)
	}
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	switch sc.Kind {
	case KindServe:
		if sc.Fleet != nil {
			return fmt.Errorf("scenario %s: a serve scenario must not carry a fleet block", sc.Name)
		}
		if len(sc.Expect.Decisions) > 0 || len(sc.Expect.BoardEvents) > 0 {
			return fmt.Errorf("scenario %s: a serve scenario must not carry fleet expectations", sc.Name)
		}
	case KindFleet:
		if sc.Fleet == nil {
			return fmt.Errorf("scenario %s: a fleet scenario needs a fleet block", sc.Name)
		}
		if err := sc.fleetConfig().Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if len(sc.Expect.Events) > 0 {
			return fmt.Errorf("scenario %s: a fleet scenario pins per-board event streams, not a flat one", sc.Name)
		}
		if n := len(sc.Expect.BoardEvents); n != sc.Fleet.Boards {
			return fmt.Errorf("scenario %s: %d board event streams for %d boards", sc.Name, n, sc.Fleet.Boards)
		}
	default:
		return fmt.Errorf("scenario %s: unknown kind %q", sc.Name, sc.Kind)
	}
	switch sc.Match.Mode {
	case "", Strict, Metrics:
	default:
		return fmt.Errorf("scenario %s: unknown match mode %q", sc.Name, sc.Match.Mode)
	}
	if sc.Match.Tolerance < 0 {
		return fmt.Errorf("scenario %s: negative match tolerance %g", sc.Name, sc.Match.Tolerance)
	}
	serve := sc.serveConfig()
	resolved, err := serve.Resolve()
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if resolved != serve {
		return fmt.Errorf("scenario %s: serve config is not fully resolved (board/policy/shell_hz/config_bw/admit)", sc.Name)
	}
	if len(sc.Jobs) == 0 {
		return fmt.Errorf("scenario %s: empty job stream", sc.Name)
	}
	ids := make(map[int]bool, len(sc.Jobs))
	for i := range sc.Jobs {
		j := &sc.Jobs[i]
		if j.App == "" || j.Size <= 0 {
			return fmt.Errorf("scenario %s: job %d is not a full job spec (app/size)", sc.Name, j.ID)
		}
		if j.ArrivalPs < 0 || j.DeadlinePs < 0 {
			return fmt.Errorf("scenario %s: job %d has a negative timestamp", sc.Name, j.ID)
		}
		if ids[j.ID] {
			return fmt.Errorf("scenario %s: duplicate job id %d", sc.Name, j.ID)
		}
		ids[j.ID] = true
	}
	// A pinned report for a job outside the stream is structurally wrong;
	// a stream job without a pinned report is left to the replay comparison,
	// which diffs it as a missing record instead of refusing the file.
	for i := range sc.Expect.Jobs {
		if !ids[sc.Expect.Jobs[i].ID] {
			return fmt.Errorf("scenario %s: job record %d pins a job id not in the stream", sc.Name, sc.Expect.Jobs[i].ID)
		}
	}
	return nil
}
