// Package fleet shards an open-loop job stream across many independent
// boards: the two-level serving model the cluster-scale systems in the
// related work converge on — a front-end dispatcher routing requests over a
// pool of reconfigurable nodes, each node running its own single-board
// scheduler (shell slots, config port, VIM and rcsched serving loop).
//
// The dispatcher is a pure routing layer. Every decision is made at the
// job's arrival instant (its dispatch epoch) from the dispatcher's own
// model of each board — a cost-model backlog estimate and a slots-deep
// LRU of the bitstreams it has routed there — never from live simulated
// state. Routing is therefore a deterministic function of (stream, config,
// seed) alone, which keeps every board's serving run bit-identical under
// the lockstep and event-driven simulation schedulers, and makes a
// one-board fleet provably equal to a plain rcsched.Serve run. Boards are
// served concurrently (each is an isolated simulation) and their reports
// merged back into one arrival-ordered fleet report.
package fleet

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/apps"
	"repro/internal/rcsched"
	"repro/internal/telemetry"
)

// Dispatch-policy names for Config.Dispatch.
const (
	// Random routes each job to a seeded-uniform board — the baseline the
	// informed policies are measured against.
	Random = "random"
	// LeastLoaded routes to the board with the smallest backlog estimate at
	// the decision epoch (ties to the lowest index).
	LeastLoaded = "least-loaded"
	// Affinity routes to a board whose modelled resident set already holds
	// the job's bitstream — fleet-wide zero-config dispatch — as long as
	// one such board is accepting (backlog under the bound); among several
	// the least loaded wins. When no board holds the bitstream, or every
	// holder is past the bound, the bitstream is (re)placed on a board with
	// a vacant modelled slot (least-loaded among those), replicating a hot
	// bitstream instead of melting its home board — bounded-load affinity,
	// the same compromise bounded-load consistent hashing makes.
	Affinity = "affinity"
	// Po2 draws two distinct seeded-random boards and keeps the one holding
	// the job's bitstream while it is accepting (the bounded affinity
	// tiebreak), else the less loaded — the classic power-of-two-choices
	// balancer with a config-traffic tilt.
	Po2 = "po2"
)

// DefaultBoundPs is the default bounded-load affinity threshold: a board
// whose modelled backlog extends further than this past the decision epoch
// stops counting as an affinity target. It is twice the serving layer's
// base deadline budget — with a backlog that deep, jobs routed there for
// residency's sake have burned their whole scheduling allowance queueing,
// so paying one replication stream (a fraction of a millisecond of config
// traffic) is the cheaper failure mode.
const DefaultBoundPs = 2 * rcsched.BaseBudgetPs

// Config parameterises one fleet run.
type Config struct {
	// Boards is the number of independent boards behind the dispatcher; it
	// must be positive.
	Boards int
	// Dispatch is the routing policy: Random, LeastLoaded, Affinity or Po2
	// ("" defaults to LeastLoaded).
	Dispatch string
	// Seed drives the randomised dispatch policies; deterministic replay is
	// part of the contract (the same (stream, config, seed) triple always
	// routes identically).
	Seed int64
	// BoundPs is the bounded-load affinity threshold for Affinity and Po2
	// (0 = DefaultBoundPs): how far a board's modelled backlog may extend
	// past the decision epoch before it stops counting as an affinity
	// target.
	BoundPs float64
	// Board is the per-board serving configuration handed verbatim to each
	// board's rcsched.Serve run. Each board's decisions land in its own
	// report's event log (Report.Boards[b].Events), next to the routing
	// decisions in Report.Decisions.
	Board rcsched.Config
	// Meter, when non-nil, collects the fleet run's telemetry: the
	// dispatcher's routing decisions and per-board backlog series feed it
	// directly, and each board's serving run gets a child meter (boards
	// run concurrently) folded back in under a "board" label after all
	// boards join — in board order, so the result is deterministic.
	// Strictly passive: a nil-Meter run is bit-identical to a metered one
	// (overrides Board.Meter).
	Meter *telemetry.Meter
}

// Decision records one routing decision for the property tests: which board
// the job went to, the dispatcher's per-board backlog estimates at the
// decision epoch, and which boards' modelled resident sets held the job's
// bitstream.
type Decision struct {
	Job     int     // job ID
	Board   int     // chosen board
	EpochPs float64 // the job's arrival instant — when the decision was made
	// LoadsPs is the dispatcher's backlog estimate per board at the epoch:
	// how far beyond the epoch each board's routed-but-unfinished work is
	// modelled to extend (0 = modelled idle).
	LoadsPs []float64
	// Resident flags, per board, whether the dispatcher's LRU model held the
	// job's bitstream when the decision was made.
	Resident []bool
}

// Report aggregates one fleet run: every board's own serving report, the
// dispatch trace, and the per-job reports of all boards merged back into
// one arrival-ordered stream with fleet-wide aggregates over it.
type Report struct {
	Dispatch string
	// Boards holds every board's serving report, index = board; an unused
	// board gets an empty report carrying only the resolved Board, Policy,
	// Slots and ConfigBW.
	Boards []*rcsched.Report

	Decisions []Decision
	// Jobs is every board's job reports merged in arrival order (ties by
	// job ID) — the order the overload detector's sliding window requires.
	// Each generated job appears exactly once.
	Jobs []rcsched.JobReport

	// Summary is the job-population fold of the merged Jobs — the same
	// rcsched.Summarize a single board's report carries, so the makespan
	// is the last completion on any board.
	rcsched.Summary

	// Fleet totals over the board reports. The utilisation fields measure
	// per-board busy fractions of the fleet makespan — the dispersion a
	// balancing policy exists to narrow — and are zero when nothing
	// completed.
	TotalReconfigPs float64
	Reconfigs       int
	StageCommits    int
	StageCancels    int
	UtilMean        float64
	UtilMin         float64
	UtilMax         float64
}

// boardModel is the dispatcher's view of one board: a virtual-time backlog
// estimate and a slots-deep LRU of the bitstreams routed there. It is a
// model, not a mirror — the board's own policy decides what actually ends
// up resident — but it is the only state a front-end dispatcher could
// realistically have without a callback channel from every node.
type boardModel struct {
	busyUntilPs float64
	resident    []string // most-recently-routed first, at most `slots` entries
}

// loadPs is the modelled backlog beyond instant t.
func (b *boardModel) loadPs(t float64) float64 {
	if b.busyUntilPs <= t {
		return 0
	}
	return b.busyUntilPs - t
}

func (b *boardModel) has(app string) bool {
	for _, r := range b.resident {
		if r == app {
			return true
		}
	}
	return false
}

// touch records that app's bitstream was just routed here: it becomes the
// most recently used entry and the LRU tail falls off past the slot count.
func (b *boardModel) touch(app string, slots int) {
	out := make([]string, 0, slots)
	out = append(out, app)
	for _, r := range b.resident {
		if r != app && len(out) < slots {
			out = append(out, r)
		}
	}
	b.resident = out
}

// dispatcher routes one job at its arrival epoch. Implementations must be
// pure functions of the model state and (for the randomised policies) the
// seeded rng, so routing replays bit for bit.
type dispatcher func(j *rcsched.Job, boards []boardModel, t float64, rng *rand.Rand) int

// leastLoadedOf returns the least-loaded board among candidates at epoch t,
// ties to the lowest index.
func leastLoadedOf(candidates []int, boards []boardModel, t float64) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if boards[c].loadPs(t) < boards[best].loadPs(t) {
			best = c
		}
	}
	return best
}

func newDispatcher(name string, boundPs float64) (string, dispatcher, error) {
	switch name {
	case Random:
		return Random, func(j *rcsched.Job, boards []boardModel, t float64, rng *rand.Rand) int {
			return rng.Intn(len(boards))
		}, nil
	case "", LeastLoaded:
		return LeastLoaded, func(j *rcsched.Job, boards []boardModel, t float64, rng *rand.Rand) int {
			all := make([]int, len(boards))
			for i := range all {
				all[i] = i
			}
			return leastLoadedOf(all, boards, t)
		}, nil
	case Affinity:
		return Affinity, func(j *rcsched.Job, boards []boardModel, t float64, rng *rand.Rand) int {
			// Accepting resident boards first: zero-config dispatch as long
			// as somebody holding the bitstream is under the load bound.
			var match []int
			for i := range boards {
				if boards[i].has(j.App) && boards[i].loadPs(t) <= boundPs {
					match = append(match, i)
				}
			}
			if len(match) > 0 {
				return leastLoadedOf(match, boards, t)
			}
			// No accepting holder: (re)place the bitstream the way
			// rcsched's own chooseFree ladder places a first dispatch —
			// prefer a board with a vacant modelled slot over evicting
			// another app's residency, so apps spread one per board while
			// vacancies remain instead of thrashing a shared board. Ties
			// (and the no-vacancy case) fall to least-loaded, lowest index.
			minRes := len(boards[0].resident)
			for i := range boards {
				if len(boards[i].resident) < minRes {
					minRes = len(boards[i].resident)
				}
			}
			for i := range boards {
				if len(boards[i].resident) == minRes {
					match = append(match, i)
				}
			}
			return leastLoadedOf(match, boards, t)
		}, nil
	case Po2:
		return Po2, func(j *rcsched.Job, boards []boardModel, t float64, rng *rand.Rand) int {
			if len(boards) == 1 {
				return 0
			}
			a := rng.Intn(len(boards))
			b := rng.Intn(len(boards) - 1)
			if b >= a {
				b++
			}
			// Bounded affinity tiebreak: a sampled board holding the
			// bitstream wins outright while the load imbalance that choice
			// tolerates stays within the bound — a relative margin, unlike
			// Affinity's absolute backlog cap, because po2 always holds a
			// second sample to compare against; otherwise the less loaded
			// of the two (ties to the lower index).
			la, lb := boards[a].loadPs(t), boards[b].loadPs(t)
			ra := boards[a].has(j.App) && la <= lb+boundPs
			rb := boards[b].has(j.App) && lb <= la+boundPs
			switch {
			case ra && !rb:
				return a
			case rb && !ra:
				return b
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if boards[hi].loadPs(t) < boards[lo].loadPs(t) {
				return hi
			}
			return lo
		}, nil
	}
	return "", nil, fmt.Errorf("fleet: unknown dispatch policy %q (want random, least-loaded, affinity or po2)", name)
}

// Validate checks cfg before any routing or serving work: a positive board
// count, a known dispatch policy, a non-negative load bound, and a
// per-board config rcsched.Config.Resolve accepts.
func (cfg Config) Validate() error {
	if cfg.Boards <= 0 {
		return &rcsched.ConfigError{Field: "Boards",
			Msg: fmt.Sprintf("fleet: board count must be positive, got %d", cfg.Boards)}
	}
	if _, _, err := newDispatcher(cfg.Dispatch, 0); err != nil {
		return &rcsched.ConfigError{Field: "Dispatch", Msg: err.Error()}
	}
	if cfg.BoundPs < 0 {
		return &rcsched.ConfigError{Field: "BoundPs",
			Msg: fmt.Sprintf("fleet: negative affinity load bound %g ps", cfg.BoundPs)}
	}
	_, err := cfg.Board.Resolve()
	return err
}

// Route computes the dispatch trace for a job stream under cfg without
// serving anything: every job is assigned a board at its arrival epoch, in
// arrival order (ties by ID), from the dispatcher's evolving board models.
// The returned per-board sub-streams partition the input — each job appears
// in exactly one — and the decisions record the model state behind every
// choice. Routing is deterministic in (jobs, cfg): it never consults
// simulated state, so the split is identical under every sim scheduler.
func Route(cfg Config, jobs []rcsched.Job) (subs [][]rcsched.Job, decisions []Decision, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("fleet: empty job stream")
	}
	if err := rcsched.ValidateJobs(jobs); err != nil {
		return nil, nil, fmt.Errorf("fleet: %w", err)
	}
	bound := cfg.BoundPs
	if bound == 0 {
		bound = DefaultBoundPs
	}
	_, pick, _ := newDispatcher(cfg.Dispatch, bound)
	board, _ := cfg.Board.Resolve() // validated above
	table, err := apps.Images(board.Board)
	if err != nil {
		return nil, nil, err
	}

	// Dispatch epochs: arrival order, ties by ID — the same admission order
	// each board's serving loop uses.
	order := append([]rcsched.Job(nil), jobs...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].ArrivalPs != order[j].ArrivalPs {
			return order[i].ArrivalPs < order[j].ArrivalPs
		}
		return order[i].ID < order[j].ID
	})

	rng := rand.New(rand.NewSource(cfg.Seed))
	boards := make([]boardModel, cfg.Boards)
	subs = make([][]rcsched.Job, cfg.Boards)
	decisions = make([]Decision, 0, len(order))
	for i := range order {
		j := &order[i]
		t := j.ArrivalPs
		d := Decision{
			Job:      j.ID,
			EpochPs:  t,
			LoadsPs:  make([]float64, cfg.Boards),
			Resident: make([]bool, cfg.Boards),
		}
		for b := range boards {
			d.LoadsPs[b] = boards[b].loadPs(t)
			d.Resident[b] = boards[b].has(j.App)
		}
		b := pick(j, boards, t, rng)
		if b < 0 || b >= cfg.Boards {
			return nil, nil, fmt.Errorf("fleet: dispatcher chose board %d of %d", b, cfg.Boards)
		}
		d.Board = b
		decisions = append(decisions, d)

		// Advance the chosen board's model: the job starts when the board's
		// modelled backlog drains (or now), pays a configuration stream when
		// its bitstream is not modelled resident, then its cost-model
		// execution estimate.
		start := boards[b].busyUntilPs
		if start < t {
			start = t
		}
		if !boards[b].has(j.App) {
			a, ok := table[j.App]
			if !ok {
				return nil, nil, fmt.Errorf("fleet: job %d: unknown application %q", j.ID, j.App)
			}
			start += float64(len(a.Img)) / board.ConfigBW * 1e12
		}
		boards[b].busyUntilPs = start + rcsched.ExecEstPs(j.App, j.Size, board.ShellHz)
		boards[b].touch(j.App, board.Slots)
		subs[b] = append(subs[b], *j)
	}
	return subs, decisions, nil
}

// Run routes the job stream across the fleet and serves every board's
// sub-stream through its own rcsched.Serve loop — concurrently, since the
// boards are isolated simulations — then merges the per-board reports into
// one fleet report. Jobs may be given in any order.
func Run(cfg Config, jobs []rcsched.Job) (*Report, error) {
	subs, decisions, err := Route(cfg, jobs)
	if err != nil {
		return nil, err
	}
	name, _, _ := newDispatcher(cfg.Dispatch, 0) // validated by Route
	board, _ := cfg.Board.Resolve()
	rep := &Report{
		Dispatch:  name,
		Boards:    make([]*rcsched.Report, cfg.Boards),
		Decisions: decisions,
	}
	meterRoute(cfg.Meter, name, decisions)

	var wg sync.WaitGroup
	errs := make([]error, cfg.Boards)
	meters := make([]*telemetry.Meter, cfg.Boards)
	for b := range subs {
		if len(subs[b]) == 0 {
			// An idle board serves nothing: an explicit empty report keeps
			// the per-board indexing and the utilisation spread honest.
			rep.Boards[b] = &rcsched.Report{
				Board:    board.Board,
				Policy:   board.Policy,
				Slots:    board.Slots,
				ConfigBW: board.ConfigBW,
			}
			continue
		}
		boardCfg := cfg.Board
		// Each board gets its own child meter (boards run concurrently;
		// a Meter is single-goroutine) and its own trace pid.
		meters[b] = cfg.Meter.Child()
		boardCfg.Meter = meters[b]
		boardCfg.TracePid = rcsched.ServeBoardPid + b
		wg.Add(1)
		go func(b int, boardCfg rcsched.Config) {
			defer wg.Done()
			r, err := rcsched.Serve(boardCfg, subs[b])
			if err != nil {
				errs[b] = fmt.Errorf("fleet: board %d: %w", b, err)
				return
			}
			rep.Boards[b] = r
		}(b, boardCfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Fold the board meters back in board order — deterministic no matter
	// how the serving goroutines interleaved (Absorb of a nil child is a
	// no-op, so idle boards just don't contribute).
	for b, child := range meters {
		cfg.Meter.Absorb(child, "board", strconv.Itoa(b))
	}
	aggregate(rep, cfg)
	meterFleet(cfg.Meter, rep)
	return rep, nil
}

// aggregate merges the per-board reports into the fleet-wide view: job
// reports re-merged into arrival order and summarised, totals summed, and
// the per-board utilisation spread measured against the fleet makespan.
func aggregate(rep *Report, cfg Config) {
	for _, br := range rep.Boards {
		rep.Jobs = append(rep.Jobs, br.Jobs...)
		rep.Reconfigs += br.Reconfigs
		rep.TotalReconfigPs += br.TotalReconfigPs
		rep.StageCommits += br.StageCommits
		rep.StageCancels += br.StageCancels
	}
	// Merge in arrival order (ties by ID): each board's list is one
	// arrival-ordered slice of a common stream, so a sort of the
	// concatenation is a k-way merge — every job exactly once, no
	// per-board seams for the overload window to trip over.
	sort.Slice(rep.Jobs, func(i, j int) bool {
		if rep.Jobs[i].ArrivalPs != rep.Jobs[j].ArrivalPs {
			return rep.Jobs[i].ArrivalPs < rep.Jobs[j].ArrivalPs
		}
		return rep.Jobs[i].ID < rep.Jobs[j].ID
	})
	rep.Summary = rcsched.Summarize(rep.Jobs)
	if rep.MakespanPs == 0 {
		return
	}
	rep.UtilMin = 2 // above any busy fraction; replaced by the first board
	for _, br := range rep.Boards {
		busy := 0.0
		for _, b := range br.SlotBusyPs {
			busy += b
		}
		util := busy / (float64(cfg.Board.Slots) * rep.MakespanPs)
		rep.UtilMean += util
		if util < rep.UtilMin {
			rep.UtilMin = util
		}
		if util > rep.UtilMax {
			rep.UtilMax = util
		}
	}
	rep.UtilMean /= float64(len(rep.Boards))
}
