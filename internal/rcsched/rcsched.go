// Package rcsched is the dynamic reconfiguration scheduler: the OS-level
// layer that turns the simulated board into a job-serving system, in the
// spirit of FOS and SYNERGY. It owns a fixed set of shell slots with a
// modelled partial-reconfiguration latency (derived from each coprocessor's
// bitstream size and a configurable configuration-port bandwidth), an
// admission queue of timestamped multi-user jobs carrying per-app
// service-level deadlines, and pluggable scheduling policies: FCFS,
// shortest-job-first (ranked by the calibrated cost model), bitstream-
// affinity (avoids reconfiguration by reusing resident coprocessors),
// earliest-deadline-first, and slack (deadline-aware affinity). With
// pre-staged reconfiguration enabled, the configuration port DMAs the next
// queued job's bitstream into a busy slot's staging buffer while the
// resident core executes, so the eventual swap costs a fixed commit window
// instead of the full stream.
//
// Serve drives the live core.Gang shell loop: sessions attach as jobs
// dispatch, coprocessors load and unload while their neighbours keep
// translating, faults and completions are serviced per channel, and every
// finished job's output is verified against the golden algorithm before its
// session detaches. Idle stretches between arrivals are bulk-skipped by the
// simulation kernel up to the shell's wake deadline, so serving a sparse
// stream costs barely more host time than serving a dense one.
package rcsched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/imu"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vim"
)

// DefaultShellHz is the shell clock plan every tenant is recompiled
// against, matching the sessions layer's shared-shell regime.
const DefaultShellHz = 24_000_000

// DefaultConfigBW is the configuration-port bandwidth in bytes per second
// used to turn a bitstream's size into partial-reconfiguration time.
const DefaultConfigBW = 1_000_000

// StageCommitCycles is the fixed cost, in shell cycles, of committing a
// pre-staged bitstream into its slot: the double-buffered configuration
// swap plus the channel rebind — a few microseconds at the default shell
// clock, against the milliseconds a full configuration stream takes.
const StageCommitCycles = 64

// Config parameterises one serving run.
type Config struct {
	// Board is "EPXA1", "EPXA4" (default) or "EPXA10".
	Board string
	// Slots is the number of shell slots; it must be positive.
	Slots int
	// ShellHz is the shared shell clock (default DefaultShellHz).
	ShellHz int64
	// Policy is the scheduling policy: "fcfs" (default), "sjf",
	// "affinity", "edf" or "slack".
	Policy string
	// ConfigBW is the configuration-port bandwidth in bytes/second
	// (default DefaultConfigBW); a slot reconfiguration takes
	// len(bitstream)/ConfigBW seconds.
	ConfigBW float64
	// Stage enables pre-staged reconfiguration: while every slot is busy,
	// the configuration port DMAs the next queued job's bitstream into the
	// soonest-to-finish slot's staging buffer (one transfer in flight, at
	// ConfigBW), so a matching dispatch later pays only StageCommitCycles
	// instead of the full stream. With Stage false the serving loop is
	// bit-identical to the pre-staging scheduler.
	Stage bool
	// Admit selects the admission-control mode: "" or AdmitOff serves
	// every job on the shell slots (bit-identical to the
	// pre-admission-control scheduler), AdmitReject sheds jobs whose
	// deadline is provably unmeetable at admission, and AdmitDegrade sends
	// them to the timed-SW baseline path instead. Jobs without a deadline
	// are always admitted.
	Admit string
	// Meter, when non-nil, receives the run's telemetry: live gauges
	// (queue depth, slot states) sampled on simulated time, and counters,
	// histograms and trace spans folded in from the final report and its
	// event log. It is strictly passive — a nil-Meter run is bit-identical
	// to a metered one.
	Meter *telemetry.Meter
	// TracePid is the trace process ID the run's slot tracks render
	// under (0 means ServeBoardPid). A fleet assigns each board its own
	// pid so board tracks stay distinct in the merged trace.
	TracePid int
}

// ConfigError is a configuration rejection naming the offending field, so
// a front end can point at the flag or file key that set it. Resolve
// returns it for Config fields; fleet.Config.Validate and
// traffic.Spec.Validate return it for theirs.
type ConfigError struct {
	Field string // the rejected struct field, e.g. "Admit"
	Msg   string
}

func (e *ConfigError) Error() string { return e.Msg }

func badField(field, format string, args ...any) error {
	return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Resolve validates cfg and returns it with its defaults filled in: board
// EPXA4, DefaultShellHz, DefaultConfigBW, and the policy, admission mode
// and board name in canonical form. It is the one check every serving
// entry point shares — Serve, fleet.Route and scenario files — so a bad
// config fails before any simulation work starts.
func (cfg Config) Resolve() (Config, error) {
	if cfg.Board == "" {
		cfg.Board = "EPXA4"
	}
	spec, ok := platform.SpecByName(cfg.Board)
	if !ok {
		return cfg, badField("Board", "rcsched: unknown board %q", cfg.Board)
	}
	cfg.Board = spec.Name
	if cfg.Slots <= 0 {
		return cfg, badField("Slots", "rcsched: shell needs a positive slot count, got %d", cfg.Slots)
	}
	if cfg.ShellHz == 0 {
		cfg.ShellHz = DefaultShellHz
	}
	if cfg.ShellHz < 0 {
		return cfg, badField("ShellHz", "rcsched: negative shell clock %d Hz", cfg.ShellHz)
	}
	if cfg.ConfigBW == 0 {
		cfg.ConfigBW = DefaultConfigBW
	}
	if cfg.ConfigBW < 0 {
		return cfg, badField("ConfigBW", "rcsched: negative config-port bandwidth %g", cfg.ConfigBW)
	}
	policy, ok := NewPolicy(cfg.Policy)
	if !ok {
		return cfg, badField("Policy", "rcsched: unknown policy %q", cfg.Policy)
	}
	cfg.Policy = policy.Name()
	switch cfg.Admit {
	case "":
		cfg.Admit = AdmitOff
	case AdmitOff, AdmitReject, AdmitDegrade:
	default:
		return cfg, badField("Admit", "rcsched: unknown admission mode %q (want off, reject or degrade)", cfg.Admit)
	}
	return cfg, nil
}

// JobReport is the measured outcome of one served job.
type JobReport struct {
	ID   int
	App  string
	Size int
	Slot int

	ArrivalPs   float64
	DeadlinePs  float64 // service-level objective (0 = none)
	QueueWaitPs float64 // arrival -> dispatch decision
	ReconfigPs  float64 // critical-path configuration time paid before launch
	ExecPs      float64 // launch -> completion (fault service included)
	LatencyPs   float64 // arrival -> completion
	LatenessPs  float64 // completion - deadline (negative = early; 0 without a deadline)
	DonePs      float64

	Reconfigured bool   // the slot's core changed for this job
	Staged       bool   // ... via a pre-staged commit rather than a full stream
	Missed       bool   // finished after its deadline
	Faults       uint64 // the job session's translation faults

	// Disposition is the admission decision: Admitted (served on a shell
	// slot; Slot/timing fields as above), Degraded (served by the timed-SW
	// baseline path; Slot is -1 and ExecPs is the calibrated SW estimate)
	// or Rejected (shed at admission; Slot is -1, DonePs is the rejection
	// instant and no latency is accumulated).
	Disposition Disposition
}

// Report aggregates one serving run.
type Report struct {
	Board    string
	Policy   string
	Slots    int
	ConfigBW float64

	Jobs []JobReport

	// Events is the serving loop's decision log in the order Serve made
	// the decisions: every shed, dispatch and finish (see Event). Scenario
	// recording and the telemetry adapter both read it here.
	Events []Event

	// Summary is the job-population fold of Jobs (Summarize).
	Summary

	TotalReconfigPs float64
	Reconfigs       int
	MeanWaitPs      float64
	MeanLatencyPs   float64

	// StageCommits and StageCancels count pre-staged bitstreams that were
	// swapped in, respectively discarded because their job dispatched
	// elsewhere.
	StageCommits int
	StageCancels int

	// SlotBusyPs is each slot's occupied time (reconfiguration + execution);
	// UtilMean is the mean busy fraction of the makespan across slots.
	SlotBusyPs []float64
	UtilMean   float64

	// SlotOccupancy breaks each slot's makespan into execution, configura-
	// tion and idle time. Unlike SlotBusyPs (dispatch decision to
	// completion, the utilisation definition the golden cells pin),
	// BusyPs counts launch to completion only, ConfigPs accrues exactly
	// where TotalReconfigPs does (so the per-slot values sum to it), and
	// IdlePs is the makespan remainder — the three shares sum to
	// MakespanPs per slot by construction. This is the single source of
	// truth the telemetry exporters read; nothing re-derives occupancy.
	SlotOccupancy []SlotShare

	// The software components of the shared timeline, in picoseconds.
	SWDPPs  float64
	SWIMUPs float64
	SWOSPs  float64

	VIM vim.Counters // aggregate across all job sessions
	IMU imu.Counters // aggregate across all channels

	// IMUCh is each channel's slice of the IMU counters, channel = slot.
	// (The engine's own scheduling tallies — edges, skips, heap ops — go
	// to the Meter only: they are scheduler-implementation detail, and
	// the two sim schedulers legitimately skip different edge counts, so
	// storing them here would break scheduler-equivalence comparisons.)
	IMUCh []imu.Counters
}

// SlotShare is one slot's occupancy breakdown (see Report.SlotOccupancy).
type SlotShare struct {
	BusyPs   float64 // launch -> completion (execution, fault service included)
	ConfigPs float64 // configuration-port time serialised on the slot
	IdlePs   float64 // makespan remainder
}

// slotRun is the scheduler's runtime state for one shell slot.
type slotRun struct {
	mb            *core.Member
	job           int   // dispatched job index (valid while mb != nil or reconfiguring)
	reconfigUntil int64 // shell cycle at which reconfiguration completes; -1 idle
	stageReady    int64 // shell cycle at which the staging DMA completes; -1 none in flight
	stageCommit   bool  // the pending reconfigUntil is a staged commit, not a stream
	stagedHit     bool  // the current job attached via a staged commit
	dispatchPs    float64
	startPs       float64
	reconfigPs    float64
}

// Serve runs the job stream to completion under cfg and returns the
// measured report. Jobs may be given in any order; they are served by
// arrival time. Every job's output is verified against the golden
// algorithm before its session is detached — the scheduler must not trade
// correctness for utilisation.
func Serve(cfg Config, jobs []Job) (*Report, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("rcsched: empty job stream")
	}
	if err := ValidateJobs(jobs); err != nil {
		return nil, err
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	policy, _ := NewPolicy(cfg.Policy)
	admit := cfg.Admit
	spec, _ := platform.SpecByName(cfg.Board)
	board, err := platform.NewBoard(spec)
	if err != nil {
		return nil, err
	}
	// Serve owns the board and nothing reads its memories after returning,
	// so the SDRAM's job-data pages and the DP RAM's page come from the
	// shared pool and go back to it on every return path.
	for _, st := range []*mem.ByteStore{board.SDRAM.Store(), board.DP.Store()} {
		st.Recycle()
		defer st.Release()
	}
	pool := board.DP.Pages()
	// Each session's home partition is an even share of the page pool.
	frames := pool / cfg.Slots
	if frames < 2 {
		return nil, fmt.Errorf("rcsched: %d slots x %d frames does not fit the %d-frame pool",
			cfg.Slots, frames, pool)
	}
	table, err := apps.Images(spec.Name)
	if err != nil {
		return nil, err
	}

	g, err := core.NewGang(board, vim.StaticPartition, cfg.ShellHz, cfg.Slots)
	if err != nil {
		return nil, err
	}
	dom := g.Shell.Dom
	eng := g.Shell.Eng

	// Admission order: by arrival, ties by ID.
	order := append([]Job(nil), jobs...)
	sort.Slice(order, func(i, j int) bool {
		if order[i].ArrivalPs != order[j].ArrivalPs {
			return order[i].ArrivalPs < order[j].ArrivalPs
		}
		return order[i].ID < order[j].ID
	})

	// Materialise every job's process image up front.
	ws := newWorkspace()
	preps := make([]prepared, len(order))
	for i := range order {
		j := &order[i]
		a, ok := table[j.App]
		if !ok {
			return nil, fmt.Errorf("rcsched: job %d: unknown application %q", j.ID, j.App)
		}
		j.coreName = a.Core
		if err := ws.place(board.Kern, a, j, &preps[i]); err != nil {
			return nil, fmt.Errorf("rcsched: job %d: %w", j.ID, err)
		}
	}

	periodPs := dom.PeriodPs()
	cycleOf := func(ps float64) int64 { return int64(math.Ceil(ps / periodPs)) }
	reconfigEdges := func(img []byte) int64 {
		return int64(math.Ceil(float64(len(img)) / cfg.ConfigBW * 1e12 / periodPs))
	}

	rep := &Report{
		Board:         spec.Name,
		Policy:        policy.Name(),
		Slots:         cfg.Slots,
		ConfigBW:      cfg.ConfigBW,
		Jobs:          make([]JobReport, len(order)),
		Events:        make([]Event, 0, 2*len(order)),
		SlotBusyPs:    make([]float64, cfg.Slots),
		SlotOccupancy: make([]SlotShare, cfg.Slots),
	}
	board.Kern.TL.Reset()
	board.IMU.ResetCounters()

	slots := make([]slotRun, cfg.Slots)
	for i := range slots {
		slots[i].reconfigUntil = -1
		slots[i].stageReady = -1
	}
	queue := make([]int, 0, len(order)) // indices into order, admission order
	nextArrival := 0
	completed := 0
	budget := core.DefaultBudget // the whole run, in simulated edges
	irq := board.IMU.IRQRef()

	// Live gauges for the simulated-time sampler. The closures read loop
	// state the scheduler maintains anyway; a nil meter makes every call a
	// no-op, so the serving loop below never varies on the meter's
	// presence (only the Advance calls are gated, purely to skip the
	// NowPs computation they alone would need).
	meter := cfg.Meter
	meter.SetFunc("rcsched_queue_depth", func() float64 { return float64(len(queue)) })
	meter.SetFunc("rcsched_slots_busy", func() float64 {
		n := 0
		for s := range slots {
			if slots[s].mb != nil {
				n++
			}
		}
		return float64(n)
	})
	meter.SetFunc("rcsched_slots_config", func() float64 {
		n := 0
		for s := range slots {
			if slots[s].reconfigUntil >= 0 {
				n++
			}
		}
		return float64(n)
	})

	// estPs is the policy-visible execution estimate from the calibrated
	// cost model (the same ExecEstPs that derives deadline budgets, so the
	// estimate has a single definition); stageSlot is the one slot (if
	// any) holding an uncommitted pre-staged bitstream — the configuration
	// port runs a single staging DMA at a time.
	estPs := func(j *Job) float64 { return ExecEstPs(j.App, j.Size, cfg.ShellHz) }
	stageSlot := -1

	// The policy's view of the run, built once and refilled in place: ctx
	// (NowPs set each iteration), states (slotStates) and qjobs
	// (queuedJobs). Policy.Pick must not retain either slice.
	ctx := &PickCtx{
		ExecEstPs: estPs,
		ReconfigPs: func(j *Job) float64 {
			return float64(reconfigEdges(table[j.App].Img)) * periodPs
		},
	}
	states := make([]SlotState, cfg.Slots)
	qjobs := make([]*Job, 0, len(order))
	queuedJobs := func() []*Job {
		qjobs = qjobs[:0]
		for _, j := range queue {
			qjobs = append(qjobs, &order[j])
		}
		return qjobs
	}
	// slotStates is the policy's view of the slots at shell cycle now: a
	// staging DMA still in flight is invisible (advertising it would let a
	// policy mistake a barely-started transfer for a cheap dispatch), but
	// the scheduler itself still commits a partial transfer when a
	// matching job lands on the slot — always at most the cost of
	// streaming from scratch.
	slotStates := func(now int64) []SlotState {
		for s := range slots {
			states[s] = SlotState{
				Free:     slots[s].mb == nil && slots[s].reconfigUntil < 0,
				Resident: g.Shell.Slots[s].Resident(),
			}
			if slots[s].stageReady >= 0 && slots[s].stageReady <= now {
				states[s].Staged = g.Shell.Slots[s].Staged()
			}
		}
		return states
	}

	// Admission control. swFreePs is the timed-SW server's next free
	// instant — degraded jobs run the golden algorithm on the ARM core
	// sequentially at the calibrated SW estimate, off the contended shell
	// slots. unmeetable feeds the optimistic best-case estimator with the
	// live slot, stage and queue state: a true result proves the deadline
	// out of reach no matter what the policy does.
	swFreePs := 0.0
	freePs := make([]float64, cfg.Slots)
	unmeetable := func(ji int) bool {
		j := &order[ji]
		if admit == AdmitOff || j.DeadlinePs <= 0 {
			return false
		}
		nowPs := eng.NowPs()
		now := dom.Cycles()
		for s := range slots {
			switch {
			case slots[s].reconfigUntil >= 0:
				freePs[s] = float64(slots[s].reconfigUntil-now)*periodPs + nowPs +
					estPs(&order[slots[s].job])
			case slots[s].mb != nil:
				freePs[s] = slots[s].startPs + estPs(&order[slots[s].job])
			default:
				freePs[s] = nowPs
			}
		}
		configPs := float64(reconfigEdges(table[j.App].Img)) * periodPs
		for s := range slots {
			if g.Shell.Slots[s].Resident() == j.coreName || g.Shell.Slots[s].Staged() == j.coreName {
				configPs = 0 // the bitstream is already (or nearly) on board
				break
			}
		}
		queued := queuedJobs()
		for _, q := range queued {
			if q.coreName == j.coreName {
				configPs = 0 // a job ahead may leave the bitstream resident
			}
		}
		return bestCaseDonePs(nowPs, freePs, queued, estPs, j, configPs) > j.DeadlinePs
	}
	// shed records a rejected or degraded job's report the instant the
	// decision is made; neither disposition ever touches a shell slot.
	shed := func(ji int) {
		j := &order[ji]
		jr := JobReport{
			ID: j.ID, App: j.App, Size: j.Size, Slot: -1,
			ArrivalPs: j.ArrivalPs, DeadlinePs: j.DeadlinePs,
		}
		nowPs := eng.NowPs()
		if admit == AdmitDegrade {
			start := nowPs
			if start < swFreePs {
				start = swFreePs
			}
			done := start + SWEstPs(j.App, j.Size)
			swFreePs = done
			jr.Disposition = Degraded
			jr.QueueWaitPs = start - j.ArrivalPs
			jr.ExecPs = done - start
			jr.LatencyPs = done - j.ArrivalPs
			jr.DonePs = done
			if j.DeadlinePs > 0 {
				jr.LatenessPs = done - j.DeadlinePs
				jr.Missed = jr.LatenessPs > 0
			}
		} else {
			jr.Disposition = Rejected
			jr.DonePs = nowPs
		}
		rep.Jobs[ji] = jr
		completed++
		rep.Events = append(rep.Events, Event{
			Kind: EventShed, Job: jr.ID, Slot: -1, AtPs: jr.DonePs, Path: string(jr.Disposition),
		})
	}

	// launch attaches job j's session onto slot s and starts it.
	launch := func(s, j int) error {
		a := table[order[j].App]
		mb, err := g.AttachMember(s, a.Img, frames, vim.Config{}, 0)
		if err != nil {
			return fmt.Errorf("rcsched: job %d attach: %w", order[j].ID, err)
		}
		if err := a.Map(mb.Sess, order[j].Size, preps[j].base[:]); err != nil {
			return fmt.Errorf("rcsched: job %d map: %w", order[j].ID, err)
		}
		mb.Params = preps[j].params[:preps[j].nparams]
		if err := g.Launch(mb); err != nil {
			return fmt.Errorf("rcsched: job %d launch: %w", order[j].ID, err)
		}
		slots[s].mb = mb
		slots[s].job = j
		slots[s].startPs = eng.NowPs()
		return nil
	}

	var finished []*core.Member // reused by every service pass
	for completed < len(order) {
		now := dom.Cycles()
		if meter != nil {
			meter.Advance(eng.NowPs())
		}

		// Admit every job whose arrival instant has passed, deciding its
		// disposition on the spot: a provably-late job is shed (rejected,
		// or degraded to the timed-SW path) instead of joining a queue it
		// could never clear — overload sheds load instead of melting p99.
		for nextArrival < len(order) && cycleOf(order[nextArrival].ArrivalPs) <= now {
			ji := nextArrival
			nextArrival++
			if unmeetable(ji) {
				shed(ji)
				continue
			}
			queue = append(queue, ji)
		}
		if completed == len(order) {
			break // the tail of the stream was shed; nothing left to serve
		}

		// Complete due reconfigurations: the slot's new coprocessor is
		// configured — or its staged bitstream's commit window has elapsed,
		// in which case the stage swaps in now — attach and start the
		// waiting job.
		for s := range slots {
			if slots[s].reconfigUntil >= 0 && slots[s].reconfigUntil <= now {
				slots[s].reconfigUntil = -1
				if slots[s].stageCommit {
					slots[s].stageCommit = false
					slots[s].stageReady = -1
					stageSlot = -1 // buffer consumed; the port is free again
					if err := g.CommitStage(s); err != nil {
						return nil, err
					}
				}
				if err := launch(s, slots[s].job); err != nil {
					return nil, err
				}
			}
		}

		// Service pending hardware events before dispatching: a completion
		// frees a slot this same instant.
		if *irq {
			var serviced bool
			finished, serviced, err = g.ServicePending(finished[:0])
			if err != nil {
				return nil, err
			}
			if !serviced {
				return nil, fmt.Errorf("rcsched: IRQ with no serviceable channel (SR0=%#x)", board.IMU.SR())
			}
			// Let restarts and acknowledges propagate (requests are consumed
			// at the next edge), mirroring the gang loop.
			g.Shell.Step()
			g.Shell.Step()
			budget -= 2
			for _, mb := range finished {
				s := mb.Sess.ID()
				j := slots[s].job
				if err := finishJob(rep, board.Kern, ws, table[order[j].App], &order[j], &preps[j], &slots[s], mb, j); err != nil {
					return nil, err
				}
				rep.Events = append(rep.Events, Event{
					Kind: EventFinish, Job: order[j].ID, Slot: s, AtPs: rep.Jobs[j].DonePs,
				})
				if err := g.DetachMember(mb); err != nil {
					return nil, err
				}
				slots[s].mb = nil
				completed++
				// Drain the slot's completion handshake (CP_FIN falls once
				// the core observes CP_START low) so a follow-on job cannot
				// see a stale completion.
				port := g.Shell.Slots[s].Port()
				n, err := g.Shell.RunUntil(func() bool { return !port.CP().Fin }, 256)
				if err != nil {
					return nil, fmt.Errorf("rcsched: slot %d completion handshake did not drain: %v", s, err)
				}
				budget -= n
			}
			continue
		}

		// Dispatch: keep pairing queued jobs with free slots until the
		// policy declines.
		ctx.NowPs = eng.NowPs()
		for len(queue) > 0 {
			qi, s, ok := policy.Pick(queuedJobs(), slotStates(now), ctx)
			if !ok {
				break
			}
			j := queue[qi]
			queue = append(queue[:qi], queue[qi+1:]...)
			slots[s].job = j
			slots[s].dispatchPs = eng.NowPs()
			slots[s].stagedHit = false
			path := DispatchStream
			switch {
			case g.Shell.Slots[s].Resident() == order[j].coreName:
				path = DispatchResident
			case cfg.Stage && g.Shell.Slots[s].Staged() == order[j].coreName:
				path = DispatchStaged
			}
			rep.Events = append(rep.Events, Event{
				Kind: EventDispatch, Job: order[j].ID, Slot: s, AtPs: slots[s].dispatchPs, Path: path,
			})
			if path == DispatchResident {
				// Zero-config dispatch; a staged bitstream on this slot (for
				// some later job) stays parked in the buffer.
				slots[s].reconfigPs = 0
				if err := launch(s, j); err != nil {
					return nil, err
				}
				continue
			}
			if path == DispatchStaged {
				// Staged hit: the bitstream is already (or nearly) in the
				// slot's staging buffer, so the swap costs the remaining DMA
				// time plus the fixed commit window instead of a full stream.
				// The port stays claimed (stageSlot) until the commit
				// consumes the buffer — an in-flight transfer must not free
				// it for a concurrent second DMA.
				ready := slots[s].stageReady
				if ready < now {
					ready = now
				}
				until := ready + StageCommitCycles
				// A transfer that has barely started can be beaten by
				// streaming from scratch; the port controller finishes
				// whichever way is faster, so a staged hit never costs more
				// than a full stream.
				if full := now + reconfigEdges(table[order[j].App].Img); until > full {
					until = full
				}
				slots[s].reconfigUntil = until
				slots[s].reconfigPs = float64(until-now) * periodPs
				slots[s].stageCommit = true
				slots[s].stagedHit = true
				rep.StageCommits++
				rep.TotalReconfigPs += slots[s].reconfigPs
				rep.SlotOccupancy[s].ConfigPs += slots[s].reconfigPs
				continue
			}
			if cfg.Stage && g.Shell.Slots[s].Staged() != "" {
				// The staged bitstream's job went elsewhere and a different
				// application needs this slot: abort the transfer and pay the
				// full stream. Resident neighbours are untouched.
				if err := g.CancelStage(s); err != nil {
					return nil, err
				}
				slots[s].stageReady = -1
				stageSlot = -1
				rep.StageCancels++
			}
			// The demand stream about to start owns the configuration port:
			// an uncommitted staging DMA still in flight anywhere else is
			// aborted — one transfer on the port at a time.
			if cfg.Stage && stageSlot >= 0 && !slots[stageSlot].stageCommit &&
				slots[stageSlot].stageReady > now {
				if err := g.CancelStage(stageSlot); err != nil {
					return nil, err
				}
				slots[stageSlot].stageReady = -1
				stageSlot = -1
				rep.StageCancels++
			}
			// Partial reconfiguration: empty the slot (the IMU channel
			// unbinds; neighbours keep translating) and model the
			// configuration-port time from the bitstream size.
			if err := g.BeginReconfig(s); err != nil {
				return nil, err
			}
			edges := reconfigEdges(table[order[j].App].Img)
			slots[s].reconfigUntil = now + edges
			slots[s].reconfigPs = float64(edges) * periodPs
			rep.Reconfigs++
			rep.TotalReconfigPs += slots[s].reconfigPs
			rep.SlotOccupancy[s].ConfigPs += slots[s].reconfigPs
		}

		// Retarget a stale stage: when the job a bitstream was staged for
		// dispatched elsewhere and no queued job wants it any more, discard
		// it so the port can pre-stage something useful; a staged bitstream
		// some queued job still matches — or one a dispatched job is about
		// to commit — stays parked.
		if cfg.Stage && stageSlot >= 0 && !slots[stageSlot].stageCommit && len(queue) > 0 {
			staged := g.Shell.Slots[stageSlot].Staged()
			wanted := false
			for _, qj := range queue {
				if order[qj].coreName == staged {
					wanted = true
					break
				}
			}
			if !wanted {
				if err := g.CancelStage(stageSlot); err != nil {
					return nil, err
				}
				slots[stageSlot].stageReady = -1
				stageSlot = -1
				rep.StageCancels++
			}
		}

		// Pre-stage: every slot is committed but jobs are waiting, so put
		// the configuration port to work behind the resident cores' backs.
		// The target is the busy slot predicted (by the cost model) to free
		// up soonest; the bitstream is the one the policy would dispatch
		// onto that slot if it were free right now — asked by handing the
		// policy a hypothetical slot table — so the stage anticipates the
		// policy's own next decision rather than blind arrival order. One
		// transfer on the port at a time: a staging DMA only starts while
		// no demand stream (or staged-hit residual) is flowing.
		portBusy := false
		for s := range slots {
			if slots[s].reconfigUntil >= 0 {
				portBusy = true
				break
			}
		}
		if cfg.Stage && stageSlot < 0 && !portBusy && len(queue) > 0 {
			target := -1
			bestFin := 0.0
			for s := range slots {
				if slots[s].mb == nil {
					continue // free or already reconfiguring for a dispatched job
				}
				fin := slots[s].startPs + estPs(&order[slots[s].job])
				if target < 0 || fin < bestFin {
					target, bestFin = s, fin
				}
			}
			if target >= 0 {
				hyp := slotStates(now)
				hyp[target].Free = true
				qi, hs, ok := policy.Pick(queuedJobs(), hyp, ctx)
				if ok && hs == target {
					next := &order[queue[qi]]
					if g.Shell.Slots[target].Resident() != next.coreName {
						if err := g.BeginStage(target, table[next.App].Img); err != nil {
							return nil, err
						}
						slots[target].stageReady = now + reconfigEdges(table[next.App].Img)
						stageSlot = target
					}
				}
			}
		}

		// Arm the shell's wake deadline for the earliest timed event: the
		// next arrival or the next reconfiguration completion. Idle
		// stretches up to it are bulk-skipped.
		deadline := int64(-1)
		if nextArrival < len(order) {
			deadline = cycleOf(order[nextArrival].ArrivalPs)
		}
		running := false
		for s := range slots {
			if slots[s].reconfigUntil >= 0 && (deadline < 0 || slots[s].reconfigUntil < deadline) {
				deadline = slots[s].reconfigUntil
			}
			if slots[s].mb != nil {
				running = true
			}
		}
		if deadline < 0 && !running {
			return nil, fmt.Errorf("rcsched: stalled with %d of %d jobs served", completed, len(order))
		}
		g.Shell.SetWake(deadline)

		n, err := g.Shell.RunUntilEvent(budget)
		budget -= n
		if err != nil {
			return nil, fmt.Errorf("rcsched: %v (budget exhausted serving job stream)", err)
		}
	}

	rep.VIM = g.M.Count
	rep.IMU = board.IMU.Count
	rep.SWDPPs = board.Kern.TL.Ps(stats.SWDP)
	rep.SWIMUPs = board.Kern.TL.Ps(stats.SWIMU)
	rep.SWOSPs = board.Kern.TL.Ps(stats.SWOS)
	rep.Summary = Summarize(rep.Jobs)
	// The means run over the completed population, like the Summary.
	wait, lat := 0.0, 0.0
	for i := range rep.Jobs {
		if j := &rep.Jobs[i]; j.Disposition != Rejected {
			wait += j.QueueWaitPs
			lat += j.LatencyPs
		}
	}
	if rep.Completed > 0 {
		rep.MeanWaitPs = wait / float64(rep.Completed)
		rep.MeanLatencyPs = lat / float64(rep.Completed)
	}
	if rep.MakespanPs > 0 {
		util := 0.0
		for _, b := range rep.SlotBusyPs {
			util += b / rep.MakespanPs
		}
		rep.UtilMean = util / float64(cfg.Slots)
	}
	// Idle time is the makespan remainder, making the three occupancy
	// shares sum to MakespanPs per slot by construction.
	for s := range rep.SlotOccupancy {
		o := &rep.SlotOccupancy[s]
		o.IdlePs = rep.MakespanPs - o.BusyPs - o.ConfigPs
	}
	rep.IMUCh = make([]imu.Counters, cfg.Slots)
	for s := 0; s < cfg.Slots; s++ {
		rep.IMUCh[s] = board.IMU.ChCounters(s)
	}
	if meter != nil {
		meter.Advance(eng.NowPs())
		meterReport(meter, rep, eng.Stats())
		pid := cfg.TracePid
		if pid == 0 {
			pid = ServeBoardPid
		}
		TraceReport(meter.Trace(), rep, pid)
	}
	return rep, nil
}

// finishJob verifies a completed job's output in place against the golden
// algorithm, computed into ws from the job's input objects as user memory
// holds them (checked intact first), and records its metrics.
func finishJob(rep *Report, k *kernel.Kernel, ws *workspace, a *apps.Image, job *Job, p *prepared, sr *slotRun, mb *core.Member, idx int) error {
	want, err := ws.golden(k, a, job, p)
	if err != nil {
		return err
	}
	i, err := k.MismatchUser(p.base[a.Out()], want)
	if err != nil {
		return err
	}
	if i >= 0 {
		return fmt.Errorf("rcsched: job %d (%s, %d B) output diverges from the golden algorithm at byte %d",
			job.ID, job.App, job.Size, i)
	}
	s := mb.Sess.ID()
	done := mb.DonePs()
	jr := JobReport{
		ID:           job.ID,
		App:          job.App,
		Size:         job.Size,
		Slot:         s,
		ArrivalPs:    job.ArrivalPs,
		DeadlinePs:   job.DeadlinePs,
		QueueWaitPs:  sr.dispatchPs - job.ArrivalPs,
		ReconfigPs:   sr.reconfigPs,
		ExecPs:       done - sr.startPs,
		LatencyPs:    done - job.ArrivalPs,
		DonePs:       done,
		Reconfigured: sr.reconfigPs > 0,
		Staged:       sr.stagedHit,
		Faults:       mb.Sess.Count.Faults,
		Disposition:  Admitted,
	}
	if job.DeadlinePs > 0 {
		jr.LatenessPs = done - job.DeadlinePs
		jr.Missed = jr.LatenessPs > 0
	}
	rep.Jobs[idx] = jr
	rep.SlotBusyPs[s] += done - sr.dispatchPs
	rep.SlotOccupancy[s].BusyPs += done - sr.startPs
	return nil
}
