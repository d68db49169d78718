package rcsched

// SlotState is the scheduler-visible state of one shell slot when a
// dispatch decision is made.
type SlotState struct {
	Free     bool   // no member attached and no reconfiguration in flight
	Resident string // core currently configured into the slot ("" if empty)
	Staged   string // core pre-staged into the slot's staging buffer ("" if none)
}

// PickCtx is the run context a dispatch decision may consult: the current
// instant and the scheduler's cost model, so deadline-aware policies can
// estimate whether a choice makes an urgent job miss. Policies that ignore
// it must behave identically when it is nil (unit tests construct bare
// queues).
type PickCtx struct {
	NowPs float64
	// ExecEstPs estimates a job's execution time from the calibrated cost
	// model (paging and fault service excluded).
	ExecEstPs func(*Job) float64
	// ReconfigPs is the full configuration-port cost of streaming a job's
	// bitstream (what dispatching it onto a non-matching slot pays).
	ReconfigPs func(*Job) float64
}

// Policy picks which queued job to dispatch next and onto which free slot.
// Pick sees the admission queue in arrival order (ties broken by job ID at
// trace generation), every slot's state and the run context; it must
// return a queue index and a free slot index, or ok == false to leave the
// queue waiting. It must not retain queue or slots: Serve refills both in
// place between calls. All bundled policies are work-conserving: they
// always dispatch when a job and a free slot exist.
type Policy interface {
	Name() string
	Pick(queue []*Job, slots []SlotState, ctx *PickCtx) (jobIdx, slot int, ok bool)
}

// NewPolicy resolves a scheduling policy by name ("fcfs", "sjf",
// "affinity", "edf", "slack").
func NewPolicy(name string) (Policy, bool) {
	switch name {
	case "", "fcfs":
		return FCFS{}, true
	case "sjf":
		return SJF{}, true
	case "affinity", "bitstream-affinity":
		return Affinity{}, true
	case "edf":
		return EDF{}, true
	case "slack":
		return Slack{}, true
	}
	return nil, false
}

// lowestFree returns the lowest-indexed free slot, or -1.
func lowestFree(slots []SlotState) int {
	for i, s := range slots {
		if s.Free {
			return i
		}
	}
	return -1
}

// matchKind ranks how well a free slot suits a job's bitstream; higher is
// cheaper to dispatch onto.
type matchKind int

const (
	matchNone     matchKind = iota // nothing free
	matchAny                       // a free slot holding some other resident core
	matchEmpty                     // a free, never-configured slot (streams either way, evicts nothing)
	matchStaged                    // the job's bitstream is already pre-staged (commit latency only)
	matchResident                  // the job's core is already resident (zero configuration traffic)
)

// chooseFree is the single free-slot scan every placement decision goes
// through, with one explicit preference order: a resident match beats a
// staged match beats an empty slot beats any other free slot; within one
// kind the lowest-indexed slot wins, so multi-match decisions are
// deterministic. It returns the chosen slot (-1 if nothing is free) and
// the match kind that chose it.
func chooseFree(slots []SlotState, want string) (int, matchKind) {
	best, kind := -1, matchNone
	for i, s := range slots {
		if !s.Free {
			continue
		}
		k := matchAny
		switch {
		case want != "" && s.Resident == want:
			k = matchResident
		case want != "" && s.Staged == want:
			k = matchStaged
		case s.Resident == "":
			k = matchEmpty
		}
		if k > kind {
			best, kind = i, k
		}
	}
	return best, kind
}

// FCFS dispatches jobs strictly in arrival order onto the lowest-indexed
// free slot, oblivious to what is resident there — the baseline every
// reconfiguration-aware policy is measured against.
type FCFS struct{}

// Name implements Policy.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Policy.
func (FCFS) Pick(queue []*Job, slots []SlotState, _ *PickCtx) (int, int, bool) {
	if len(queue) == 0 {
		return 0, 0, false
	}
	slot := lowestFree(slots)
	if slot < 0 {
		return 0, 0, false
	}
	return 0, slot, true
}

// SJF (shortest job first) dispatches the queued job with the smallest
// modelled service demand — Job.Cost, the per-app cost weight times the
// input size — onto the lowest-indexed free slot. Ranking by raw input
// size misranks mixed queues: an ADPCM job moves four times the output
// traffic of an IDEA job of the same input size and occupies its core far
// longer, so a "smaller" ADPCM request can be the longest job waiting.
// Ties keep arrival order.
type SJF struct{}

// Name implements Policy.
func (SJF) Name() string { return "sjf" }

// Pick implements Policy.
func (SJF) Pick(queue []*Job, slots []SlotState, _ *PickCtx) (int, int, bool) {
	if len(queue) == 0 {
		return 0, 0, false
	}
	slot := lowestFree(slots)
	if slot < 0 {
		return 0, 0, false
	}
	best := 0
	for i, j := range queue[1:] {
		if j.Cost() < queue[best].Cost() {
			best = i + 1
		}
	}
	return best, slot, true
}

// Affinity is the bitstream-affinity policy: it avoids partial
// reconfiguration by preferring (job, slot) pairs whose application is
// already resident in the slot. Jobs are scanned in arrival order and the
// first one whose bitstream matches a free slot dispatches there without
// any configuration-port traffic; when nothing matches, it falls back to
// FCFS order through chooseFree's preference ladder — a slot holding the
// head job's pre-staged bitstream first, then a still-empty slot (which
// must be configured either way) over evicting a resident core.
type Affinity struct{}

// Name implements Policy.
func (Affinity) Name() string { return "affinity" }

// Pick implements Policy.
func (Affinity) Pick(queue []*Job, slots []SlotState, _ *PickCtx) (int, int, bool) {
	if len(queue) == 0 {
		return 0, 0, false
	}
	for i, j := range queue {
		if s, kind := chooseFree(slots, j.coreName); kind == matchResident {
			return i, s, true
		}
	}
	// No affinity match: FCFS order, best remaining placement for the head.
	s, kind := chooseFree(slots, queue[0].coreName)
	if kind == matchNone {
		return 0, 0, false
	}
	return 0, s, true
}

// deadlineBefore reports whether a's deadline is strictly more urgent than
// b's; jobs without a deadline sort after every deadlined job.
func deadlineBefore(a, b *Job) bool {
	switch {
	case a.DeadlinePs <= 0:
		return false
	case b.DeadlinePs <= 0:
		return true
	default:
		return a.DeadlinePs < b.DeadlinePs
	}
}

// edfIndex returns the queue index of the most urgent job (earliest
// deadline; ties and deadline-free jobs keep arrival order).
func edfIndex(queue []*Job) int {
	best := 0
	for i, j := range queue[1:] {
		if deadlineBefore(j, queue[best]) {
			best = i + 1
		}
	}
	return best
}

// EDF (earliest deadline first) dispatches the queued job with the
// soonest service-level deadline onto the best free slot for its
// bitstream; jobs without deadlines run after every deadlined job, in
// arrival order. EDF is deadline-optimal on an identical-slot abstraction
// but pays every reconfiguration FCFS would.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf" }

// Pick implements Policy.
func (EDF) Pick(queue []*Job, slots []SlotState, _ *PickCtx) (int, int, bool) {
	if len(queue) == 0 {
		return 0, 0, false
	}
	j := edfIndex(queue)
	s, kind := chooseFree(slots, queue[j].coreName)
	if kind == matchNone {
		return 0, 0, false
	}
	return j, s, true
}

// Slack is the deadline-aware affinity policy: take the cheap match — the
// most urgent queued job whose bitstream is resident (zero config) or
// pre-staged (commit latency only) in a free slot — unless doing so would
// make the most urgent queued job miss a deadline it would otherwise have
// met, in which case the urgent job dispatches instead, EDF-style. Both
// halves of that test use the calibrated cost model: the urgent job only
// wins the slot if (a) dispatched now it still meets its deadline, and
// (b) queued behind the cheap job's estimated completion it does not — a
// job that is doomed either way must not trigger a reconfiguration storm
// that makes every other job late too (the classic EDF overload
// collapse).
type Slack struct{}

// Name implements Policy.
func (Slack) Name() string { return "slack" }

// Pick implements Policy.
func (Slack) Pick(queue []*Job, slots []SlotState, ctx *PickCtx) (int, int, bool) {
	if len(queue) == 0 {
		return 0, 0, false
	}
	// The cheap match: among jobs whose bitstream is already resident or
	// staged in a free slot, the most urgent one.
	cheapJob, cheapSlot := -1, -1
	for i, j := range queue {
		if s, kind := chooseFree(slots, j.coreName); kind >= matchStaged {
			if cheapJob < 0 || deadlineBefore(j, queue[cheapJob]) {
				cheapJob, cheapSlot = i, s
			}
		}
	}
	urgent := edfIndex(queue)
	if cheapJob < 0 {
		// No cheap match anywhere: serve the most urgent job, best placement.
		s, kind := chooseFree(slots, queue[urgent].coreName)
		if kind == matchNone {
			return 0, 0, false
		}
		return urgent, s, true
	}
	if cheapJob == urgent || ctx == nil || queue[urgent].DeadlinePs <= 0 {
		return cheapJob, cheapSlot, true
	}
	// Would the cheap dispatch make the urgent job miss? Only if it takes
	// the last free slot: otherwise the urgent job dispatches this same
	// instant on the next pick.
	free := 0
	for _, s := range slots {
		if s.Free {
			free++
		}
	}
	if free > 1 {
		return cheapJob, cheapSlot, true
	}
	needPs := ctx.ExecEstPs(queue[urgent])
	us, ukind := chooseFree(slots, queue[urgent].coreName)
	if ukind < matchStaged {
		needPs += ctx.ReconfigPs(queue[urgent])
	}
	deadline := queue[urgent].DeadlinePs
	savable := ctx.NowPs+needPs <= deadline
	missesBehindCheap := ctx.NowPs+ctx.ExecEstPs(queue[cheapJob])+needPs > deadline
	if savable && missesBehindCheap {
		return urgent, us, true
	}
	return cheapJob, cheapSlot, true
}
