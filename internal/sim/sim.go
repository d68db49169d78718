// Package sim provides a deterministic, two-phase, multi-clock-domain
// synchronous simulation kernel.
//
// The kernel models a set of clock domains, each with an integer frequency in
// hertz. Synchronous components register against a domain and receive two
// callbacks per rising edge: Eval, during which they may read the committed
// outputs of every other component and compute their next state, and Update,
// during which they commit that state. Because every component samples only
// committed values during Eval, evaluation order within an edge is
// irrelevant and the simulation is free of combinational races by
// construction — the classic two-phase (evaluate/commit) RTL discipline.
//
// Edges from different domains are interleaved in exact time order without
// floating-point time. Coincident edges (for example a 6 MHz core and a
// 24 MHz bus every fourth bus cycle) are merged into a single super-edge:
// all Evals run, then all Updates, preserving the synchronous contract
// across domain boundaries.
//
// # Schedulers
//
// The engine offers two interchangeable schedulers, selected per Engine
// (SetScheduler) or process-wide (SetDefaultScheduler):
//
//   - EventDriven (the default): time is counted in ticks of a base clock
//     whose frequency is the least common multiple of the domain
//     frequencies, so every domain edge lands exactly on a tick (for the
//     integer ratios real platforms use, which CheckClocks enforces, the
//     base clock is the fastest domain). The engine keeps, per domain, its period in ticks (ratio) and
//     the absolute tick of its next edge (nextAt); engines of three or more
//     domains keep them in a binary heap keyed by (nextAt, creation order),
//     while one- and two-domain engines need no heap. Coincidence is an
//     integer compare and ties break towards creation order, so coincident
//     edges Eval and Update in exactly the order the lockstep scheduler
//     uses. Idle domains are bulk-skipped (below).
//
//   - Lockstep: a linear scan over all domains per super-edge that compares
//     next-edge times as rationals, (cycles+1)/freqHz, by cross-
//     multiplication in int64. It reads no plan and no idleness answer and
//     delivers every edge, so it is a strict reference for the event
//     scheduler's skips. The differential tests in this package (and the
//     whole-system golden tests at the repository root) prove the two
//     schedulers deliver bit-identical cycle counts and metrics for every
//     configuration, which is what makes the event-driven path safe to
//     default to.
//
// # Idle bulk-skip
//
// Components whose edges are provably no-ops can advertise idleness and let
// the event-driven scheduler jump time forward instead of delivering inert
// edges one by one:
//
//   - BulkIdler: a component reports how many upcoming edges are inert
//     (IdleEdges), IdleForever when it is idle until input, and is
//     fast-forwarded through skipped edges with SkipEdges. A component in a
//     multi-cycle compute phase (a cipher pipeline filling, a serial decode
//     counting down) knows exactly how many upcoming edges are inert; the
//     coprocessor cores answer this way, from their FSM state alone. The
//     engine asks it whenever it considers skipping the component's domain.
//
//   - Publisher turns the question around. A BulkIdler that keeps a Horizon
//     current — the absolute domain cycle of its last inert edge, published
//     as a by-product of its own Update and invalidated explicitly whenever
//     an input it was computed on changes — is not asked while the horizon
//     is fresh. Before every edge the engine reads the domain's published
//     horizons, so the idleness check is a few integer compares, and a
//     stale horizon costs one query. A stale horizon therefore only ever
//     means "re-query", never a skip on out-of-date state. The IMU and the
//     reconfigurable shell publish this way.
//
// When every ticker of a domain is idle, the event-driven scheduler advances
// the domain's cycle counter in bulk to the earliest non-inert edge across
// all domains (the wake horizon) in one O(n) pass — any subset of idle
// domains is jumped over at once. The skipped edges are exactly the ones
// whose Eval would have taken the component's no-op fast path, so cycle
// counts, counters, committed values and NowPs are bit-identical to the
// unskipped schedule; edges at the horizon itself are delivered normally,
// because that is where a skipped component wakes or another domain commits.
//
// The kernel is allocation-free in steady state: Step reuses one scratch
// slice for the set of due domains (callers must not retain it across
// steps), heap operations never allocate, and the flag-polled run loop
// RunUntilFlag stops on a plain bool without any per-edge closure call.
package sim

import (
	"errors"
	"fmt"
	"math"
	"os"
)

// Ticker is a synchronous component driven by a clock domain.
//
// Eval must not modify any state observable by other components; Update
// commits the state computed during Eval. Components that keep all state in
// Reg values get this discipline for free.
type Ticker interface {
	// Eval computes the component's next state from committed inputs.
	Eval()
	// Update commits the state computed by the preceding Eval.
	Update()
}

// IdleForever is the IdleEdges result declaring open-ended idleness: every
// upcoming edge is inert until input arrives.
const IdleForever = int64(math.MaxInt64)

// BulkIdler is an optional Ticker extension for components whose edges are
// provably no-ops for a while: waiting for input, or in an inert window that
// ends on their own clock (a compute pipeline draining, a serial unit
// counting down).
//
// IdleEdges reports how many upcoming edges are provably inert: delivering
// them would neither commit state observable by other components nor depend
// on state other domains may commit meanwhile (internal countdowns are
// allowed; that is the point). It returns 0 when the component is busy and
// IdleForever when it is idle until input. The window may end early only
// through (a) a commit by a component in another clock domain, or (b) an
// external poke between run calls (the OS models only touch hardware while
// the engine is paused). A plain BulkIdler is asked afresh every time the
// engine considers skipping its domain, so both are seen; a Publisher is
// asked only while its Horizon is stale, and must itself invalidate the
// horizon on every such commit or poke.
//
// SkipEdges(k) tells the component that k of those edges (k never exceeds
// the advertised count) were consumed in bulk; it must leave the component
// in exactly the state k delivered edges would have produced, which for a
// contract-abiding component means advancing internal countdowns by k.
// Components whose inert edges carry no state at all may make it a no-op.
//
// Same-domain wake rule: the engine skips a domain only while every one of
// its tickers is idle, so no commit from the same domain can land inside a
// skipped window. A composite ticker that withholds edges from one of its
// sub-components while its siblings in the same domain keep running
// (platform's shell sleeping a computing core next to a busy neighbour)
// gets no such guarantee. It must itself wake the sub-component at the
// first delivered edge after its committed inputs changed from those the
// IdleEdges answer was given on (the shell learns of the change from a
// notice the input's producer posts at commit), call SkipEdges with the
// edges withheld so far, and deliver that edge normally.
type BulkIdler interface {
	IdleEdges() int64
	SkipEdges(k int64)
}

// Publisher is a BulkIdler that publishes its idle horizon instead of being
// asked for it before every edge. Horizon returns the component's own cell;
// Attach binds it to the domain, or Watch when a composite ticker of the
// domain delivers the component's edges itself. The component keeps it
// current:
//
//   - from its Update, Publish the edges after the one being delivered that
//     are inert (what IdleEdges would answer once the edge completes);
//   - whenever an input the published value was computed on changes —
//     another component's commit, in any domain, or an OS poke between run
//     calls — Invalidate it, so the engine re-queries IdleEdges before it
//     next relies on it.
//
// Invalidating in place of publishing is always allowed: it only defers
// the answer to the engine's next read.
//
// A published horizon is absolute, so inert edges — delivered or skipped —
// leave it valid without republishing. A Publisher belongs to one domain at
// a time: attaching or watching it again rebinds its Horizon, after which
// the engine it left must not be run.
type Publisher interface {
	BulkIdler
	Horizon() *Horizon
}

// staleAt marks a Horizon that must be re-queried. It compares below every
// cycle count, so reading it as a horizon can only ever mean "busy".
const staleAt = math.MinInt64

// Horizon is a Publisher's published idle horizon: the absolute domain
// cycle (as Cycles will read once that edge completes) of the owner's last
// provably inert edge. A horizon at or below Cycles means busy, IdleForever
// idle until input. The zero value is unattached: Publish is a no-op and the
// engine never reads it.
type Horizon struct {
	at    int64
	dom   *Domain
	owner BulkIdler
}

// Publish records, from the owner's Update, that the k edges after the one
// being delivered are inert (k <= 0: busy; IdleForever: until input).
func (h *Horizon) Publish(k int64) {
	if d := h.dom; d != nil {
		h.at = horizonAt(d.cycles+1, k)
	}
}

// Invalidate marks the horizon stale: the engine re-queries the owner's
// IdleEdges before relying on it again. It is safe on a nil Horizon, so a
// change notice need not be wired to anything.
func (h *Horizon) Invalidate() {
	if h != nil {
		h.at = staleAt
	}
}

// horizonAt is the absolute horizon of k inert edges after cycle now,
// saturating at IdleForever.
func horizonAt(now, k int64) int64 {
	switch {
	case k <= 0:
		return now
	case k >= IdleForever-now:
		return IdleForever
	}
	return now + k
}

// Scheduler selects the engine's super-edge scheduling algorithm.
type Scheduler uint8

const (
	// SchedulerDefault resolves to the package-wide default (EventDriven
	// unless overridden with SetDefaultScheduler). It is the zero value so
	// that config structs embedding a Scheduler default sensibly.
	SchedulerDefault Scheduler = iota
	// EventDriven schedules super-edges from a min-heap of next-edge times
	// and bulk-skips any subset of idle domains to the wake horizon.
	EventDriven
	// Lockstep is the linear due-domain scan that delivers every edge,
	// kept as the reference implementation for differential testing.
	Lockstep
)

// String implements fmt.Stringer.
func (s Scheduler) String() string {
	switch s {
	case EventDriven:
		return "event-driven"
	case Lockstep:
		return "lockstep"
	default:
		return "default"
	}
}

// defaultScheduler is what NewEngine installs; differential harnesses flip
// it to run identical assembly code under both schedulers. The SIM_SCHEDULER
// environment variable ("event" or "lockstep") overrides it at start-up so
// benchmarks and experiments can be A/B-ed without a rebuild.
var defaultScheduler = EventDriven

func init() {
	switch os.Getenv("SIM_SCHEDULER") {
	case "lockstep":
		defaultScheduler = Lockstep
	case "event", "event-driven":
		defaultScheduler = EventDriven
	}
}

// SetDefaultScheduler changes the scheduler NewEngine installs and returns
// the previous default, so tests can restore it with defer. Passing
// SchedulerDefault restores the built-in default (EventDriven). It is not
// safe for concurrent use with NewEngine.
func SetDefaultScheduler(s Scheduler) Scheduler {
	prev := defaultScheduler
	if s == SchedulerDefault {
		s = EventDriven
	}
	defaultScheduler = s
	return prev
}

// TickerFunc adapts a pair of functions to the Ticker interface.
type TickerFunc struct {
	OnEval   func()
	OnUpdate func()
}

// Eval implements Ticker.
func (t TickerFunc) Eval() {
	if t.OnEval != nil {
		t.OnEval()
	}
}

// Update implements Ticker.
func (t TickerFunc) Update() {
	if t.OnUpdate != nil {
		t.OnUpdate()
	}
}

// Domain is a clock domain with an integer frequency.
type Domain struct {
	name    string
	freqHz  int64
	cycles  int64 // rising edges already delivered
	tickers []Ticker
	eng     *Engine
	order   int // creation index; breaks scheduling ties deterministically

	// Event schedule (valid while eng.planned): the domain's period in
	// ticks of the engine's base clock, and the absolute tick of its next
	// edge.
	ratio  int64
	nextAt int64

	// Skip-pass input: the absolute tick of the domain's first non-inert
	// edge (math.MaxInt64: idle until input), filled in by the pass's
	// caller.
	wake int64

	// pubs and polled hold the tickers that advertise idleness: the
	// Publishers' horizons and the other BulkIdlers (asked every time).
	// Each ticker lands in at most one of them (Publisher wins); pubs also
	// holds the watched publishers' horizons, which watched counts. The
	// domain is bulk-skippable only when every ticker is in one of them;
	// skippable caches that condition across Attach and Watch calls.
	pubs      []*Horizon
	polled    []BulkIdler
	watched   int
	skippable bool
}

// IdleEdges reports how many upcoming edges of the whole domain are
// provably inert — what the event-driven scheduler would skip on now: 0
// when any ticker is busy (or advertises no idleness at all), IdleForever
// when every ticker is idle until input, and otherwise the minimum bounded
// count across tickers. Published horizons come first: a fresh one is an
// integer compare, and a stale one is re-queried once and kept until its
// owner publishes or invalidates again. Reading it changes nothing a model
// can observe.
func (d *Domain) IdleEdges() int64 {
	if !d.skippable {
		return 0
	}
	at := IdleForever
	for _, h := range d.pubs {
		a := h.at
		if a == staleAt {
			a = horizonAt(d.cycles, h.owner.IdleEdges())
			h.at = a
		}
		if a <= d.cycles {
			return 0
		}
		if a < at {
			at = a
		}
	}
	k := IdleForever
	if at < IdleForever {
		k = at - d.cycles
	}
	for _, b := range d.polled {
		n := b.IdleEdges()
		if n <= 0 {
			return 0
		}
		if n < k {
			k = n
		}
	}
	return k
}

// skipEdges consumes k inert edges in bulk: cycle accounting advances as if
// the edges had been delivered, and bounded idlers fast-forward their
// countdowns. k never exceeds the domain's advertised IdleEdges.
func (d *Domain) skipEdges(k int64) {
	for _, h := range d.pubs {
		h.owner.SkipEdges(k)
	}
	for _, b := range d.polled {
		b.SkipEdges(k)
	}
	d.cycles += k
	d.nextAt += k * d.ratio
	d.eng.statSkipped += k
}

// Name returns the domain name given at creation.
func (d *Domain) Name() string { return d.name }

// FreqHz returns the domain frequency in hertz.
func (d *Domain) FreqHz() int64 { return d.freqHz }

// Cycles returns the number of rising edges delivered so far.
func (d *Domain) Cycles() int64 { return d.cycles }

// PeriodPs returns the clock period in picoseconds as a float (reporting
// only; the kernel itself never uses floating-point time).
func (d *Domain) PeriodPs() float64 { return 1e12 / float64(d.freqHz) }

// Attach registers a synchronous component with the domain. It must not
// be called while RunUntil or RunUntilFlag is in progress.
func (d *Domain) Attach(t Ticker) {
	if t == nil {
		panic("sim: Attach(nil)")
	}
	d.tickers = append(d.tickers, t)
	if p, ok := t.(Publisher); ok {
		d.bind(p)
	} else if b, ok := t.(BulkIdler); ok {
		d.polled = append(d.polled, b)
	}
	d.skippable = len(d.pubs)+len(d.polled) == len(d.tickers)+d.watched
}

// Watch registers p's published horizon with the domain without making p a
// ticker: a composite ticker of the domain delivers p's edges itself, as
// platform's shell ticker drives the IMU wired to it. The domain reads,
// re-queries and skips the watched horizon exactly as an attached
// Publisher's (IdleEdges asks p while the horizon is stale, and a skip
// hands p SkipEdges), so the domain is skipped only while p is idle too.
// The lockstep scheduler does not read horizons: under it p is no more
// than a sub-component of the ticker that delivers its edges.
func (d *Domain) Watch(p Publisher) {
	d.bind(p)
	d.watched++
	d.skippable = len(d.pubs)+len(d.polled) == len(d.tickers)+d.watched
}

// bind attaches p's Horizon to the domain, stale until p publishes.
func (d *Domain) bind(p Publisher) {
	h := p.Horizon()
	*h = Horizon{at: staleAt, dom: d, owner: p}
	d.pubs = append(d.pubs, h)
}

// Engine owns a set of clock domains and advances them in time order.
type Engine struct {
	domains []*Domain
	// stopErr is set by a Ticker via Fail and aborts the current Run.
	stopErr error

	// sched selects the scheduling algorithm (resolved, never
	// SchedulerDefault).
	sched Scheduler
	// base is the tick rate of the event schedule: the least common
	// multiple of the domain frequencies (0 while there is no domain).
	base int64
	// eheap is the event scheduler's binary min-heap over (nextAt, order),
	// used by engines of three or more domains; storage is reused across
	// rebuilds.
	eheap []*Domain

	// due is the scratch buffer Step returns; reused every super-edge.
	due []*Domain
	// planned marks the scheduling plan valid; adding a domain clears it.
	planned bool
	// noSkip > 0 suspends idle bulk-skipping (RunCycles needs to hit its
	// per-domain cycle target exactly, not jump past it).
	noSkip int

	// Telemetry tallies, maintained off the per-edge hot paths: skipped
	// edges accrue only inside the (rare) bulk-skip passes and heap ops
	// only inside the heap mutators. Delivered edges are derived lazily in
	// Stats from the per-domain cycle counters, so the delivery loops stay
	// untouched.
	statSkipped int64
	statHeapOps int64
}

// Stats is a snapshot of the engine's scheduling tallies, all monotonic
// over the engine's lifetime. EdgesDelivered counts domain edges whose
// tickers actually ran Eval/Update; EdgesSkipped counts edges consumed by
// idle bulk-skip instead (the two sum to every domain's cycle counter);
// HeapOps counts event-heap mutations (pushes, pops, and one per domain on
// each wholesale rebuild). The lockstep scheduler neither skips nor touches
// the heap, so both tallies stay zero under it, and one- and two-domain
// event-driven engines have no heap, so their HeapOps stays zero too.
type Stats struct {
	EdgesDelivered int64
	EdgesSkipped   int64
	HeapOps        int64
}

// Since returns the tallies accrued after the snapshot prev.
func (s Stats) Since(prev Stats) Stats {
	return Stats{
		EdgesDelivered: s.EdgesDelivered - prev.EdgesDelivered,
		EdgesSkipped:   s.EdgesSkipped - prev.EdgesSkipped,
		HeapOps:        s.HeapOps - prev.HeapOps,
	}
}

// Stats returns the engine's scheduling tallies. Reporting only: reading
// them never perturbs the schedule.
func (e *Engine) Stats() Stats {
	total := int64(0)
	for _, d := range e.domains {
		total += d.cycles
	}
	return Stats{
		EdgesDelivered: total - e.statSkipped,
		EdgesSkipped:   e.statSkipped,
		HeapOps:        e.statHeapOps,
	}
}

// NewEngine returns an empty engine using the package default scheduler.
func NewEngine() *Engine { return &Engine{sched: defaultScheduler} }

// SetScheduler selects the engine's scheduling algorithm; SchedulerDefault
// resolves to the package default. Switching forces a plan rebuild and
// invalidates every published horizon (owners stop publishing under
// lockstep), so it is safe between run calls and between Steps, but not
// from a ticker or done() inside RunUntil or RunUntilFlag, which keep the
// loop they chose when called.
func (e *Engine) SetScheduler(s Scheduler) {
	if s == SchedulerDefault {
		s = defaultScheduler
	}
	e.sched = s
	e.planned = false
	for _, d := range e.domains {
		for _, h := range d.pubs {
			h.Invalidate()
		}
	}
}

// Scheduler returns the engine's resolved scheduling algorithm.
func (e *Engine) Scheduler() Scheduler { return e.sched }

// NewDomain creates a clock domain. It panics unless the frequency is
// positive and the least common multiple of the engine's frequencies,
// which the event schedule counts time in, fits in an int64; assemblers
// reject such clocks with CheckClocks first. The schedule's tick count
// bounds a run to about 9.2e18 / LCM simulated seconds: centuries at the
// integer ratios CheckClocks accepts. NewDomain must not be called while
// RunUntil or RunUntilFlag is in progress.
func (e *Engine) NewDomain(name string, freqHz int64) *Domain {
	if freqHz <= 0 {
		panic(fmt.Sprintf("sim: domain %q: frequency %d Hz must be positive", name, freqHz))
	}
	base := freqHz
	if e.base > 0 {
		q := freqHz / gcd(e.base, freqHz)
		if e.base > math.MaxInt64/q {
			panic(fmt.Sprintf("sim: domain %q: frequency %d Hz puts the LCM of the engine's frequencies beyond int64", name, freqHz))
		}
		base = e.base * q
	}
	e.base = base
	d := &Domain{name: name, freqHz: freqHz, eng: e, order: len(e.domains)}
	e.domains = append(e.domains, d)
	e.planned = false
	return d
}

// gcd is the greatest common divisor of two positive integers.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Domains returns the engine's domains in creation order.
func (e *Engine) Domains() []*Domain { return e.domains }

// Fail aborts the current Run with err. It is intended to be called from a
// Ticker when the model reaches an impossible state.
func (e *Engine) Fail(err error) { e.stopErr = err }

// plan rebuilds the scheduling plan: each domain gets its period in ticks
// of the base clock and the absolute tick of its next edge, and an
// event-driven engine of three or more domains builds its heap.
func (e *Engine) plan() {
	e.planned = true
	for _, d := range e.domains {
		d.ratio = e.base / d.freqHz
		d.nextAt = (d.cycles + 1) * d.ratio
	}
	if e.sched == EventDriven && len(e.domains) >= 3 {
		e.heapInit()
	}
}

// edgeBefore reports whether domain a's next edge is strictly before b's.
// Next-edge times are (a.cycles+1)/a.freq and (b.cycles+1)/b.freq; compare
// by cross multiplication. Frequencies are bounded by ~1e9 and cycle counts
// by the run budget, so the products stay well inside int64.
func edgeBefore(a, b *Domain) bool {
	return (a.cycles+1)*b.freqHz < (b.cycles+1)*a.freqHz
}

// edgeCoincident reports whether the next edges of a and b are simultaneous.
func edgeCoincident(a, b *Domain) bool {
	return (a.cycles+1)*b.freqHz == (b.cycles+1)*a.freqHz
}

// ErrBudget is returned by Run variants when the cycle budget is exhausted
// before the stop condition is met.
var ErrBudget = errors.New("sim: cycle budget exhausted")

// ErrNoDomains is returned by Run variants on an engine without clock
// domains, which has no edge to deliver.
var ErrNoDomains = errors.New("sim: engine has no clock domains")

// tick delivers one edge to a single domain: all Evals, then all Updates.
func (d *Domain) tick() {
	for _, t := range d.tickers {
		t.Eval()
	}
	for _, t := range d.tickers {
		t.Update()
	}
	d.cycles++
	d.nextAt += d.ratio
}

// step advances the simulation without materialising the due set and
// returns the number of super-edges consumed: 1 normally, more when idle
// bulk-skip jumps a domain over a no-op window. RunCycles steps with it,
// and it is the reference the run loops, which choose their step once per
// call, must match; Step is the due-returning public variant.
func (e *Engine) step() int64 {
	if !e.planned {
		e.plan()
	}
	if e.sched == EventDriven {
		return e.eventStep()
	}
	return e.lockstepStep()
}

// Step delivers the earliest pending super-edge: the earliest pending edge
// across all domains together with every other domain edge coincident with
// it. It returns the domains that ticked, in creation order. Under the
// event-driven scheduler a Step may additionally consume bulk-skipped idle
// edges of other domains up to the delivered instant, exactly as the run
// loops do. The returned slice is a scratch buffer owned by the engine and
// is overwritten by the next Step; callers must copy it if they need to
// retain it.
func (e *Engine) Step() []*Domain {
	switch len(e.domains) {
	case 0:
		return nil
	case 1:
		// The event-driven solo path leaves due bookkeeping to this (cold)
		// wrapper.
		e.due = append(e.due[:0], e.domains[0])
	}
	e.step()
	return e.due
}

// lockstepStep is the reference scheduler: a linear scan finds the earliest
// next edge by cross-multiplied rational comparison and collects every
// coincident domain, in creation order; all their Evals run, then all
// their Updates. It asks no component for idleness, so every edge is
// delivered.
func (e *Engine) lockstepStep() int64 {
	earliest := e.domains[0]
	for _, d := range e.domains[1:] {
		if edgeBefore(d, earliest) {
			earliest = d
		}
	}
	due := e.due[:0]
	for _, d := range e.domains {
		if d == earliest || edgeCoincident(d, earliest) {
			due = append(due, d)
		}
	}
	e.due = due
	deliver(due)
	return 1
}

// deliver runs one super-edge on the due domains, given in creation order:
// all Evals, then all Updates.
func deliver(due []*Domain) {
	for _, d := range due {
		for _, t := range d.tickers {
			t.Eval()
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Update()
		}
		d.cycles++
		d.nextAt += d.ratio
	}
}

// RunUntil advances the simulation until done() reports true (checked before
// every super-edge) or at least maxEdges super-edges have been delivered,
// whichever comes first. It returns the number of super-edges delivered
// (counting bulk-skipped idle edges; a skipped window is consumed whole, so
// when one spans the budget boundary the final count exceeds maxEdges by up
// to the window's length, which a coprocessor's hit run makes thousands of
// edges) and ErrBudget if the budget ran out, ErrNoDomains if the engine
// has no domain, or the error passed to Fail.
func (e *Engine) RunUntil(done func() bool, maxEdges int64) (int64, error) {
	var never bool
	return e.run(&never, done, maxEdges)
}

// RunUntilFlag advances the simulation until *stop is true (checked before
// every super-edge, exactly as RunUntil) or maxEdges super-edges have been
// delivered. It is the allocation- and closure-free variant of RunUntil for
// hot loops whose stop condition is a single level-sensitive line, such as
// an interrupt request.
func (e *Engine) RunUntilFlag(stop *bool, maxEdges int64) (int64, error) {
	return e.run(stop, nil, maxEdges)
}

// run is the loop behind RunUntil and RunUntilFlag. Before every super-edge
// it stops once *stop is up or done() reports true; otherwise it runs until
// maxEdges super-edges have passed. It returns the super-edges consumed and
// the error passed to Fail, or what spent says once maxEdges have passed.
//
// The layout is chosen once per call, not once per edge: a solo
// event-driven engine runs runSolo, an event-driven pair loops over
// eventStepPair, and every other layout over its scheduler's step. Tickers
// must therefore not add domains or tickers, or switch the scheduler, while
// a run is in progress.
func (e *Engine) run(stop *bool, done func() bool, maxEdges int64) (int64, error) {
	e.stopErr = nil
	if maxEdges <= 0 {
		return 0, spent(stop, done)
	}
	// The first poll comes before the plan, which a fresh engine builds
	// only once it delivers an edge (plan counts heap operations).
	if *stop || done != nil && done() {
		return 0, nil
	}
	if len(e.domains) == 0 {
		return 0, ErrNoDomains
	}
	if !e.planned {
		e.plan()
	}
	step := e.lockstepStep
	if e.sched == EventDriven {
		switch len(e.domains) {
		case 1:
			return e.runSolo(stop, done, maxEdges)
		case 2:
			step = e.eventStepPair
		default:
			step = e.eventStepHeap
		}
	}
	n := int64(0)
	for {
		n += step()
		if e.stopErr != nil {
			return n, e.stopErr
		}
		if n >= maxEdges {
			return n, spent(stop, done)
		}
		if *stop || done != nil && done() {
			return n, nil
		}
	}
}

// runSolo is run's loop for a single-domain event-driven engine, and the
// only code that skips in that layout: eventStep runs it with a one-edge
// budget unless skipping is suspended. A solo engine has no schedule to
// consult, so a bounded idle window (a compute phase) is jumped in one go.
// An open-ended one is not: with no other domain to wake the component,
// its no-op edges are delivered one by one so run budgets still advance,
// exactly as lockstep does. Domain.tick is inlined over a hoisted ticker
// slice: serving spends most of its host time in this loop, and looping
// over a step function instead measured about 5% slower.
func (e *Engine) runSolo(stop *bool, done func() bool, maxEdges int64) (int64, error) {
	d := e.domains[0]
	ts := d.tickers
	n := int64(0)
	for {
		k := d.IdleEdges()
		if k > 0 && k < IdleForever {
			d.skipEdges(k)
		} else {
			k = 0
		}
		for _, t := range ts {
			t.Eval()
		}
		for _, t := range ts {
			t.Update()
		}
		d.cycles++
		d.nextAt += d.ratio
		n += k + 1
		if e.stopErr != nil {
			return n, e.stopErr
		}
		if n >= maxEdges {
			return n, spent(stop, done)
		}
		if *stop || done != nil && done() {
			return n, nil
		}
	}
}

// spent is a run's error once its budget is spent: nil if the stop
// condition holds after the last edge, ErrBudget otherwise.
func spent(stop *bool, done func() bool) error {
	if *stop || done != nil && done() {
		return nil
	}
	return ErrBudget
}

// RunCycles delivers exactly n rising edges to domain d (other domains tick
// as time passes).
func (e *Engine) RunCycles(d *Domain, n int64) {
	// Idle bulk-skip could jump d past target; deliver edge by edge.
	e.noSkip++
	defer func() { e.noSkip-- }()
	target := d.cycles + n
	for d.cycles < target {
		e.step()
	}
}

// NowPs returns the current simulation time in picoseconds, defined as the
// time of the latest delivered edge across all domains. Reporting only.
func (e *Engine) NowPs() float64 {
	now := 0.0
	for _, d := range e.domains {
		t := float64(d.cycles) / float64(d.freqHz) * 1e12
		now = math.Max(now, t)
	}
	return now
}

// CheckClocks checks a clock plan whose components exchange signals: every
// frequency must be positive and every pair must have an integer ratio, so
// edges align (and the event schedule's base clock is the fastest domain).
// It returns an error naming the first offending clock or pair, or nil.
// Assemblers call it on clocks from outside the program before creating
// domains, since NewDomain panics on a plan it cannot schedule.
func CheckClocks(hz ...int64) error {
	for i, a := range hz {
		if a <= 0 {
			return fmt.Errorf("sim: clock %d Hz must be positive", a)
		}
		for _, b := range hz[:i] {
			if lo, hi := min(a, b), max(a, b); hi%lo != 0 {
				return fmt.Errorf("sim: clocks %d Hz and %d Hz have a non-integer ratio", lo, hi)
			}
		}
	}
	return nil
}
