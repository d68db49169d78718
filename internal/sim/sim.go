// Package sim provides a deterministic, two-phase synchronous simulation
// kernel of one clock domain.
//
// An engine drives one clock domain at an integer frequency in hertz
// (NewDomain panics on a second): every board shape is a shell whose one
// clock carries the IMU, and a core clocked at a divisor of it is delivered
// the shell edges its own clock would see by the shell's composite ticker
// (package platform). Synchronous components register against the domain
// and receive two callbacks per rising edge: Eval, during which they may
// read the committed outputs of every other component and compute their
// next state, and Update, during which they commit that state. Because
// every component samples only committed values during Eval, evaluation
// order within an edge is irrelevant and the simulation is free of
// combinational races by construction — the classic two-phase
// (evaluate/commit) RTL discipline.
//
// # Schedulers
//
// The engine offers two interchangeable schedulers, selected per Engine
// (SetScheduler) or process-wide (SetDefaultScheduler):
//
//   - EventDriven (the default): edges are delivered one after another,
//     and idle stretches of the domain are bulk-skipped (below).
//
//   - Lockstep: every edge is delivered. It reads no idleness answer, so
//     it is a strict reference for the event scheduler's skips. The
//     differential tests in this package (and the whole-system golden
//     tests at the repository root) prove the two schedulers deliver
//     bit-identical cycle counts and metrics for every configuration,
//     which is what makes the event-driven path safe to default to.
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
//     engine asks it before every edge.
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
// When every ticker of the domain is idle for a bounded window, the
// event-driven scheduler advances the domain's cycle counter over the
// window in one pass and delivers the edge after it normally, because that
// is where a skipped component wakes. The skipped edges are exactly the
// ones whose Eval would have taken the component's no-op fast path, so
// cycle counts, counters, committed values and NowPs are bit-identical to
// the unskipped schedule. An open-ended window (every ticker idle until
// input) is not skipped: nothing would end it, so its edges are delivered
// one by one and run budgets still advance, exactly as under lockstep.
//
// The kernel is allocation-free in steady state, and the flag-polled run
// loop RunUntilFlag stops on a plain bool without any per-edge closure
// call.
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
// on state other components may commit meanwhile (internal countdowns are
// allowed; that is the point). It returns 0 when the component is busy and
// IdleForever when it is idle until input. The window may end early only
// through an external poke between run calls (the OS models only touch
// hardware while the engine is paused). A plain BulkIdler is asked afresh
// every time the engine considers skipping its domain, so pokes are seen; a
// Publisher is asked only while its Horizon is stale, and must itself
// invalidate the horizon on every poke and on every commit of another
// component its answer was computed on.
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
//     another component's commit or an OS poke between run calls —
//     Invalidate it, so the engine re-queries IdleEdges before it next
//     relies on it.
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

// Scheduler selects the engine's scheduling algorithm.
type Scheduler uint8

const (
	// SchedulerDefault resolves to the package-wide default (EventDriven
	// unless overridden with SetDefaultScheduler). It is the zero value so
	// that config structs embedding a Scheduler default sensibly.
	SchedulerDefault Scheduler = iota
	// EventDriven bulk-skips bounded windows in which every ticker is
	// idle.
	EventDriven
	// Lockstep delivers every edge, kept as the reference implementation
	// for differential testing.
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

// Engine owns one clock domain and advances it edge by edge.
type Engine struct {
	dom *Domain // nil until NewDomain
	// stopErr is set by a Ticker via Fail and aborts the current Run.
	stopErr error

	// sched selects the scheduling algorithm (resolved, never
	// SchedulerDefault).
	sched Scheduler
	// noSkip > 0 suspends idle bulk-skipping (RunCycles needs to hit its
	// cycle target exactly, not jump past it).
	noSkip int

	// Telemetry tally, maintained off the per-edge hot paths: skipped edges
	// accrue only inside the (rare) bulk-skip passes. Delivered edges are
	// derived lazily in Stats from the domain's cycle counter, so the
	// delivery loops stay untouched.
	statSkipped int64
}

// Stats is a snapshot of the engine's scheduling tallies, all monotonic
// over the engine's lifetime. EdgesDelivered counts domain edges whose
// tickers actually ran Eval/Update; EdgesSkipped counts edges consumed by
// idle bulk-skip instead (the two sum to the domain's cycle counter). The
// lockstep scheduler never skips, so EdgesSkipped stays zero under it.
type Stats struct {
	EdgesDelivered int64
	EdgesSkipped   int64
	// HeapOps is always 0: the scheduler keeps no event heap. The field
	// stays because exported telemetry reports it (sim_heap_ops_total).
	HeapOps int64
}

// Since returns the tallies accrued after the snapshot prev.
func (s Stats) Since(prev Stats) Stats {
	return Stats{
		EdgesDelivered: s.EdgesDelivered - prev.EdgesDelivered,
		EdgesSkipped:   s.EdgesSkipped - prev.EdgesSkipped,
	}
}

// Stats returns the engine's scheduling tallies. Reporting only: reading
// them never perturbs the schedule.
func (e *Engine) Stats() Stats {
	total := int64(0)
	if e.dom != nil {
		total = e.dom.cycles
	}
	return Stats{
		EdgesDelivered: total - e.statSkipped,
		EdgesSkipped:   e.statSkipped,
	}
}

// NewEngine returns an empty engine using the package default scheduler.
func NewEngine() *Engine { return &Engine{sched: defaultScheduler} }

// SetScheduler selects the engine's scheduling algorithm; SchedulerDefault
// resolves to the package default. Switching invalidates every published
// horizon (owners stop publishing under lockstep), so it is safe between
// run calls and between Steps, but not from a ticker or done() inside
// RunUntil or RunUntilFlag, which keep the loop they chose when called.
func (e *Engine) SetScheduler(s Scheduler) {
	if s == SchedulerDefault {
		s = defaultScheduler
	}
	e.sched = s
	if e.dom != nil {
		for _, h := range e.dom.pubs {
			h.Invalidate()
		}
	}
}

// Scheduler returns the engine's resolved scheduling algorithm.
func (e *Engine) Scheduler() Scheduler { return e.sched }

// NewDomain creates the engine's clock domain. It panics on a second
// domain and on a frequency that is not positive. NewDomain must not be
// called while RunUntil or RunUntilFlag is in progress.
func (e *Engine) NewDomain(name string, freqHz int64) *Domain {
	switch {
	case e.dom != nil:
		panic(fmt.Sprintf("sim: an engine has one clock domain (domain %q)", name))
	case freqHz <= 0:
		panic(fmt.Sprintf("sim: clock %d Hz must be positive (domain %q)", freqHz, name))
	}
	e.dom = &Domain{name: name, freqHz: freqHz, eng: e}
	return e.dom
}

// Fail aborts the current Run with err. It is intended to be called from a
// Ticker when the model reaches an impossible state.
func (e *Engine) Fail(err error) { e.stopErr = err }

// ErrBudget is returned by Run variants when the cycle budget is exhausted
// before the stop condition is met.
var ErrBudget = errors.New("sim: cycle budget exhausted")

// ErrNoDomains is returned by Run variants on an engine without a clock
// domain, which has no edge to deliver.
var ErrNoDomains = errors.New("sim: engine has no clock domain")

// tick delivers one edge to the domain: all Evals, then all Updates.
func (d *Domain) tick() {
	for _, t := range d.tickers {
		t.Eval()
	}
	for _, t := range d.tickers {
		t.Update()
	}
	d.cycles++
}

// step advances the simulation by one edge, after bulk-skipping a bounded
// idle window under the event-driven scheduler unless skipping is
// suspended, and returns the edges consumed. RunCycles steps with it, and
// it is the reference the run loops, which choose their loop once per
// call, must match.
func (e *Engine) step() int64 {
	if e.sched == EventDriven && e.noSkip == 0 {
		var never bool
		n, _ := e.runSolo(&never, nil, 1)
		return n
	}
	e.dom.tick()
	return 1
}

// Step delivers the next edge of the engine's domain (none on an engine
// without one). Under the event-driven scheduler a Step may first consume
// a bulk-skipped idle window, exactly as the run loops do.
func (e *Engine) Step() {
	if e.dom != nil {
		e.step()
	}
}

// RunUntil advances the simulation until done() reports true (checked before
// every edge) or at least maxEdges edges have been delivered, whichever
// comes first. It returns the number of edges delivered (counting
// bulk-skipped idle edges; a skipped window is consumed whole, so
// when one spans the budget boundary the final count exceeds maxEdges by up
// to the window's length, which a coprocessor's hit run makes thousands of
// edges) and ErrBudget if the budget ran out, ErrNoDomains if the engine
// has no domain, or the error passed to Fail.
func (e *Engine) RunUntil(done func() bool, maxEdges int64) (int64, error) {
	var never bool
	return e.run(&never, done, maxEdges)
}

// RunUntilFlag advances the simulation until *stop is true (checked before
// every edge, exactly as RunUntil) or maxEdges edges have been delivered. It is the allocation- and closure-free variant of RunUntil for
// hot loops whose stop condition is a single level-sensitive line, such as
// an interrupt request.
func (e *Engine) RunUntilFlag(stop *bool, maxEdges int64) (int64, error) {
	return e.run(stop, nil, maxEdges)
}

// run is the loop behind RunUntil and RunUntilFlag. Before every edge it
// stops once *stop is up or done() reports true; otherwise it runs until
// maxEdges edges have passed. It returns the edges consumed and the error
// passed to Fail, or what spent says once maxEdges have passed.
//
// The loop is chosen once per call, not once per edge: an event-driven
// engine runs runSolo, a lockstep engine the plain delivery loop below.
// Tickers must therefore not add tickers, or switch the scheduler, while a
// run is in progress.
func (e *Engine) run(stop *bool, done func() bool, maxEdges int64) (int64, error) {
	e.stopErr = nil
	if maxEdges <= 0 {
		return 0, spent(stop, done)
	}
	if *stop || done != nil && done() {
		return 0, nil
	}
	d := e.dom
	if d == nil {
		return 0, ErrNoDomains
	}
	if e.sched == EventDriven {
		return e.runSolo(stop, done, maxEdges)
	}
	n := int64(0)
	for {
		d.tick()
		n++
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

// runSolo is run's loop for an event-driven engine, and the only code
// that skips: step runs it with a one-edge budget unless skipping is
// suspended. A bounded idle window (a compute phase) is jumped in one go.
// An open-ended one is not: with nothing to wake the component, its no-op
// edges are delivered one by one so run budgets still advance, exactly as
// lockstep does. Domain.tick is inlined over a hoisted ticker slice:
// serving spends most of its host time in this loop, and looping over a
// step function instead measured about 5% slower.
func (e *Engine) runSolo(stop *bool, done func() bool, maxEdges int64) (int64, error) {
	d := e.dom
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

// RunCycles delivers exactly n rising edges to d, the engine's domain.
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
// time of the latest delivered edge. Reporting only.
func (e *Engine) NowPs() float64 {
	if e.dom == nil {
		return 0
	}
	return float64(e.dom.cycles) / float64(e.dom.freqHz) * 1e12
}
