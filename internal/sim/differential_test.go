package sim

// Differential test harness: the event-driven scheduler must be
// indistinguishable from the lockstep reference for every configuration —
// identical edge schedules when nothing is skippable, and identical
// observable state (cycle counts, component state, NowPs) when idle windows
// let the event engine bulk-skip. Configurations are generated from fixed
// seeds: one domain at a random clock carrying several scripted tickers,
// with random mixes of active, bounded-countdown and wait-for-input
// windows.

import (
	"fmt"
	"math/rand"
	"testing"
)

const (
	phActive = iota // does work every edge (never skippable)
	phCount         // bounded countdown: inert except the final edge
	phWait          // idle until another ticker commits the wake flag
)

type sphase struct {
	kind int
	n    int64 // edges (phActive/phCount); ignored for phWait
}

// scriptTicker runs a cyclic phase script. It implements BulkIdler with the
// exact semantics the engine contract requires: countdown edges are pure
// decrements (the final one, which advances the script, is delivered), and
// wait phases are idle until the wake flag — set only by another ticker's
// Update — is observed high.
type scriptTicker struct {
	phases []sphase
	pi     int
	rem    int64

	edges  int64  // every edge, delivered or skipped
	active int64  // active edges only
	sum    uint64 // rolling hash over active edges (the observable)

	flag *bool   // wake flag this ticker waits on (phWait)
	out  []*bool // wake flags this ticker raises (driver role)
	// fireEvery raises every out flag each time active hits a multiple.
	fireEvery int64
	firePend  bool
}

func newScriptTicker(phases []sphase) *scriptTicker {
	return &scriptTicker{phases: phases, rem: phases[0].n}
}

func (t *scriptTicker) step() {
	t.pi = (t.pi + 1) % len(t.phases)
	t.rem = t.phases[t.pi].n
}

func (t *scriptTicker) Eval() {
	t.edges++
	switch t.phases[t.pi].kind {
	case phActive:
		t.active++
		t.sum = (t.sum ^ (uint64(t.edges)*31 + uint64(t.pi))) * 0x9E3779B97F4A7C15
		if t.fireEvery > 0 && t.active%t.fireEvery == 0 {
			t.firePend = true
		}
		t.rem--
		if t.rem == 0 {
			t.step()
		}
	case phCount:
		t.rem--
		if t.rem == 0 {
			t.step()
		}
	case phWait:
		if *t.flag {
			*t.flag = false
			t.step()
		}
	}
}

func (t *scriptTicker) Update() {
	if t.firePend {
		t.firePend = false
		for _, f := range t.out {
			*f = true
		}
	}
}

// IdleEdges implements BulkIdler.
func (t *scriptTicker) IdleEdges() int64 {
	switch t.phases[t.pi].kind {
	case phCount:
		// The committed rem is always >= 1 inside a countdown; the edge
		// that drops it to 0 advances the script and must be delivered.
		if t.rem > 1 {
			return t.rem - 1
		}
	case phWait:
		if !*t.flag {
			return IdleForever
		}
	}
	return 0
}

// SkipEdges implements BulkIdler: skipped edges count like delivered ones
// and fast-forward a countdown; skipped wait edges carry no state.
func (t *scriptTicker) SkipEdges(k int64) {
	t.edges += k
	if t.phases[t.pi].kind == phCount {
		t.rem -= k
	}
}

// tickSpec describes one scripted ticker of a differential configuration.
type tickSpec struct {
	phases     []sphase
	hasWait    bool
	extraIdler bool // attach an always-idle BulkIdler alongside
	watched    bool // newPubRig only: deliver the ticker through a carrier, Watch its horizon
}

// diffResult is everything observable about one run, plus the number of
// engine steps taken (done() polls), which shows how much skipping helped.
type diffResult struct {
	cycles int64
	edges  []int64
	active []int64
	sums   []uint64
	nowPs  float64
	steps  int64
}

// observe fills in the per-ticker observables of ticks.
func (r *diffResult) observe(ticks []*scriptTicker) {
	for _, tk := range ticks {
		r.edges = append(r.edges, tk.edges)
		r.active = append(r.active, tk.active)
		r.sums = append(r.sums, tk.sum)
	}
}

// wire makes ticks[0] the driver: it raises the wake flag of every waiting
// ticker.
func wire(ticks []*scriptTicker, fireEvery int64) {
	drv := ticks[0]
	drv.fireEvery = fireEvery
	for _, tk := range ticks[1:] {
		if tk.flag != nil {
			drv.out = append(drv.out, tk.flag)
		}
	}
}

// runSpec assembles fresh tickers for specs on one domain at freq and runs
// them under sched until the driver (ticker 0) has performed target active
// edges.
func runSpec(t *testing.T, sched Scheduler, freq int64, specs []tickSpec, fireEvery, target int64) diffResult {
	t.Helper()
	e := NewEngine()
	e.SetScheduler(sched)
	d := e.NewDomain("clk", freq)
	ticks := make([]*scriptTicker, len(specs))
	for i, s := range specs {
		tk := newScriptTicker(s.phases)
		if s.hasWait {
			tk.flag = new(bool)
		}
		ticks[i] = tk
		d.Attach(tk)
		if s.extraIdler {
			d.Attach(alwaysIdle{})
		}
	}
	wire(ticks, fireEvery)
	drv := ticks[0]
	var polls int64
	if _, err := e.RunUntil(func() bool { polls++; return drv.active >= target }, 50_000_000); err != nil {
		t.Fatalf("%v run did not finish: %v", sched, err)
	}
	res := diffResult{cycles: d.Cycles(), nowPs: e.NowPs(), steps: polls}
	res.observe(ticks)
	return res
}

// randPhases builds a cyclic phase script; driver scripts never wait (so the
// system cannot deadlock), and every script does some active work.
func randPhases(r *rand.Rand, driver, canWait bool) ([]sphase, bool) {
	n := 2 + r.Intn(4)
	phases := make([]sphase, 0, n+1)
	hasWait := false
	for i := 0; i < n; i++ {
		switch k := r.Intn(3); {
		case k == 2 && canWait && !driver:
			phases = append(phases, sphase{kind: phWait})
			hasWait = true
		case k == 1:
			phases = append(phases, sphase{kind: phCount, n: 1 + int64(r.Intn(40))})
		default:
			phases = append(phases, sphase{kind: phActive, n: 1 + int64(r.Intn(6))})
		}
	}
	phases = append(phases, sphase{kind: phActive, n: 1 + int64(r.Intn(4))})
	return phases, hasWait
}

// randFreq draws a clock: a multiple of 48 kHz below 48 MHz divided by a
// small divisor, as a board's clocks are.
func randFreq(r *rand.Rand) int64 {
	divs := []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 48}
	return int64(1+r.Intn(999)) * 48_000 / divs[r.Intn(len(divs))]
}

// randSpecs draws n ticker scripts; ticker 0 is the driver.
func randSpecs(r *rand.Rand, n int) []tickSpec {
	specs := make([]tickSpec, n)
	for i := range specs {
		phases, hasWait := randPhases(r, i == 0, true)
		specs[i] = tickSpec{phases: phases, hasWait: hasWait, extraIdler: r.Intn(4) == 0}
	}
	return specs
}

// diffResults reports every observable on which evnt differs from lock.
func diffResults(t *testing.T, lock, evnt diffResult) {
	t.Helper()
	if lock.nowPs != evnt.nowPs {
		t.Errorf("NowPs: lockstep %v, event %v", lock.nowPs, evnt.nowPs)
	}
	if lock.cycles != evnt.cycles {
		t.Errorf("cycles: lockstep %d, event %d", lock.cycles, evnt.cycles)
	}
	for i := range lock.edges {
		if lock.edges[i] != evnt.edges[i] || lock.active[i] != evnt.active[i] || lock.sums[i] != evnt.sums[i] {
			t.Errorf("ticker %d: lockstep edges/active/hash %d/%d/%#x, event %d/%d/%#x",
				i, lock.edges[i], lock.active[i], lock.sums[i], evnt.edges[i], evnt.active[i], evnt.sums[i])
		}
	}
}

// TestDifferentialIdleConfigs is the headline equivalence test: for seeded
// random configurations of two or three tickers with random idle patterns,
// the event-driven engine (which bulk-skips) and the lockstep engine (which
// delivers every edge) must agree on every observable: the cycle count,
// per-ticker edge and active-edge counts, the active-edge hash, and
// simulated time.
func TestDifferentialIdleConfigs(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			freq := randFreq(r)
			specs := randSpecs(r, 2+r.Intn(2))
			fireEvery := int64(1 + r.Intn(3))
			diffResults(t, runSpec(t, Lockstep, freq, specs, fireEvery, 200),
				runSpec(t, EventDriven, freq, specs, fireEvery, 200))
		})
	}
}

// traceSchedule drives an engine of n tickers that never idle (counters,
// and BulkIdlers that always answer busy) Step by Step and records, after
// every Step, the cycle count and every counter's committed value.
func traceSchedule(sched Scheduler, freq int64, kinds []bool, steps int) ([]int64, float64, int64) {
	build := func() (*Engine, *Domain, []*counter) {
		e := NewEngine()
		e.SetScheduler(sched)
		d := e.NewDomain("clk", freq)
		var cs []*counter
		for _, busy := range kinds {
			if busy {
				d.Attach(&busyBulk{})
				continue
			}
			c := &counter{}
			cs = append(cs, c)
			d.Attach(c)
		}
		return e, d, cs
	}
	e, d, cs := build()
	var trace []int64
	for s := 0; s < steps; s++ {
		e.Step()
		trace = append(trace, d.Cycles())
		for _, c := range cs {
			trace = append(trace, int64(c.n.Get()))
		}
	}
	// A second engine checks the run-loop edge accounting: with nothing
	// skippable both schedulers count identically.
	e2, _, _ := build()
	n, _ := e2.RunUntil(nil, int64(steps))
	return trace, e.NowPs(), n
}

// TestDifferentialSchedules pins exact edge equivalence when nothing is
// skippable: for seeded random clocks and mixes of counters and busy
// BulkIdlers, every event-driven Step must deliver exactly the edge the
// lockstep Step does, with the same cycle count and component state, and
// the run loops must count the same number of edges.
func TestDifferentialSchedules(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed + 1000))
			freq := randFreq(r)
			kinds := make([]bool, 1+r.Intn(3))
			for i := range kinds {
				kinds[i] = r.Intn(2) == 0
			}
			lockT, lockNow, lockN := traceSchedule(Lockstep, freq, kinds, 600)
			evntT, evntNow, evntN := traceSchedule(EventDriven, freq, kinds, 600)
			if lockNow != evntNow {
				t.Errorf("NowPs: lockstep %v, event %v", lockNow, evntNow)
			}
			if lockN != evntN {
				t.Errorf("RunUntil count: lockstep %d, event %d", lockN, evntN)
			}
			if len(lockT) != len(evntT) {
				t.Fatalf("trace lengths differ: lockstep %d, event %d", len(lockT), len(evntT))
			}
			for i := range lockT {
				if lockT[i] != evntT[i] {
					t.Fatalf("trace diverges at %d: lockstep %d, event %d", i, lockT[i], evntT[i])
				}
			}
		})
	}
}

// TestDifferentialBoundedSkipExact is a directed (non-random) case easy to
// reason about by hand: a driver working one edge in 32, and a component
// that alternates long countdowns with waiting for the driver's input. It
// additionally pins that the event engine really skips (the step count is
// smaller), so the equivalence above is not vacuous.
func TestDifferentialBoundedSkipExact(t *testing.T) {
	specs := []tickSpec{
		{phases: []sphase{{kind: phActive, n: 1}, {kind: phCount, n: 31}}},
		{phases: []sphase{{kind: phCount, n: 250}, {kind: phActive, n: 2}, {kind: phWait}, {kind: phActive, n: 1}}, hasWait: true},
	}
	lock := runSpec(t, Lockstep, 48_000_000, specs, 2, 400)
	evnt := runSpec(t, EventDriven, 48_000_000, specs, 2, 400)
	diffResults(t, lock, evnt)
	// The idle windows above dominate the schedule; the event engine must
	// have covered the same simulated span in far fewer steps, proving the
	// equivalence asserted here is about real skipping, not a no-op.
	if evnt.steps*2 >= lock.steps {
		t.Errorf("event engine took %d steps vs lockstep %d; expected <50%%", evnt.steps, lock.steps)
	}
}
