package sim

// Differential test harness: the event-driven scheduler must be
// indistinguishable from the lockstep reference for every configuration —
// identical edge schedules when nothing is skippable, and identical
// observable state (cycle counts, component state, NowPs) when idle windows
// let the event engine bulk-skip. Configurations are generated from fixed
// seeds: two domains at integer frequency ratios (the only multi-domain
// layout NewDomain builds), with random mixes of active, bounded-countdown
// and wait-for-input windows.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

const (
	phActive = iota // does work every edge (never skippable)
	phCount         // bounded countdown: inert except the final edge
	phWait          // idle until another domain commits the wake flag
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

// domSpec describes one domain of a differential configuration.
type domSpec struct {
	freq       int64
	phases     []sphase
	hasWait    bool
	extraIdler bool // attach an always-idle BulkIdler alongside
	watched    bool // runPub only: deliver the ticker through a carrier, Watch its horizon
}

// diffResult is everything observable about one run, plus the number of
// engine steps taken (done() polls), which shows how much skipping helped.
type diffResult struct {
	cycles []int64
	edges  []int64
	active []int64
	sums   []uint64
	nowPs  float64
	steps  int64
}

// runSpec assembles fresh components for specs and runs them under sched
// until the driver (domain 0) has performed target active edges.
func runSpec(t *testing.T, sched Scheduler, specs []domSpec, fireEvery, target int64) diffResult {
	t.Helper()
	e := NewEngine()
	e.SetScheduler(sched)
	ticks := make([]*scriptTicker, len(specs))
	for i, s := range specs {
		d := e.NewDomain(fmt.Sprintf("d%d", i), s.freq)
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
	drv := ticks[0]
	drv.fireEvery = fireEvery
	for _, tk := range ticks[1:] {
		if tk.flag != nil {
			drv.out = append(drv.out, tk.flag)
		}
	}
	var polls int64
	if _, err := e.RunUntil(func() bool { polls++; return drv.active >= target }, 50_000_000); err != nil {
		t.Fatalf("%v run did not finish: %v", sched, err)
	}
	res := diffResult{nowPs: e.NowPs(), steps: polls}
	for i, d := range e.Domains() {
		res.cycles = append(res.cycles, d.Cycles())
		res.edges = append(res.edges, ticks[i].edges)
		res.active = append(res.active, ticks[i].active)
		res.sums = append(res.sums, ticks[i].sum)
	}
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

// intRatioFreqs yields n (one or two) frequencies with an integer ratio:
// one random domain runs at the base rate, the fastest, which every other
// member divides evenly.
func intRatioFreqs(r *rand.Rand, n int) []int64 {
	base := int64(1+r.Intn(999)) * 48_000
	divs := []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 48}
	out := make([]int64, n)
	for i := range out {
		out[i] = base / divs[r.Intn(len(divs))]
	}
	out[r.Intn(n)] = base
	return out
}

// TestDifferentialIdleConfigs is the headline equivalence test: for seeded
// random configurations of two domains at an integer ratio and random idle
// patterns, the event-driven engine (which bulk-skips) and the
// lockstep engine (which delivers every edge) must agree on every
// observable: per-domain cycle counts, per-component edge and active-edge
// counts, the active-edge hash, and simulated time.
func TestDifferentialIdleConfigs(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			const nd = 2
			freqs := intRatioFreqs(r, nd)
			specs := make([]domSpec, nd)
			for i := range specs {
				phases, hasWait := randPhases(r, i == 0, true)
				specs[i] = domSpec{
					freq:       freqs[i],
					phases:     phases,
					hasWait:    hasWait,
					extraIdler: r.Intn(4) == 0,
				}
			}
			fireEvery := int64(1 + r.Intn(3))
			lock := runSpec(t, Lockstep, specs, fireEvery, 200)
			evnt := runSpec(t, EventDriven, specs, fireEvery, 200)
			if lock.nowPs != evnt.nowPs {
				t.Errorf("NowPs: lockstep %v, event %v", lock.nowPs, evnt.nowPs)
			}
			for i := 0; i < nd; i++ {
				if lock.cycles[i] != evnt.cycles[i] {
					t.Errorf("domain %d cycles: lockstep %d, event %d", i, lock.cycles[i], evnt.cycles[i])
				}
				if lock.edges[i] != evnt.edges[i] {
					t.Errorf("domain %d edges: lockstep %d, event %d", i, lock.edges[i], evnt.edges[i])
				}
				if lock.active[i] != evnt.active[i] {
					t.Errorf("domain %d active: lockstep %d, event %d", i, lock.active[i], evnt.active[i])
				}
				if lock.sums[i] != evnt.sums[i] {
					t.Errorf("domain %d hash: lockstep %#x, event %#x", i, lock.sums[i], evnt.sums[i])
				}
			}
		})
	}
}

// traceSchedule drives an engine Step by Step and records the full edge
// schedule: for every super-edge, the due domains (by creation order) and
// their post-edge cycle counts.
func traceSchedule(sched Scheduler, freqs []int64, steps int) ([]int64, float64, int64) {
	e := NewEngine()
	e.SetScheduler(sched)
	for i, f := range freqs {
		d := e.NewDomain(fmt.Sprintf("d%d", i), f)
		d.Attach(&counter{})
	}
	var trace []int64
	for s := 0; s < steps; s++ {
		for _, d := range e.Step() {
			trace = append(trace, int64(slices.Index(e.Domains(), d))<<32|d.Cycles())
		}
		trace = append(trace, -1)
	}
	// A second engine over the same frequencies checks the run-loop edge
	// accounting: with nothing skippable both schedulers count identically.
	e2 := NewEngine()
	e2.SetScheduler(sched)
	for i, f := range freqs {
		d := e2.NewDomain(fmt.Sprintf("d%d", i), f)
		d.Attach(&counter{})
	}
	n, _ := e2.RunUntil(nil, int64(steps))
	return trace, e.NowPs(), n
}

// TestDifferentialSchedules pins exact super-edge equivalence when nothing
// is skippable: for seeded random integer-ratio pairs, the event schedule,
// in ticks of the faster domain, must deliver the same due sets in the same
// order with the same cycle counts as the lockstep linear scan, and the run
// loops must count the same number of super-edges.
func TestDifferentialSchedules(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed + 1000))
			freqs := intRatioFreqs(r, 2)
			lockT, lockNow, lockN := traceSchedule(Lockstep, freqs, 600)
			evntT, evntNow, evntN := traceSchedule(EventDriven, freqs, 600)
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
					t.Fatalf("trace diverges at %d: lockstep %#x, event %#x", i, lockT[i], evntT[i])
				}
			}
		})
	}
}

// TestDifferentialBoundedSkipExact is a directed (non-random) case easy to
// reason about by hand: two domains at a 1:4 ratio, a driver working one
// edge in 32, and a component that alternates long countdowns with waiting
// for the driver's input. It additionally pins that the event engine really skips (the
// step count is smaller), so the equivalence above is not vacuous.
func TestDifferentialBoundedSkipExact(t *testing.T) {
	specs := []domSpec{
		{freq: 48_000_000, phases: []sphase{{kind: phActive, n: 1}, {kind: phCount, n: 31}}},
		{freq: 12_000_000, phases: []sphase{{kind: phCount, n: 63}, {kind: phActive, n: 2}, {kind: phWait}, {kind: phActive, n: 1}}, hasWait: true},
	}
	lock := runSpec(t, Lockstep, specs, 2, 400)
	evnt := runSpec(t, EventDriven, specs, 2, 400)
	for i := range specs {
		if lock.cycles[i] != evnt.cycles[i] || lock.sums[i] != evnt.sums[i] || lock.edges[i] != evnt.edges[i] {
			t.Errorf("domain %d diverged: cycles %d/%d edges %d/%d hash %#x/%#x",
				i, lock.cycles[i], evnt.cycles[i], lock.edges[i], evnt.edges[i], lock.sums[i], evnt.sums[i])
		}
	}
	if lock.nowPs != evnt.nowPs {
		t.Errorf("NowPs: lockstep %v, event %v", lock.nowPs, evnt.nowPs)
	}
	// The idle windows above dominate the schedule; the event engine must
	// have covered the same simulated span in far fewer steps, proving the
	// equivalence asserted here is about real skipping, not a no-op.
	if evnt.steps*2 >= lock.steps {
		t.Errorf("event engine took %d steps vs lockstep %d; expected <50%%", evnt.steps, lock.steps)
	}
}
