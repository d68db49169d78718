package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// pubTicker is scriptTicker behind the Publisher contract: it publishes its
// IdleEdges answer from every Update, and when it raises other tickers'
// wake flags it invalidates their horizons — the explicit notice a
// publisher's inputs owe it. When stop is set, it also raises *stop once
// active reaches stopAt (the flag RunUntilFlag polls); when fail is set, it
// calls Fail on its engine once, as active reaches failAt.
type pubTicker struct {
	*scriptTicker
	hz     Horizon
	wakes  []*Horizon
	stop   *bool
	stopAt int64
	fail   *Engine
	failAt int64
}

func (t *pubTicker) Horizon() *Horizon { return &t.hz }

func (t *pubTicker) Update() {
	fired := t.firePend
	t.scriptTicker.Update()
	if fired {
		for _, h := range t.wakes {
			h.Invalidate()
		}
	}
	if t.stop != nil && t.active >= t.stopAt {
		*t.stop = true
	}
	if t.fail != nil && t.active >= t.failAt {
		t.fail.Fail(errScripted)
		t.fail = nil
	}
	t.hz.Publish(t.IdleEdges())
}

var errScripted = errors.New("scripted failure")

// carrier is a composite ticker that delivers a watched Publisher's edges
// itself, the way platform's shell ticker drives its IMU, and counts the
// edges it delivered. Its own share of the domain's idleness is open-ended,
// so the domain's answer is the watched horizon's.
type carrier struct {
	sub       Ticker
	delivered int64
}

func (c *carrier) Eval()            { c.delivered++; c.sub.Eval() }
func (c *carrier) Update()          { c.sub.Update() }
func (c *carrier) IdleEdges() int64 { return IdleForever }
func (c *carrier) SkipEdges(int64)  {}

// pubRig is an engine assembled from specs with every script ticker a
// publisher; a watched spec's publisher is delivered by a carrier and
// watched by its domain instead of attached. Domain 0's ticker is the
// driver: it raises the wake flags of every waiting ticker and invalidates
// their horizons.
type pubRig struct {
	e        *Engine
	ticks    []*pubTicker
	carriers []*carrier // nil where the publisher is attached
}

func newPubRig(sched Scheduler, specs []domSpec, fireEvery int64) *pubRig {
	r := &pubRig{e: NewEngine(), ticks: make([]*pubTicker, len(specs)), carriers: make([]*carrier, len(specs))}
	r.e.SetScheduler(sched)
	for i, s := range specs {
		d := r.e.NewDomain(fmt.Sprintf("d%d", i), s.freq)
		tk := &pubTicker{scriptTicker: newScriptTicker(s.phases)}
		if s.hasWait {
			tk.flag = new(bool)
		}
		r.ticks[i] = tk
		if s.watched {
			r.carriers[i] = &carrier{sub: tk}
			d.Attach(r.carriers[i])
			d.Watch(tk)
		} else {
			d.Attach(tk)
		}
		if s.extraIdler {
			d.Attach(alwaysIdle{})
		}
	}
	drv := r.ticks[0]
	drv.fireEvery = fireEvery
	for _, tk := range r.ticks[1:] {
		if tk.flag != nil {
			drv.out = append(drv.out, tk.flag)
			drv.wakes = append(drv.wakes, &tk.hz)
		}
	}
	return r
}

// result is everything observable about the rig so far.
func (r *pubRig) result() diffResult {
	res := diffResult{nowPs: r.e.NowPs()}
	for i, d := range r.e.Domains() {
		res.cycles = append(res.cycles, d.Cycles())
		res.edges = append(res.edges, r.ticks[i].edges)
		res.active = append(res.active, r.ticks[i].active)
		res.sums = append(res.sums, r.ticks[i].sum)
	}
	return res
}

// runPub drives a fresh pubRig by the named run method until the driver
// has performed target active edges (RunCycles instead delivers a fixed
// number of driver-domain edges). The edges skipped in watched domains
// come back as the third result.
func runPub(t *testing.T, sched Scheduler, specs []domSpec, fireEvery, target int64, method string) (diffResult, Stats, int64) {
	t.Helper()
	r := newPubRig(sched, specs, fireEvery)
	e, drv := r.e, r.ticks[0]
	const budget = 50_000_000
	done := func() bool { return drv.active >= target }
	var err error
	switch method {
	case "RunUntil":
		_, err = e.RunUntil(done, budget)
	case "RunUntilFlag":
		var stop bool
		drv.stop, drv.stopAt = &stop, target
		_, err = e.RunUntilFlag(&stop, budget)
	case "Step":
		for n := 0; !done(); n++ {
			if n == budget {
				t.Fatalf("%v Step loop did not finish", sched)
			}
			e.Step()
		}
	case "RunCycles":
		e.RunCycles(e.Domains()[0], 40*target)
	}
	if err != nil {
		t.Fatalf("%v %s did not finish: %v", sched, method, err)
	}
	var watchSkipped int64
	for i, d := range e.Domains() {
		if c := r.carriers[i]; c != nil {
			watchSkipped += d.Cycles() - c.delivered
		}
	}
	return r.result(), e.Stats(), watchSkipped
}

// TestPublishedHorizonsMatchLockstep checks the Publisher contract end to
// end: for seeded random configurations of 1–5 domains whose tickers all
// publish their horizons (and invalidate each other's on wake-ups), the
// event-driven engine — which reads the published horizons instead of
// asking — must agree with the lockstep reference on every observable,
// through each run method: Step, RunUntil, RunUntilFlag and RunCycles
// (which suspends skipping). Each configuration runs twice: with every
// publisher attached, and again with the publishers of about half the
// domains watched behind a carrier (Domain.Watch) instead (the watched/
// subtests).
func TestPublishedHorizonsMatchLockstep(t *testing.T) {
	var skipped, watchSkipped int64
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		nd := 1 + r.Intn(5)
		var freqs []int64
		if seed%4 == 3 && nd > 1 {
			freqs = coprimeFreqs(r, nd)
		} else {
			freqs = intRatioFreqs(r, nd)
		}
		specs := make([]domSpec, nd)
		for i := range specs {
			phases, hasWait := randPhases(r, i == 0, true)
			specs[i] = domSpec{freq: freqs[i], phases: phases, hasWait: hasWait, extraIdler: r.Intn(4) == 0}
		}
		fireEvery := int64(1 + r.Intn(3))
		watchedSpecs := append([]domSpec(nil), specs...)
		for i := range watchedSpecs {
			watchedSpecs[i].watched = (seed+int64(i))%2 == 1
		}
		for _, wiring := range []struct {
			prefix string
			specs  []domSpec
		}{{"", specs}, {"watched/", watchedSpecs}} {
			specs := wiring.specs
			for _, method := range []string{"Step", "RunUntil", "RunUntilFlag", "RunCycles"} {
				t.Run(fmt.Sprintf("%sseed=%d/%s", wiring.prefix, seed, method), func(t *testing.T) {
					lock, _, _ := runPub(t, Lockstep, specs, fireEvery, 150, method)
					evnt, st, ws := runPub(t, EventDriven, specs, fireEvery, 150, method)
					skipped += st.EdgesSkipped
					watchSkipped += ws
					if method == "RunCycles" && st.EdgesSkipped != 0 {
						t.Errorf("RunCycles skipped %d edges", st.EdgesSkipped)
					}
					if lock.nowPs != evnt.nowPs {
						t.Errorf("NowPs: lockstep %v, event %v", lock.nowPs, evnt.nowPs)
					}
					for i := 0; i < nd; i++ {
						if lock.cycles[i] != evnt.cycles[i] || lock.edges[i] != evnt.edges[i] ||
							lock.active[i] != evnt.active[i] || lock.sums[i] != evnt.sums[i] {
							t.Errorf("domain %d: lockstep cycles/edges/active/hash %d/%d/%d/%#x, event %d/%d/%d/%#x",
								i, lock.cycles[i], lock.edges[i], lock.active[i], lock.sums[i],
								evnt.cycles[i], evnt.edges[i], evnt.active[i], evnt.sums[i])
						}
					}
				})
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the event-driven engine never skipped on a published horizon")
	}
	if watchSkipped == 0 {
		t.Fatal("the event-driven engine never skipped a domain on a watched horizon")
	}
}

// scriptedPub is a Publisher whose IdleEdges answer is set by the test. It
// counts the queries and the edges delivered to it, and sums the edges it
// was handed in bulk.
type scriptedPub struct {
	hz        Horizon
	idle      int64
	queries   int
	delivered int64
	skipped   int64
}

func (p *scriptedPub) Horizon() *Horizon { return &p.hz }
func (p *scriptedPub) IdleEdges() int64  { p.queries++; return p.idle }
func (p *scriptedPub) SkipEdges(k int64) { p.skipped += k }
func (p *scriptedPub) Eval()             { p.delivered++ }
func (p *scriptedPub) Update()           {}

// TestWatchedHorizon pins Domain.Watch: a watched publisher's horizon is
// read, re-queried and skipped exactly like an attached one's, and it
// counts toward the domain's skippability without being a ticker — so a
// non-idling ticker next to it still keeps the domain from being skipped.
func TestWatchedHorizon(t *testing.T) {
	e := NewEngine()
	e.SetScheduler(EventDriven)
	d := e.NewDomain("shell", 1000)
	p := &scriptedPub{idle: 5}
	d.Attach(&carrier{sub: p})
	d.Watch(p)
	if !d.skippable {
		t.Fatal("a carrier with its watched publisher is not skippable")
	}

	// A stale horizon is re-queried once and kept until invalidated.
	if k := d.IdleEdges(); k != 5 || p.queries != 1 {
		t.Fatalf("first read: IdleEdges %d after %d queries, want 5 after 1", k, p.queries)
	}
	p.idle = 2
	if k := d.IdleEdges(); k != 5 || p.queries != 1 {
		t.Fatalf("fresh read: IdleEdges %d after %d queries, want the kept 5 after 1", k, p.queries)
	}
	p.hz.Invalidate()
	if k := d.IdleEdges(); k != 2 || p.queries != 2 {
		t.Fatalf("after Invalidate: IdleEdges %d after %d queries, want 2 after 2", k, p.queries)
	}

	// A skip hands the watched publisher the consumed edges; the carrier
	// then delivers the edge at the wake horizon.
	var stop bool
	if n, err := e.RunUntilFlag(&stop, 1); n != 3 || err != ErrBudget {
		t.Fatalf("RunUntilFlag = %d, %v; want 3 super-edges and ErrBudget", n, err)
	}
	if p.skipped != 2 || p.delivered != 1 || d.Cycles() != 3 {
		t.Fatalf("skipped %d, delivered %d, cycles %d; want 2, 1, 3", p.skipped, p.delivered, d.Cycles())
	}
	if st := e.Stats(); st.EdgesSkipped != 2 || st.EdgesDelivered != 1 {
		t.Fatalf("Stats = %+v, want 2 skipped and 1 delivered", st)
	}

	// A watched publisher next to a ticker that never idles: the domain is
	// not skippable, the publisher is never asked, and nothing is skipped.
	e = NewEngine()
	e.SetScheduler(EventDriven)
	d = e.NewDomain("busy", 1000)
	q := &scriptedPub{idle: IdleForever}
	d.Attach(&counter{})
	d.Watch(q)
	if d.skippable {
		t.Fatal("a domain with a non-idler ticker is skippable")
	}
	if n, err := e.RunUntilFlag(&stop, 100); n != 100 || err != ErrBudget {
		t.Fatalf("RunUntilFlag = %d, %v; want 100 and ErrBudget", n, err)
	}
	if st := e.Stats(); st.EdgesSkipped != 0 || q.queries != 0 || q.skipped != 0 {
		t.Fatalf("skipped %d edges, asked the watched publisher %d times, handed it %d edges; want none",
			st.EdgesSkipped, q.queries, q.skipped)
	}
}
