package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// pubTicker is scriptTicker behind the Publisher contract: it publishes its
// IdleEdges answer from every Update, and when it raises other tickers'
// wake flags it invalidates their horizons — the explicit notice a
// publisher's inputs owe it. When stop is set, it also raises *stop once
// active reaches stopAt (the flag RunUntilFlag polls).
type pubTicker struct {
	*scriptTicker
	hz     Horizon
	wakes  []*Horizon
	stop   *bool
	stopAt int64
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
	t.hz.Publish(t.IdleEdges())
}

// runPub is runSpec with every script ticker a publisher, driven by the
// named run method until the driver has performed target active edges
// (RunCycles instead delivers a fixed number of driver-domain edges).
func runPub(t *testing.T, sched Scheduler, specs []domSpec, fireEvery, target int64, method string) (diffResult, Stats) {
	t.Helper()
	e := NewEngine()
	e.SetScheduler(sched)
	ticks := make([]*pubTicker, len(specs))
	for i, s := range specs {
		d := e.NewDomain(fmt.Sprintf("d%d", i), s.freq)
		tk := &pubTicker{scriptTicker: newScriptTicker(s.phases)}
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
			drv.wakes = append(drv.wakes, &tk.hz)
		}
	}
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
	res := diffResult{nowPs: e.NowPs()}
	for i, d := range e.Domains() {
		res.cycles = append(res.cycles, d.Cycles())
		res.edges = append(res.edges, ticks[i].edges)
		res.active = append(res.active, ticks[i].active)
		res.sums = append(res.sums, ticks[i].sum)
	}
	return res, e.Stats()
}

// TestPublishedHorizonsMatchLockstep checks the Publisher contract end to
// end: for seeded random configurations of 1–5 domains whose tickers all
// publish their horizons (and invalidate each other's on wake-ups), the
// event-driven engine — which reads the published horizons instead of
// asking — must agree with the lockstep reference on every observable,
// through each run method: Step, RunUntil, RunUntilFlag and RunCycles
// (which suspends skipping).
func TestPublishedHorizonsMatchLockstep(t *testing.T) {
	var skipped int64
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
		for _, method := range []string{"Step", "RunUntil", "RunUntilFlag", "RunCycles"} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, method), func(t *testing.T) {
				lock, _ := runPub(t, Lockstep, specs, fireEvery, 150, method)
				evnt, st := runPub(t, EventDriven, specs, fireEvery, 150, method)
				skipped += st.EdgesSkipped
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
	if skipped == 0 {
		t.Fatal("the event-driven engine never skipped on a published horizon")
	}
}
