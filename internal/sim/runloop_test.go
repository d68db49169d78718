package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refRun is the reference run loop: one e.step() per iteration, with *stop
// and done() polled before every edge exactly as RunUntil and RunUntilFlag
// document it. The run loops choose their loop once per call and must be
// indistinguishable from it.
func refRun(e *Engine, stop *bool, done func() bool, maxEdges int64) (int64, error) {
	e.stopErr = nil
	n := int64(0)
	for n < maxEdges {
		if *stop || done != nil && done() {
			return n, nil
		}
		n += e.step()
		if e.stopErr != nil {
			return n, e.stopErr
		}
	}
	if *stop || done != nil && done() {
		return n, nil
	}
	return n, ErrBudget
}

// TestRunLoopsMatchStepLoop drives twin event-driven rigs — one or two
// tickers on the engine's one domain, publishers attached and watched —
// through the same sequence of run calls: RunUntil and RunUntilFlag on
// one, refRun on the other. Every call must return the
// same (n, err) and leave the same domain cycles, Stats and component
// state. The sequence covers a stop flag already up, budgets a skip window
// overshoots, a done() condition reached mid-run, a flag raised mid-run and
// a Fail mid-run.
func TestRunLoopsMatchStepLoop(t *testing.T) {
	var overshoots int
	// 36 configurations of the engine's one domain, the domain count their
	// subtests name: seed%3 picks one ticker or two, and seed%3 == 2 is
	// unused.
	for seed := int64(0); seed < 54; seed++ {
		if seed%3 == 2 {
			continue
		}
		r := rand.New(rand.NewSource(500 + seed))
		freq := randFreq(r)
		specs := randSpecs(r, int(1+seed%3))
		for i := range specs {
			specs[i].watched = r.Intn(2) == 0
		}
		fireEvery := int64(1 + r.Intn(3))
		t.Run(fmt.Sprintf("seed=%d/domains=1", seed), func(t *testing.T) {
			got := newPubRig(EventDriven, freq, specs, fireEvery)
			ref := newPubRig(EventDriven, freq, specs, fireEvery)
			type call struct {
				name   string
				budget int64 // the edge budget a budget call may overshoot
				run    func(w *pubRig, ref bool) (int64, error)
			}
			drvActive := func(w *pubRig) int64 { return w.ticks[0].active }
			var calls []call
			up := true
			calls = append(calls,
				call{"RunUntilFlag/stop-up", 0, func(w *pubRig, isRef bool) (int64, error) {
					if isRef {
						return refRun(w.e, &up, nil, 100)
					}
					return w.e.RunUntilFlag(&up, 100)
				}},
				call{"RunUntil/done-true", 0, func(w *pubRig, isRef bool) (int64, error) {
					done := func() bool { return true }
					var never bool
					if isRef {
						return refRun(w.e, &never, done, 100)
					}
					return w.e.RunUntil(done, 100)
				}})
			for _, budget := range []int64{1, 2, 5, 13, 40, 97} {
				calls = append(calls, call{fmt.Sprintf("RunUntilFlag/budget=%d", budget), budget, func(w *pubRig, isRef bool) (int64, error) {
					var never bool
					if isRef {
						return refRun(w.e, &never, nil, budget)
					}
					return w.e.RunUntilFlag(&never, budget)
				}})
			}
			calls = append(calls,
				call{"RunUntil/done", 0, func(w *pubRig, isRef bool) (int64, error) {
					target := drvActive(w) + 30
					done := func() bool { return drvActive(w) >= target }
					var never bool
					if isRef {
						return refRun(w.e, &never, done, 1_000_000)
					}
					return w.e.RunUntil(done, 1_000_000)
				}},
				call{"RunUntilFlag/raised", 0, func(w *pubRig, isRef bool) (int64, error) {
					var stop bool
					drv := w.ticks[0]
					drv.stop, drv.stopAt = &stop, drv.active+25
					defer func() { drv.stop = nil }()
					if isRef {
						return refRun(w.e, &stop, nil, 1_000_000)
					}
					return w.e.RunUntilFlag(&stop, 1_000_000)
				}},
				call{"RunUntilFlag/fail", 0, func(w *pubRig, isRef bool) (int64, error) {
					var never bool
					drv := w.ticks[0]
					drv.fail, drv.failAt = w.e, drv.active+20
					if isRef {
						return refRun(w.e, &never, nil, 1_000_000)
					}
					return w.e.RunUntilFlag(&never, 1_000_000)
				}},
				call{"RunUntil/fail", 0, func(w *pubRig, isRef bool) (int64, error) {
					target := drvActive(w) + 40
					done := func() bool { return drvActive(w) >= target }
					var never bool
					drv := w.ticks[0]
					drv.fail, drv.failAt = w.e, drv.active+15
					if isRef {
						return refRun(w.e, &never, done, 1_000_000)
					}
					return w.e.RunUntil(done, 1_000_000)
				}},
				call{"RunUntil/nil-done", 0, func(w *pubRig, isRef bool) (int64, error) {
					var never bool
					if isRef {
						return refRun(w.e, &never, nil, 61)
					}
					return w.e.RunUntil(nil, 61)
				}})
			for _, c := range calls {
				gn, gerr := c.run(got, false)
				rn, rerr := c.run(ref, true)
				if gn != rn || gerr != rerr {
					t.Fatalf("%s: run loop returned (%d, %v), step loop (%d, %v)", c.name, gn, gerr, rn, rerr)
				}
				if c.budget > 0 && gn > c.budget {
					overshoots++
				}
				if g, w := got.e.Stats(), ref.e.Stats(); g != w {
					t.Fatalf("%s: Stats %+v, step loop %+v", c.name, g, w)
				}
				if g, w := got.result(), ref.result(); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: state %+v, step loop %+v", c.name, g, w)
				}
			}
		})
	}
	if overshoots == 0 {
		t.Fatal("no budget was ever overshot by a skip window")
	}
}
