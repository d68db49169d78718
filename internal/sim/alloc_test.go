package sim

import (
	"testing"
)

// TestStepZeroAllocSteadyState pins the allocation-free contract of the
// kernel: Step must not allocate.
func TestStepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 24_000_000)
	d.Attach(&counter{})
	d.Attach(&counter{})
	e.Step()

	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("Step allocates %v times per edge in steady state, want 0", avg)
	}
}

// TestIdleSkipMatchesUnskipped verifies that the event-driven scheduler's
// idle bulk-skip keeps the cycle counts an edge-by-edge run produces: the
// idle windows are jumped, never lost. A ticker alternating active edges
// with countdowns next to one idle until input must show, after any number
// of event-driven steps, the work lockstep shows after as many cycles.
func TestIdleSkipMatchesUnskipped(t *testing.T) {
	run := func(sched Scheduler, steps, cycles int64) (*Domain, *phaseBulk) {
		e := NewEngine()
		e.SetScheduler(sched)
		d := e.NewDomain("clk", 4000)
		p := &phaseBulk{active: 1, idle: 5, rem: 1}
		d.Attach(p)
		d.Attach(alwaysIdle{})
		for i := int64(0); i < steps; i++ {
			e.step()
		}
		e.RunCycles(d, cycles)
		return d, p
	}
	ev, p := run(EventDriven, 7, 0)
	// Each step after the first consumes an idle window and delivers the
	// edge after it.
	if ev.Cycles() <= 7 {
		t.Fatalf("7 event-driven steps covered %d cycles: nothing was skipped", ev.Cycles())
	}
	ls, q := run(Lockstep, 0, ev.Cycles())
	if p.work != q.work || p.rem != q.rem || p.inIdle != q.inIdle {
		t.Fatalf("after %d cycles: event %+v, lockstep %+v", ls.Cycles(), *p, *q)
	}
}

// TestForeverIdlePairDeliversEveryEdge pins runSolo's fallback: when both
// tickers of the domain are idle until input, the event-driven engine
// delivers each (no-op) edge, skipping nothing, exactly as lockstep does,
// so a run budget counts the same edges under both schedulers.
func TestForeverIdlePairDeliversEveryEdge(t *testing.T) {
	for _, s := range schedulers() {
		e := NewEngine()
		e.SetScheduler(s.sched)
		d := e.NewDomain("clk", 4000)
		d.Attach(alwaysIdle{})
		d.Attach(alwaysIdle{})
		if n, err := e.RunUntil(nil, 40); n != 40 || err != ErrBudget {
			t.Fatalf("%s: RunUntil = %d, %v; want 40 and ErrBudget", s.name, n, err)
		}
		if st := e.Stats(); d.Cycles() != 40 || st.EdgesSkipped != 0 {
			t.Fatalf("%s: %d cycles, %d skipped; want 40, none skipped", s.name, d.Cycles(), st.EdgesSkipped)
		}
	}
}

// TestStatsAccountAllEdges pins the telemetry invariant behind
// Engine.Stats: delivered plus skipped edges must equal the domain's cycle
// counter under both schedulers. The event-driven scheduler skips the
// countdowns; lockstep, the no-skip reference, skips nothing. HeapOps
// stays 0 under both: no scheduler keeps a heap.
func TestStatsAccountAllEdges(t *testing.T) {
	for _, sched := range []Scheduler{EventDriven, Lockstep} {
		e := NewEngine()
		e.SetScheduler(sched)
		d := e.NewDomain("clk", 4000)
		d.Attach(alwaysIdle{})
		d.Attach(&phaseBulk{active: 1, idle: 4, rem: 1})
		for i := 0; i < 100; i++ {
			e.step()
		}
		st := e.Stats()
		if st.EdgesDelivered+st.EdgesSkipped != d.Cycles() {
			t.Fatalf("%v: delivered %d + skipped %d != cycles %d",
				sched, st.EdgesDelivered, st.EdgesSkipped, d.Cycles())
		}
		switch {
		case st.HeapOps != 0:
			t.Fatalf("%v: %d heap ops, want 0", sched, st.HeapOps)
		case sched == EventDriven && st.EdgesSkipped == 0:
			t.Fatal("event-driven: no countdown edge was skipped")
		case sched == Lockstep && st.EdgesSkipped != 0:
			t.Fatalf("lockstep: %d edges skipped, want 0", st.EdgesSkipped)
		}
	}
}

// alwaysIdle is a Ticker whose edges are permanent no-ops: a BulkIdler
// idle until input.
type alwaysIdle struct{}

func (alwaysIdle) Eval()            {}
func (alwaysIdle) Update()          {}
func (alwaysIdle) IdleEdges() int64 { return IdleForever }
func (alwaysIdle) SkipEdges(int64)  {}

// TestEventStepZeroAllocAllLayouts pins the allocation-free contract of the
// event-driven scheduler across its paths: a delivered edge and a
// bulk-skip. After warm-up, neither Step nor the skip machinery may
// allocate.
func TestEventStepZeroAllocAllLayouts(t *testing.T) {
	e := NewEngine()
	e.SetScheduler(EventDriven)
	d := e.NewDomain("clk", 48_000_000)
	// Alternating active/countdown windows keep the skips on the measured
	// path.
	d.Attach(&phaseBulk{active: 2, idle: 16, rem: 2})
	for i := 0; i < 64; i++ {
		e.step()
	}
	if avg := testing.AllocsPerRun(2000, func() { e.step() }); avg != 0 {
		t.Fatalf("event step allocates %v times per edge, want 0", avg)
	}
	if e.Stats().EdgesSkipped == 0 {
		t.Fatal("no edge was skipped")
	}
}

// TestRunUntilFlagZeroAlloc pins the same contract for the flag-polled run
// loop the execute path uses, under both schedulers, with a countdown
// component so the event-driven skips stay on the measured path.
func TestRunUntilFlagZeroAlloc(t *testing.T) {
	for _, s := range schedulers() {
		e := NewEngine()
		e.SetScheduler(s.sched)
		d := e.NewDomain("clk", 1_000_000)
		d.Attach(&phaseBulk{active: 2, idle: 16, rem: 2})
		stop := false
		e.Step()
		if avg := testing.AllocsPerRun(100, func() {
			if _, err := e.RunUntilFlag(&stop, 64); err != nil && err != ErrBudget {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%s: RunUntilFlag allocates %v times per call, want 0", s.name, avg)
		}
		if s.sched == EventDriven && e.Stats().EdgesSkipped == 0 {
			t.Fatalf("%s: no edge was skipped", s.name)
		}
	}
}
