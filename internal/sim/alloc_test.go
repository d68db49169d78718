package sim

import (
	"fmt"
	"testing"
)

// TestStepZeroAllocSteadyState pins the allocation-free contract of the
// kernel: after the first super-edge (which sizes the scratch due buffer and
// builds the scheduling plan), Step must not allocate.
func TestStepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fast := e.NewDomain("fast", 24_000_000)
	slow := e.NewDomain("slow", 6_000_000)
	fast.Attach(&counter{})
	slow.Attach(&counter{})
	e.Step() // warm up: scratch buffer + plan

	if avg := testing.AllocsPerRun(1000, func() { e.Step() }); avg != 0 {
		t.Fatalf("Step allocates %v times per super-edge in steady state, want 0", avg)
	}
}

// TestIdleSkipMatchesUnskipped verifies that the event-driven scheduler's
// idle bulk-skip keeps the cycle counts an edge-by-edge run produces: the
// idle windows are jumped, never lost. It selects EventDriven itself, since
// the lockstep reference does not skip.
func TestIdleSkipMatchesUnskipped(t *testing.T) {
	type idleCounter struct{ counter }
	// A ticker that is always idle would never be delivered an edge by a
	// skipping engine; pair an idle fast domain with an active slow one
	// and check the fast domain's cycle accounting stays exact.
	e := NewEngine()
	e.SetScheduler(EventDriven)
	fast := e.NewDomain("fast", 4000)
	slow := e.NewDomain("slow", 1000)
	fast.Attach(alwaysIdle{})
	cs := &idleCounter{}
	slow.Attach(cs)
	for i := 0; i < 7; i++ {
		e.step()
	}
	// 7 super-edges with skipping: each slow edge consumes its window of
	// four fast edges, so cycles advance as if unskipped.
	if cs.n.Get() != 7 {
		t.Fatalf("slow counter = %d, want 7", cs.n.Get())
	}
	if fast.Cycles() != 28 || slow.Cycles() != 7 {
		t.Fatalf("cycles fast=%d slow=%d, want 28/7", fast.Cycles(), slow.Cycles())
	}
}

// TestForeverIdlePairDeliversEveryEdge pins the skip pass's fallback: when
// both domains are idle until input, the event-driven engine delivers the
// earliest (no-op) super-edge, skipping nothing, exactly as lockstep does,
// so a run budget counts the same edges under both schedulers.
func TestForeverIdlePairDeliversEveryEdge(t *testing.T) {
	for _, s := range schedulers() {
		e := NewEngine()
		e.SetScheduler(s.sched)
		fast := e.NewDomain("fast", 4000)
		slow := e.NewDomain("slow", 1000)
		fast.Attach(alwaysIdle{})
		slow.Attach(alwaysIdle{})
		if n, err := e.RunUntil(nil, 40); n != 40 || err != ErrBudget {
			t.Fatalf("%s: RunUntil = %d, %v; want 40 and ErrBudget", s.name, n, err)
		}
		if st := e.Stats(); fast.Cycles() != 40 || slow.Cycles() != 10 || st.EdgesSkipped != 0 {
			t.Fatalf("%s: cycles %d/%d, %d skipped; want 40/10, none skipped", s.name, fast.Cycles(), slow.Cycles(), st.EdgesSkipped)
		}
	}
}

// TestStatsAccountAllEdges pins the telemetry invariant behind
// Engine.Stats: delivered plus skipped edges must equal the sum of the
// per-domain cycle counters under both schedulers. The event-driven
// scheduler skips the idle domain; lockstep, the no-skip reference, skips
// nothing. HeapOps stays 0 under both: no scheduler keeps a heap.
func TestStatsAccountAllEdges(t *testing.T) {
	for _, sched := range []Scheduler{EventDriven, Lockstep} {
		e := NewEngine()
		e.SetScheduler(sched)
		fast := e.NewDomain("fast", 4000)
		slow := e.NewDomain("slow", 1000)
		fast.Attach(alwaysIdle{})
		c := &counter{}
		slow.Attach(c)
		for i := 0; i < 100; i++ {
			e.step()
		}
		st := e.Stats()
		total := fast.Cycles() + slow.Cycles()
		if st.EdgesDelivered+st.EdgesSkipped != total {
			t.Fatalf("%v: delivered %d + skipped %d != total cycles %d",
				sched, st.EdgesDelivered, st.EdgesSkipped, total)
		}
		switch {
		case st.HeapOps != 0:
			t.Fatalf("%v: %d heap ops, want 0", sched, st.HeapOps)
		case sched == EventDriven && st.EdgesSkipped == 0:
			t.Fatal("event-driven: idle fast domain skipped no edges")
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
// event-driven scheduler across every dispatch path: the solo and pair
// paths and the pair's bulk-skip pass. After warm-up, neither Step nor the
// skip machinery may allocate.
func TestEventStepZeroAllocAllLayouts(t *testing.T) {
	build := func(domains int) *Engine {
		e := NewEngine()
		e.SetScheduler(EventDriven)
		for i := 0; i < domains; i++ {
			d := e.NewDomain(fmt.Sprintf("d%d", i), int64(48_000_000)>>i)
			if i%2 == 0 {
				// Alternating active/countdown windows keep the skip
				// passes on the measured path.
				d.Attach(&phaseBulk{active: 2, idle: 16, rem: 2})
			} else {
				d.Attach(&counter{})
			}
		}
		for i := 0; i < 64; i++ {
			e.step() // warm up: plan, due scratch, skip pass
		}
		return e
	}
	for _, domains := range []int{1, 2} {
		e := build(domains)
		if avg := testing.AllocsPerRun(2000, func() { e.step() }); avg != 0 {
			t.Fatalf("event step with %d domains allocates %v times per super-edge, want 0", domains, avg)
		}
	}
}

// TestRunUntilFlagZeroAlloc pins the same contract for the flag-polled run
// loop the execute path uses, under both schedulers and in each layout the
// run loop chooses between, solo and pair, each with a countdown component
// so the event-driven skips stay on the measured path.
func TestRunUntilFlagZeroAlloc(t *testing.T) {
	for _, s := range schedulers() {
		for _, domains := range []int{1, 2} {
			e := NewEngine()
			e.SetScheduler(s.sched)
			for i := 0; i < domains; i++ {
				d := e.NewDomain(fmt.Sprintf("d%d", i), int64(1_000_000)>>i)
				d.Attach(&phaseBulk{active: 2, idle: 16, rem: 2})
			}
			stop := false
			e.Step()
			if avg := testing.AllocsPerRun(100, func() {
				if _, err := e.RunUntilFlag(&stop, 64); err != nil && err != ErrBudget {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("%s: RunUntilFlag with %d domains allocates %v times per call, want 0", s.name, domains, avg)
			}
			if s.sched == EventDriven && e.Stats().EdgesSkipped == 0 {
				t.Fatalf("%s: %d domains: no edge was skipped", s.name, domains)
			}
		}
	}
}
