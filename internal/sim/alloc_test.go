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

// TestDoneCheckIntervalBatching verifies the batched polling semantics:
// with an interval of k, done() is consulted every k super-edges, so a
// condition that becomes true mid-batch is detected at the next boundary.
func TestDoneCheckIntervalBatching(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 1000)
	c := &counter{}
	d.Attach(c)
	e.SetDoneCheckInterval(4)
	n, err := e.RunUntil(func() bool { return c.n.Get() >= 5 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The condition holds after edge 5; the next check is at edge 8.
	if n != 8 {
		t.Fatalf("edges = %d, want 8 (condition at 5, checked every 4)", n)
	}
	e.SetDoneCheckInterval(1)
	n, err = e.RunUntil(func() bool { return c.n.Get() >= 9 }, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("edges = %d, want 1 (exact polling restored)", n)
	}
}

// TestIdleSkipMatchesUnskipped verifies that disabling idle bulk-skip (via
// RunCycles, which suspends it) and running edge by edge produces the same
// cycle counts a skipped run does: the idle windows are jumped, never lost.
func TestIdleSkipMatchesUnskipped(t *testing.T) {
	type idleCounter struct{ counter }
	// A ticker that is always idle would never be delivered an edge by a
	// skipping engine; pair an idle fast domain with an active slow one
	// and check the fast domain's cycle accounting stays exact.
	e := NewEngine()
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

// TestStatsAccountAllEdges pins the telemetry invariant behind
// Engine.Stats: delivered plus skipped edges must equal the sum of the
// per-domain cycle counters, under both schedulers and across every skip
// path (the lockstep inline skip bypasses Domain.skipEdges and is counted
// separately).
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
		if st.EdgesSkipped == 0 {
			t.Fatalf("%v: idle fast domain skipped no edges", sched)
		}
		if sched == Lockstep && st.HeapOps != 0 {
			t.Fatalf("lockstep scheduler recorded %d heap ops, want 0", st.HeapOps)
		}
	}
	// The n >= 3 event layout is the only one that touches the heap.
	e := NewEngine()
	e.SetScheduler(EventDriven)
	for i, hz := range []int64{4000, 2000, 1000} {
		e.NewDomain(fmt.Sprintf("d%d", i), hz).Attach(&counter{})
	}
	for i := 0; i < 50; i++ {
		e.step()
	}
	if st := e.Stats(); st.HeapOps == 0 {
		t.Fatal("three-domain event engine recorded no heap ops")
	}
}

// alwaysIdle is a Ticker+Idler whose edges are permanent no-ops.
type alwaysIdle struct{}

func (alwaysIdle) Eval()                {}
func (alwaysIdle) Update()              {}
func (alwaysIdle) IdleUntilInput() bool { return true }

// TestEventStepZeroAllocAllLayouts pins the allocation-free contract of the
// event-driven scheduler across every dispatch path: the solo and pair
// inline paths, the n >= 3 heap path (pop/push per super-edge), and the
// bulk-skip passes (which rebuild the heap). After warm-up, neither Step
// nor the skip machinery may allocate.
func TestEventStepZeroAllocAllLayouts(t *testing.T) {
	build := func(domains int) *Engine {
		e := NewEngine()
		e.SetScheduler(EventDriven)
		for i := 0; i < domains; i++ {
			d := e.NewDomain(fmt.Sprintf("d%d", i), int64(48_000_000)>>(i%3))
			if i%2 == 0 {
				// Alternating active/countdown windows keep the skip
				// passes (and heap rebuilds) on the measured path.
				d.Attach(&phaseBulk{active: 2, idle: 16, rem: 2})
			} else {
				d.Attach(&counter{})
			}
		}
		for i := 0; i < 64; i++ {
			e.step() // warm up: plan, heap, due scratch, skip pass
		}
		return e
	}
	for _, domains := range []int{1, 2, 3, 8} {
		e := build(domains)
		if avg := testing.AllocsPerRun(2000, func() { e.step() }); avg != 0 {
			t.Fatalf("event step with %d domains allocates %v times per super-edge, want 0", domains, avg)
		}
	}
}

// TestRunUntilFlagZeroAlloc pins the same contract for the flag-polled run
// loop the execute path uses, under both schedulers and in each layout the
// run loop chooses between: solo, pair and the step loop behind every other
// layout, each with a countdown component so the event-driven skips stay on
// the measured path.
func TestRunUntilFlagZeroAlloc(t *testing.T) {
	for _, s := range schedulers() {
		for _, domains := range []int{1, 2, 3} {
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
