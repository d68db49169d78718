package sim

import (
	"errors"
	"testing"
)

// counter increments a register once per edge.
type counter struct {
	n Reg[int]
}

func (c *counter) Eval()   { c.n.Set(c.n.Get() + 1) }
func (c *counter) Update() { c.n.Commit() }

func TestSingleDomainCounts(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 100)
	c := &counter{}
	d.Attach(c)
	e.RunCycles(d, 10)
	if got := c.n.Get(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if d.Cycles() != 10 {
		t.Fatalf("cycles = %d, want 10", d.Cycles())
	}
}

// sampler records the value another component's register had at each of its
// own edges, to verify the two-phase contract: a same-edge write must not be
// visible.
type sampler struct {
	src  *counter
	seen []int
}

func (s *sampler) Eval()   { s.seen = append(s.seen, s.src.n.Get()) }
func (s *sampler) Update() {}

func TestTwoPhaseNoSameEdgeVisibility(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 1000)
	c := &counter{}
	s := &sampler{src: c}
	// Attach the sampler first so that, were the kernel single-phase in
	// reverse order, it would see updated values.
	d.Attach(s)
	d.Attach(c)
	e.RunCycles(d, 5)
	want := []int{0, 1, 2, 3, 4}
	for i, v := range want {
		if s.seen[i] != v {
			t.Fatalf("edge %d: sampled %d, want %d (same-edge write leaked)", i, s.seen[i], v)
		}
	}
}

// TestCoincidentEdgesEvalBeforeAnyUpdate pins the other attach order than
// TestTwoPhaseNoSameEdgeVisibility: with the counter attached first, were
// the kernel to commit each ticker right after its Eval, the sampler would
// see this edge's value. Every ticker on an edge Evals before any Updates,
// so it sees the value from before the edge.
func TestCoincidentEdgesEvalBeforeAnyUpdate(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 4000)
	c := &counter{}
	s := &sampler{src: c}
	d.Attach(c)
	d.Attach(s)
	e.RunCycles(d, 3)
	want := []int{0, 1, 2}
	if len(s.seen) != len(want) {
		t.Fatalf("sampled %d times, want %d", len(s.seen), len(want))
	}
	for i, v := range want {
		if s.seen[i] != v {
			t.Fatalf("sample %d = %d, want %d (pre-edge value)", i, s.seen[i], v)
		}
	}
}

func TestRunUntilStopsOnCondition(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 10)
	c := &counter{}
	d.Attach(c)
	n, err := e.RunUntil(func() bool { return c.n.Get() >= 7 }, 1000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n != 7 {
		t.Fatalf("edges = %d, want 7", n)
	}
}

func TestRunUntilBudget(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 10)
	d.Attach(&counter{})
	_, err := e.RunUntil(func() bool { return false }, 10)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestFailAbortsRun(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 10)
	boom := errors.New("boom")
	d.Attach(TickerFunc{OnEval: func() { e.Fail(boom) }})
	_, err := e.RunUntil(nil, 100)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestNowPsAdvances(t *testing.T) {
	e := NewEngine()
	d := e.NewDomain("clk", 1_000_000) // 1 MHz -> 1 us period
	d.Attach(&counter{})
	e.RunCycles(d, 3)
	if got := e.NowPs(); got != 3e6 {
		t.Fatalf("NowPs = %v, want 3e6", got)
	}
}

func TestRegForceAndCommit(t *testing.T) {
	r := NewReg(5)
	r.Set(9)
	if r.Get() != 5 {
		t.Fatal("Set leaked before Commit")
	}
	r.Commit()
	if r.Get() != 9 {
		t.Fatal("Commit did not apply")
	}
	r.Force(1)
	r.Commit() // no pending write; must stay 1
	if r.Get() != 1 {
		t.Fatal("Commit after Force changed value")
	}
}

func TestRegStage(t *testing.T) {
	type pair struct{ a, b int }
	r := NewReg(pair{1, 2})
	r.Set(pair{3, 4})
	r.Commit()
	if r.Pending() {
		t.Fatal("pending after Commit")
	}
	// A staged edit starts from the committed value, not the old one.
	r.Stage().a = 5
	if !r.Pending() || r.Get() != (pair{3, 4}) {
		t.Fatal("Stage did not schedule, or leaked before Commit")
	}
	r.Stage().b = 6 // a second edit on the same edge extends the first
	if !r.Commit() || r.Get() != (pair{5, 6}) {
		t.Fatalf("Commit applied %+v, want {5 6}", r.Get())
	}
	// Force drops a staged edit; the next edit starts from the forced value.
	r.Stage().a = 7
	r.Force(pair{8, 9})
	if r.Pending() || r.Commit() || r.Get() != (pair{8, 9}) {
		t.Fatal("Force did not drop the staged edit")
	}
	r.Stage().b = 0
	r.Commit()
	if r.Get() != (pair{8, 0}) {
		t.Fatalf("edit after Force committed %+v, want {8 0}", r.Get())
	}
}

func TestSchedulerSelection(t *testing.T) {
	// Pin the package default for the duration of the test so a
	// SIM_SCHEDULER override in the environment cannot skew it.
	defer SetDefaultScheduler(SetDefaultScheduler(EventDriven))
	e := NewEngine()
	if got := e.Scheduler(); got != EventDriven {
		t.Fatalf("default scheduler = %v, want event-driven", got)
	}
	e.SetScheduler(Lockstep)
	if got := e.Scheduler(); got != Lockstep {
		t.Fatalf("scheduler = %v after SetScheduler(Lockstep)", got)
	}
	e.SetScheduler(SchedulerDefault)
	if got := e.Scheduler(); got != EventDriven {
		t.Fatalf("SchedulerDefault resolved to %v, want event-driven", got)
	}
	SetDefaultScheduler(Lockstep)
	if got := NewEngine().Scheduler(); got != Lockstep {
		t.Fatalf("NewEngine after SetDefaultScheduler(Lockstep) = %v", got)
	}
	if EventDriven.String() != "event-driven" || Lockstep.String() != "lockstep" {
		t.Fatal("Scheduler.String mismatch")
	}
}

// TestSchedulerSwitchMidRun verifies a scheduler change between edges
// switches cleanly: cycle accounting continues exactly where it left off.
func TestSchedulerSwitchMidRun(t *testing.T) {
	e := NewEngine()
	e.SetScheduler(EventDriven)
	d := e.NewDomain("clk", 4000)
	c, p := &counter{}, &phaseBulk{active: 2, idle: 5, rem: 2}
	d.Attach(c)
	d.Attach(p)
	e.RunCycles(d, 6)
	e.SetScheduler(Lockstep)
	e.RunCycles(d, 6)
	e.SetScheduler(EventDriven)
	e.RunCycles(d, 4)
	if c.n.Get() != 16 || d.Cycles() != 16 {
		t.Fatalf("count %d, cycles %d after scheduler switches, want 16/16", c.n.Get(), d.Cycles())
	}
}

// TestEmptyEngineRunReturnsError pins that running an engine without a
// clock domain reports ErrNoDomains under both schedulers instead of
// panicking, while a stop condition that already holds still ends the run
// cleanly and Step has nothing to deliver.
func TestEmptyEngineRunReturnsError(t *testing.T) {
	for _, s := range schedulers() {
		e := NewEngine()
		e.SetScheduler(s.sched)
		if n, err := e.RunUntil(func() bool { return false }, 10); n != 0 || err != ErrNoDomains {
			t.Errorf("%s: RunUntil = %d, %v; want 0, ErrNoDomains", s.name, n, err)
		}
		var stop bool
		if n, err := e.RunUntilFlag(&stop, 10); n != 0 || err != ErrNoDomains {
			t.Errorf("%s: RunUntilFlag = %d, %v; want 0, ErrNoDomains", s.name, n, err)
		}
		stop = true
		if n, err := e.RunUntilFlag(&stop, 10); n != 0 || err != nil {
			t.Errorf("%s: RunUntilFlag with the flag up = %d, %v; want 0, nil", s.name, n, err)
		}
		if e.Step(); e.Stats() != (Stats{}) || e.NowPs() != 0 {
			t.Errorf("%s: Step on an empty engine moved it: %+v at %v ps", s.name, e.Stats(), e.NowPs())
		}
	}
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// TestNewDomainRejectsUnschedulableClocks pins the clocks NewDomain
// refuses: a second domain, and a frequency that is not positive. Each
// panics and leaves the engine as it was: an existing domain keeps running
// under both schedulers, and an empty engine stays empty until a valid
// NewDomain.
func TestNewDomainRejectsUnschedulableClocks(t *testing.T) {
	for _, c := range []struct {
		name string
		have bool // the engine already has a 24 MHz domain
		hz   int64
	}{
		{"second domain", true, 24_000_000},
		{"zero", true, 0},
		{"zero on an empty engine", false, 0},
		{"negative", true, -6_000_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			var d *Domain
			if c.have {
				d = e.NewDomain("clk", 24_000_000)
				d.Attach(&counter{})
			}
			if msg := panicOf(func() { e.NewDomain("bad", c.hz) }); msg == nil {
				t.Fatalf("NewDomain accepted %d Hz (existing domain: %v)", c.hz, c.have)
			}
			if d == nil {
				if _, err := e.RunUntil(nil, 4); err != ErrNoDomains {
					t.Fatalf("a rejected domain changed the empty engine: %v", err)
				}
				e.NewDomain("clk", 1000)
				return
			}
			for _, s := range schedulers() {
				e.SetScheduler(s.sched)
				if _, err := e.RunUntil(nil, 4); err != ErrBudget {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
			if d.Cycles() != 8 {
				t.Fatalf("the existing domain ran %d cycles, want 8", d.Cycles())
			}
		})
	}
}
