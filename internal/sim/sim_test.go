package sim

import (
	"errors"
	"testing"
	"testing/quick"
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

func TestIntegerRatioDomainsStayLocked(t *testing.T) {
	e := NewEngine()
	fast := e.NewDomain("fast", 24_000_000)
	slow := e.NewDomain("slow", 6_000_000)
	cf, cs := &counter{}, &counter{}
	fast.Attach(cf)
	slow.Attach(cs)
	e.RunCycles(fast, 400)
	if got := cf.n.Get(); got != 400 {
		t.Fatalf("fast = %d, want 400", got)
	}
	// slow runs at exactly 1/4 rate; after 400 fast edges 100 slow edges
	// have occurred (the t=0+ first edges coincide).
	if got := cs.n.Get(); got != 100 {
		t.Fatalf("slow = %d, want 100", got)
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

func TestCoincidentEdgesEvalBeforeAnyUpdate(t *testing.T) {
	e := NewEngine()
	fast := e.NewDomain("fast", 4000)
	slow := e.NewDomain("slow", 1000)
	c := &counter{}
	fast.Attach(c)
	s := &sampler{src: c}
	slow.Attach(s)
	e.RunCycles(fast, 8)
	// Slow edge j coincides with fast edge 4j; during the shared
	// super-edge all Evals run before any Update, so the sampler must see
	// the counter value from *before* that edge: 3, then 7.
	want := []int{3, 7}
	if len(s.seen) != len(want) {
		t.Fatalf("slow sampled %d times, want %d", len(s.seen), len(want))
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

// TestValidateRejectsNonIntegerRatio pins CheckClocks, the clock-plan check
// assemblers run before creating domains: a non-integer pair, a
// non-positive clock and a coprime pair whose LCM overflows int64 (which
// NewDomain would panic on) are errors; integer ratios, repeats included,
// pass.
func TestValidateRejectsNonIntegerRatio(t *testing.T) {
	for _, hz := range [][]int64{
		{133_000_000, 40_000_000},
		{24_000_000, 0},
		{-6_000_000},
		{24_000_000, 6_000_000, 4_000_000},
		{1<<62 - 1, 1<<62 - 3},
	} {
		if err := CheckClocks(hz...); err == nil {
			t.Errorf("CheckClocks accepted %v", hz)
		}
	}
	for _, hz := range [][]int64{
		{},
		{24_000_000, 6_000_000, 24_000_000},
		{6_000_000, 24_000_000, 48_000_000},
	} {
		if err := CheckClocks(hz...); err != nil {
			t.Errorf("CheckClocks rejected %v: %v", hz, err)
		}
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

// Property: for any pair of frequencies with integer ratio k and any number
// of fast cycles n, slow cycles == n/k (first edges coincide).
func TestQuickDomainRatioInvariant(t *testing.T) {
	f := func(base uint16, ratio uint8, cycles uint8) bool {
		b := int64(base%1000) + 1
		k := int64(ratio%7) + 1
		n := int64(cycles%100) + k
		e := NewEngine()
		fast := e.NewDomain("fast", b*k)
		slow := e.NewDomain("slow", b)
		fast.Attach(&counter{})
		slow.Attach(&counter{})
		e.RunCycles(fast, n)
		// Slow edge j coincides with fast edge j*k, so after n fast
		// edges exactly floor(n/k) slow edges have been delivered.
		return slow.Cycles() == n/k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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

func TestThreeDomainInterleaving(t *testing.T) {
	e := NewEngine()
	d1 := e.NewDomain("a", 6_000_000)
	d2 := e.NewDomain("b", 24_000_000)
	d3 := e.NewDomain("c", 48_000_000)
	c1, c2, c3 := &counter{}, &counter{}, &counter{}
	d1.Attach(c1)
	d2.Attach(c2)
	d3.Attach(c3)
	e.RunCycles(d3, 480)
	if c3.n.Get() != 480 || c2.n.Get() != 240 || c1.n.Get() != 60 {
		t.Fatalf("counts %d/%d/%d, want 480/240/60", c3.n.Get(), c2.n.Get(), c1.n.Get())
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

// TestSchedulerSwitchMidRun verifies a scheduler change between super-edges
// replans cleanly: cycle accounting continues exactly where it left off.
func TestSchedulerSwitchMidRun(t *testing.T) {
	e := NewEngine()
	e.SetScheduler(EventDriven)
	fast := e.NewDomain("fast", 4000)
	slow := e.NewDomain("slow", 1000)
	cf, cs := &counter{}, &counter{}
	fast.Attach(cf)
	slow.Attach(cs)
	e.RunCycles(fast, 6)
	e.SetScheduler(Lockstep)
	e.RunCycles(fast, 6)
	e.SetScheduler(EventDriven)
	e.RunCycles(fast, 4)
	if cf.n.Get() != 16 || cs.n.Get() != 4 {
		t.Fatalf("counts %d/%d after scheduler switches, want 16/4", cf.n.Get(), cs.n.Get())
	}
}

func TestStepReturnsDueDomains(t *testing.T) {
	e := NewEngine()
	fast := e.NewDomain("fast", 2000)
	slow := e.NewDomain("slow", 1000)
	fast.Attach(&counter{})
	slow.Attach(&counter{})
	// First edge: only fast (t=0.5ms) fires; second: both (t=1ms).
	due := e.Step()
	if len(due) != 1 || due[0] != fast {
		t.Fatalf("first step fired %d domains", len(due))
	}
	due = e.Step()
	if len(due) != 2 {
		t.Fatalf("second step fired %d domains, want 2 (coincident)", len(due))
	}
}

// TestEmptyEngineRunReturnsError pins that running an engine without clock
// domains reports ErrNoDomains under both schedulers instead of panicking,
// while a stop condition that already holds still ends the run cleanly and
// Step has nothing to deliver.
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
		if due := e.Step(); due != nil {
			t.Errorf("%s: Step delivered %d domains", s.name, len(due))
		}
	}
}

// TestNewDomainRejectsLCMOverflow pins that NewDomain panics when the least
// common multiple of the engine's frequencies, the event schedule's tick
// rate, no longer fits in an int64, and accepts a set just inside it.
func TestNewDomainRejectsLCMOverflow(t *testing.T) {
	mustPanic := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	e := NewEngine()
	e.NewDomain("a", 3_000_000_019) // prime
	e.NewDomain("b", 3_000_000_017) // odd, coprime to a: LCM ~9.0e18, inside int64
	if msg := mustPanic(func() { e.NewDomain("c", 2) }); msg == nil {
		t.Fatal("NewDomain accepted a frequency set whose LCM overflows int64")
	}
	if n := len(e.Domains()); n != 2 {
		t.Fatalf("rejected domain was added: %d domains", n)
	}
	// A frequency dividing the LCM does not grow it and is accepted.
	e.NewDomain("d", 3_000_000_019)
	for _, s := range schedulers() {
		e.SetScheduler(s.sched)
		if _, err := e.RunUntil(nil, 4); err != ErrBudget {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	if msg := mustPanic(func() { NewEngine().NewDomain("z", 0) }); msg == nil {
		t.Fatal("NewDomain accepted a zero frequency")
	}
}
