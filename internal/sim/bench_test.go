package sim

import (
	"fmt"
	"testing"
)

// busyBulk is a BulkIdler that is never idle — the worst case for the
// event scheduler's per-edge idleness probing (a coprocessor core that
// always has work, like the vector adder).
type busyBulk struct{ n int64 }

func (b *busyBulk) Eval()            { b.n++ }
func (b *busyBulk) Update()          {}
func (b *busyBulk) IdleEdges() int64 { return 0 }
func (b *busyBulk) SkipEdges(int64)  {}

// phaseBulk alternates active and bounded-idle windows of fixed length,
// modelling a core with multi-cycle compute phases between accesses.
type phaseBulk struct {
	active, idle int64 // window lengths
	rem          int64 // edges left in the current window
	inIdle       bool
	work         int64 // counts active edges only
}

func (p *phaseBulk) Eval() {
	if p.rem == 0 {
		p.inIdle = !p.inIdle
		if p.inIdle {
			p.rem = p.idle
		} else {
			p.rem = p.active
		}
	}
	p.rem--
	if !p.inIdle {
		p.work++
	}
}
func (p *phaseBulk) Update() {}

// IdleEdges: the decrement edges inside an idle window are inert; the edge
// that flips between windows changes behaviour and must be delivered.
func (p *phaseBulk) IdleEdges() int64 {
	if p.inIdle && p.rem > 0 {
		return p.rem
	}
	return 0
}
func (p *phaseBulk) SkipEdges(k int64) { p.rem -= k }

func schedulers() []struct {
	name  string
	sched Scheduler
} {
	return []struct {
		name  string
		sched Scheduler
	}{{"lockstep", Lockstep}, {"event", EventDriven}}
}

// benchSpan times RunUntilFlag over a fixed span of super-edges per op,
// with a stop flag that never rises, so the run loop each layout chooses is
// what gets measured. It reports host ns per delivered edge and fails
// unless an op allocates nothing.
func benchSpan(b *testing.B, e *Engine, span int64) {
	var never bool
	op := func() {
		if _, err := e.RunUntilFlag(&never, span); err != ErrBudget {
			b.Fatal(err)
		}
	}
	op() // warm up: plan, heap, due scratch
	if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
		b.Fatalf("%v allocs per op, want 0", allocs)
	}
	st0 := e.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	edges := e.Stats().EdgesDelivered - st0.EdgesDelivered
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}

// BenchmarkSoloBusy pins the per-edge overhead of a single-domain engine
// whose components never idle (a core that always has work next to an IMU
// with traffic in flight): the event scheduler asks the first polled ticker
// before every edge, which should keep it within a few percent of lockstep.
func BenchmarkSoloBusy(b *testing.B) {
	for _, s := range schedulers() {
		b.Run(s.name, func(b *testing.B) {
			e := NewEngine()
			e.SetScheduler(s.sched)
			d := e.NewDomain("clk", 40_000_000)
			d.Attach(&busyBulk{})
			d.Attach(&busyBulk{})
			benchSpan(b, e, 1024)
		})
	}
}

// BenchmarkPairWait pins the two-domain layout of the IDEA board: a
// ratio-1 domain that idles between bursts (the IMU) against a slower
// always-busy domain (a core waiting on translated accesses). Each op
// covers the same span of fast-domain ticks, so the schedulers are
// comparable even though the event engine consumes several edges per step.
func BenchmarkPairWait(b *testing.B) {
	for _, s := range schedulers() {
		b.Run(s.name, func(b *testing.B) {
			e := NewEngine()
			e.SetScheduler(s.sched)
			fast := e.NewDomain("imu", 24_000_000)
			slow := e.NewDomain("copro", 6_000_000)
			fast.Attach(&phaseBulk{active: 4, idle: 4, rem: 4})
			slow.Attach(&busyBulk{})
			benchSpan(b, e, 1024)
		})
	}
}

// BenchmarkNDomainIdle measures the event scheduler on engines of three
// or more clock domains where most domains are idle on well over half
// their edges. Lockstep must deliver every inert edge; the event scheduler
// jumps each idle subset to the wake horizon, but every skip asks all n
// domains for their wake tick and rebuilds the heap, so its advantage does
// not grow with domain count: on a 2-core Xeon host it is level with
// lockstep at 3 domains, about 1.5x faster at 4 and level again at 8. No
// shipped board has more than three domains. Iteration cost is normalised
// per delivered unit of work, not per edge: both schedulers run the same
// simulated span per loop.
func BenchmarkNDomainIdle(b *testing.B) {
	for _, n := range []int{3, 4, 8} {
		for _, s := range schedulers() {
			b.Run(fmt.Sprintf("domains=%d/%s", n, s.name), func(b *testing.B) {
				e := NewEngine()
				e.SetScheduler(s.sched)
				driver := e.NewDomain("drv", 48_000_000)
				// The driver works one edge in eight; every other domain
				// idles in long countdown windows (>= 87% idle edges).
				driver.Attach(&phaseBulk{active: 1, idle: 7, rem: 1})
				for i := 1; i < n; i++ {
					d := e.NewDomain(fmt.Sprintf("idle%d", i), 48_000_000/int64(1<<(i%3)))
					d.Attach(&phaseBulk{active: 1, idle: 63, rem: 1})
				}
				e.Step()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Advance a fixed simulated span with skipping allowed
					// (RunCycles would suspend it): both schedulers cover
					// identical simulated time per iteration.
					target := driver.Cycles() + 512
					if _, err := e.RunUntil(func() bool { return driver.Cycles() >= target }, 1<<40); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
