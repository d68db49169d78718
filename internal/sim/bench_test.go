package sim

import "testing"

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

// benchSpan times RunUntilFlag over a fixed span of edges per op, with a
// stop flag that never rises, so the run loop each scheduler chooses is
// what gets measured. It reports host ns per delivered edge and fails
// unless an op allocates nothing.
func benchSpan(b *testing.B, e *Engine, span int64) {
	var never bool
	op := func() {
		if _, err := e.RunUntilFlag(&never, span); err != ErrBudget {
			b.Fatal(err)
		}
	}
	op()
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
