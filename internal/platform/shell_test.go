package platform

import (
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/copro"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/copro/scriptcp"
	"repro/internal/copro/vecadd"
	"repro/internal/imu"
	"repro/internal/sim"
)

// rig drives a shell directly, with a tiny deterministic stand-in for the
// operating system instead of the VIM: parameter pages live in a reserved
// frame per channel, object pages map on first touch onto a small pool of
// data frames round-robin (evicting whatever the frame held), a fault maps
// the missing page and restarts the channel, and a completion is
// acknowledged. Data never moves between memories — the rig exercises the
// shell's edge delivery, not the paging policy — so it allocates nothing
// once built.
type rig struct {
	b    *Board
	hw   *ShellHW
	pool int // data frames, following the reserved parameter frames
	next int // round-robin cursor into the data frames
}

// rigHz is the rig's shell clock.
const rigHz = 24_000_000

func newRig(tb testing.TB, nslots, pool int, sched sim.Scheduler) *rig {
	tb.Helper()
	b, err := NewBoard(EPXA4())
	if err != nil {
		tb.Fatal(err)
	}
	hw, err := b.AssembleShell(rigHz, nslots)
	if err != nil {
		tb.Fatal(err)
	}
	hw.Eng.SetScheduler(sched)
	if nslots+pool > b.DP.Pages() {
		tb.Fatalf("rig: %d slots + %d data frames exceed %d frames", nslots, pool, b.DP.Pages())
	}
	for a := 0; a < b.DP.Size(); a += 4 {
		if err := b.DP.WriteB(uint32(a), uint32(a)*2654435761, 0xf); err != nil {
			tb.Fatal(err)
		}
	}
	return &rig{b: b, hw: hw, pool: pool}
}

// load loads core c, of the given kind, into slot i at the kind's clock.
func (r *rig) load(i int, kind string, c *copro.Seq) {
	if err := r.hw.LoadSlot(r.b, i, c, jobFor(kind).hz); err != nil {
		panic(err)
	}
}

// cycles delivers n edges with no bulk-skip and settles the shell, as
// every stop that hands control to the OS must.
func (r *rig) cycles(n int64) {
	r.hw.Eng.RunCycles(r.hw.Dom, n)
	r.hw.Settle()
}

// mapFrame points (ch, obj, vpage) at frame f; TLB entry f always
// translates frame f.
func (r *rig) mapFrame(f, ch int, obj uint8, vpage uint32) {
	e := imu.TLBEntry{Valid: true, Sess: uint8(ch), Obj: obj, VPage: vpage, Frame: uint8(f)}
	if err := r.b.IMU.SetEntry(f, e); err != nil {
		panic(err)
	}
}

// start writes params into channel ch's parameter frame, maps it and
// raises CP_START.
func (r *rig) start(ch int, params []uint32) {
	base := r.b.DP.PageBase(ch)
	for i, w := range params {
		if err := r.b.DP.WriteB(base+uint32(4*i), w, 0xf); err != nil {
			panic(err)
		}
	}
	r.mapFrame(ch, ch, copro.ParamObj, 0)
	r.b.IMU.StartCh(ch)
}

// service is the OS stand-in, run while the interrupt line is high. It
// returns the set of channels that completed.
func (r *rig) service() (done uint) {
	for ch := range r.hw.Slots {
		switch {
		case r.b.IMU.DonePendingCh(ch):
			r.b.IMU.AckDoneCh(ch)
			done |= 1 << ch
		case r.b.IMU.FaultPendingCh(ch):
			ar := r.b.IMU.ARCh(ch)
			f := len(r.hw.Slots) + r.next%r.pool
			r.next++
			r.mapFrame(f, ch, uint8(ar>>24), (ar&0x00ffffff)>>r.b.Spec.PageLog)
			r.b.IMU.RestartCh(ch)
		}
	}
	return done
}

// snap is the shell's state at one stop, as the OS may read it: every
// slot's committed port bundles and its resident core's Mem counters, the
// IMU's status and interrupt lines, its counters (global and per channel),
// every TLB row (LastUse included) and a digest of the dual-port RAM.
type snap struct {
	Cycle   int64
	CP      [2]copro.CPOut
	IMU     [2]copro.IMUOut
	SR      [2]uint32
	IRQ     bool
	Mem     [2][3]uint64
	Count   imu.Counters
	ChCount [2]imu.Counters
	TLB     [16]imu.TLBEntry
	DP      uint32
}

func (r *rig) snap() snap {
	s := snap{Cycle: r.hw.Dom.Cycles(), IRQ: r.b.IMU.IRQ(), Count: r.b.IMU.Count}
	for i, sl := range r.hw.Slots {
		if p := sl.Port(); p != nil {
			s.CP[i], s.IMU[i] = p.CP(), p.IMU()
		}
		if c := sl.core; c != nil {
			s.Mem[i] = [3]uint64{c.Reads, c.Writes, c.WaitCycles}
		}
		s.SR[i] = r.b.IMU.SRCh(i)
		s.ChCount[i] = r.b.IMU.ChCounters(i)
	}
	for i := range s.TLB {
		s.TLB[i] = r.b.IMU.Entry(i)
	}
	dp, err := r.b.DP.Store().ReadBytes(0, r.b.DP.Size())
	if err != nil {
		panic(err)
	}
	s.DP = crc32.Checksum(dp, crcTable)
	return s
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// advance runs the shell until cycle until, or until every channel in want
// has completed, servicing interrupts on the way, and returns the channels
// that completed. A stride > 0 delivers that many edges at a time
// (RunCycles, which also keeps the engine from bulk-skipping the domain);
// otherwise the shell runs event to event with its wake deadline at until,
// which lets the engine bulk-skip through sleeping slots. Every stop
// settles the shell and is appended to tr when tr is non-nil, and slept
// records whether a slot ever slept across an edge.
func (r *rig) advance(until int64, want uint, stride int64, tr *[]snap, slept *bool) uint {
	var done uint
	for r.hw.Dom.Cycles() < until && (want == 0 || done&want != want) {
		if r.b.IMU.IRQ() {
			done |= r.service()
			r.cycles(1) // let acks and restarts land
		} else if stride > 0 {
			r.cycles(min(stride, until-r.hw.Dom.Cycles()))
		} else {
			r.hw.SetWake(until)
			if _, err := r.hw.RunUntilEvent(until); err != nil {
				panic(err)
			}
		}
		if tr != nil {
			*tr = append(*tr, r.snap())
		}
		if slept != nil {
			*slept = r.hw.SleptEdges() > 0
		}
	}
	return done
}

// shellJob is one bundled coprocessor with a small workload: its parameter
// words, a constructor for fresh instances and the core's clock.
type shellJob struct {
	params  []uint32
	newCore func() *copro.Seq
	hz      int64
}

// jobFor returns the job of a kind. Every kind runs at the shell clock but
// "idea6", which is IDEA at its native 6 MHz: a divided slot.
func jobFor(kind string) shellJob {
	switch kind {
	case "idea6":
		j := jobFor("idea")
		j.hz = 6_000_000
		return j
	case "idea":
		params := make([]uint32, 1+26) // block count, then 52 packed subkeys
		params[0] = 96                 // 768 B in, 768 B out
		for i := 1; i < len(params); i++ {
			params[i] = uint32(i)*0x9e3779b9 + 1
		}
		return shellJob{params, func() *copro.Seq { return ideacp.New() }, rigHz}
	case "adpcm":
		return shellJob{[]uint32{384}, func() *copro.Seq { return adpcmdec.New() }, rigHz}
	case "vecadd":
		return shellJob{[]uint32{600}, func() *copro.Seq { return vecadd.New() }, rigHz}
	case "scriptcp":
		s, err := scriptcp.Generate(rand.New(rand.NewSource(7)), []scriptcp.ObjSpec{
			{ID: 0, Size: 4096, Readable: true, ReadbackSafe: true},
			{ID: 1, Size: 6144, Readable: true, Writable: true, ReadbackSafe: true},
			{ID: 2, Size: 2048, Writable: true},
		}, 400)
		if err != nil {
			panic(err)
		}
		return shellJob{[]uint32{uint32(len(s))}, func() *copro.Seq { return scriptcp.New(s) }, rigHz}
	}
	panic("unknown core " + kind)
}

// shellRun is everything one scenario run exposes for comparison.
type shellRun struct {
	Trace []snap
	Mem   [][3]uint64 // Reads, Writes, WaitCycles of every core instance
	DP    [][]byte
	Slept bool
}

// runShellScenario drives kinds[0] in slot 0 — next to kinds[1] in slot 1
// when there are two — through demand faults, CP_STOP at cycle stopAt, an
// Unload/Load of slot 0 with a restart, and a staged core committed into
// slot 0 and run to completion.
func runShellScenario(t *testing.T, kinds []string, sched sim.Scheduler, stride, stopAt int64) shellRun {
	kind := kinds[0]
	r := newRig(t, len(kinds), 6, sched)
	var run shellRun
	var cores []*copro.Seq
	fresh := func(kind string) *copro.Seq {
		c := jobFor(kind).newCore()
		cores = append(cores, c)
		return c
	}
	const budget = 1 << 21
	adv := func(until int64, want uint) uint {
		return r.advance(until, want, stride, &run.Trace, &run.Slept)
	}
	for i, k := range kinds {
		r.load(i, k, fresh(k))
		r.start(i, jobFor(k).params)
	}

	// Stop slot 0 mid-operation; the neighbour keeps working.
	adv(stopAt, 0)
	r.b.IMU.StopCh(0)
	adv(stopAt+200, 0)

	// Reconfigure slot 0 with a fresh core, stage another behind it and
	// run the fresh one to completion.
	r.hw.UnloadSlot(r.b, 0)
	r.load(0, kind, fresh(kind))
	r.hw.Slots[0].Stage(fresh(kind))
	r.start(0, jobFor(kind).params)
	adv(r.hw.Dom.Cycles()+budget, 1)
	adv(r.hw.Dom.Cycles()+64, 0)

	// Commit the staged core and run it to completion.
	if err := r.hw.CommitSlot(r.b, 0); err != nil {
		panic(err)
	}
	r.start(0, jobFor(kind).params)
	if adv(r.hw.Dom.Cycles()+budget, 1)&1 == 0 {
		t.Fatalf("%s: the committed core did not complete", kind)
	}
	adv(r.hw.Dom.Cycles()+64, 0)

	for _, c := range cores {
		m := &c.Mem
		run.Mem = append(run.Mem, [3]uint64{m.Reads, m.Writes, m.WaitCycles})
	}
	for f := 0; f < r.b.DP.Pages(); f++ {
		p, err := r.b.DP.ReadPage(f)
		if err != nil {
			panic(err)
		}
		run.DP = append(run.DP, p)
	}
	return run
}

// inRun reports whether slot s sleeps through a hit run.
func inRun(s *Slot) bool {
	return s.asleep && reflect.ValueOf(s.core).Elem().FieldByName("run").Bool()
}

// sleepingStop finds a cycle at which, under the event-driven scheduler,
// slot 0 is asleep inside a bounded window at least two edges from its end
// (-1 if there is none), so a stop there exercises an early wake. With run
// set the window is a hit run, and so is every neighbour's; otherwise it is
// a compute or decode window. The shell runs edge by edge and settles only
// to service an interrupt, so windows last as they would in a serve.
func sleepingStop(t *testing.T, kinds []string, run bool) int64 {
	r := newRig(t, len(kinds), 6, sim.EventDriven)
	for i, k := range kinds {
		r.load(i, k, jobFor(k).newCore())
		r.start(i, jobFor(k).params)
	}
	for c := int64(0); c < 20000; c++ {
		now := r.hw.Dom.Cycles()
		ok := c >= 300
		for i, s := range r.hw.Slots {
			if i == 0 || run {
				ok = ok && s.asleep && s.until-now >= 2 && s.until < sim.IdleForever && inRun(s) == run
			}
		}
		if ok {
			return now
		}
		if r.b.IMU.IRQ() {
			r.hw.Settle()
			r.service()
		}
		r.hw.Eng.RunCycles(r.hw.Dom, 1)
	}
	return -1
}

// TestShellSleepMatchesFullDelivery is the differential test of slot-local
// sleep and of hit runs in the shell: for every bundled core, in 1- and
// 2-slot shells, a run under the event-driven scheduler (cores sleep
// through their idle windows and hit runs) must show at every stop exactly
// the state of the lockstep reference (every edge delivered to every core;
// see snap), and the same Mem counters for every core instance and
// dual-port RAM contents at the end — stopping after every edge, after
// every 7 edges (so sleeps and runs span stops and end early), and when
// the engine is free to bulk-skip through sleeping slots. The kind/Nslot
// cases stop slot 0 inside a compute window (IDEA, ADPCM) or at cycle 300;
// the runs/ cases stop it inside a hit run while every neighbour runs one
// too; the divided/ case stops a 6 MHz IDEA slot inside a compute window
// while its 24 MHz neighbour takes hit runs.
// The pokes subtests then apply each kind of OS poke right after the shell
// has published an idle horizon and compare against lockstep after every
// step (see testPokesAfterHorizon).
func TestShellSleepMatchesFullDelivery(t *testing.T) {
	testPokesAfterHorizon(t)
	type scenario struct {
		name  string
		kinds []string
		run   bool // stop inside hit runs
	}
	var cases []scenario
	for _, kind := range []string{"idea", "adpcm", "vecadd", "scriptcp"} {
		cases = append(cases, scenario{kind + "/1slot", []string{kind}, false},
			scenario{kind + "/2slot", []string{kind, "adpcm"}, false})
	}
	for _, kinds := range [][]string{{"idea"}, {"idea", "adpcm"}, {"vecadd", "scriptcp"}, {"adpcm", "idea"}} {
		cases = append(cases, scenario{"runs/" + strings.Join(kinds, "+"), kinds, true})
	}
	// IDEA at 6 MHz beside ADPCM taking hit runs at the 24 MHz shell clock.
	cases = append(cases, scenario{"divided/idea6+adpcm", []string{"idea6", "adpcm"}, false})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stopAt := int64(300)
			if kind := c.kinds[0]; c.run || kind == "idea" || kind == "idea6" || kind == "adpcm" {
				if stopAt = sleepingStop(t, c.kinds, c.run); stopAt < 0 {
					t.Fatal("no stop inside the wanted windows")
				}
			}
			for _, stride := range []int64{1, 7, 0} {
				ref := runShellScenario(t, c.kinds, sim.Lockstep, stride, stopAt)
				got := runShellScenario(t, c.kinds, sim.EventDriven, stride, stopAt)
				if ref.Slept {
					t.Fatal("a slot slept under the lockstep reference")
				}
				// Stops after every edge wake every core at once.
				if stride != 1 && !got.Slept {
					t.Fatal("no slot ever slept under the event-driven scheduler")
				}
				if len(ref.Trace) != len(got.Trace) {
					t.Fatalf("stride %d: %d stops under lockstep, %d event-driven", stride, len(ref.Trace), len(got.Trace))
				}
				for i := range ref.Trace {
					if ref.Trace[i] != got.Trace[i] {
						t.Fatalf("stride %d: stop %d diverges:\n lockstep %+v\n event    %+v", stride, i, ref.Trace[i], got.Trace[i])
					}
				}
				if !reflect.DeepEqual(ref.Mem, got.Mem) {
					t.Fatalf("stride %d: Mem counters diverge: lockstep %v, event %v", stride, ref.Mem, got.Mem)
				}
				if !reflect.DeepEqual(ref.DP, got.DP) {
					t.Fatalf("stride %d: dual-port RAM contents diverge", stride)
				}
			}
		})
	}
}

// twin drives the same shell scenario on an event-driven rig and a lockstep
// rig side by side.
type twin struct {
	t      *testing.T
	ev, ls *rig
	steps  int
}

// each applies f to both rigs, event-driven first.
func (w *twin) each(f func(r *rig)) {
	f(w.ev)
	f(w.ls)
}

// step advances the event-driven rig by one engine Step (which may
// bulk-skip on the published horizons) — or, while the interrupt is high,
// services it on both rigs, delivers one edge and restarts every slot that
// completed, so hit runs keep the shell busy across rounds — brings the
// lockstep rig to the same cycle, and fails on the first difference in
// their state.
func (w *twin) step() {
	w.steps++
	if w.ev.b.IMU.IRQ() {
		w.each(func(r *rig) {
			done := r.service()
			r.cycles(1)
			for ch, kind := range pokeKinds {
				if done&(1<<ch) != 0 {
					r.start(ch, jobFor(kind).params)
				}
			}
		})
	} else {
		w.ev.hw.Step()
		w.ls.cycles(w.ev.hw.Dom.Cycles() - w.ls.hw.Dom.Cycles())
	}
	w.check("step")
}

func (w *twin) check(at string) {
	w.t.Helper()
	if ls, ev := w.ls.snap(), w.ev.snap(); ls != ev {
		w.t.Fatalf("%s %d diverges:\n lockstep %+v\n event    %+v", at, w.steps, ls, ev)
	}
}

// untilIdle steps, for at least min steps, until the event-driven rig's
// shell domain reads idle for a bounded window at least two edges long,
// with no interrupt pending. Reading it leaves the shell's and the IMU's
// published horizons fresh and idle, which the next poke must not let the
// engine trust.
func (w *twin) untilIdle(min int) {
	w.t.Helper()
	for i := 0; i < 1<<16; i++ {
		w.step()
		if k := w.ev.hw.Dom.IdleEdges(); i >= min && !w.ev.b.IMU.IRQ() && k >= 2 && k < sim.IdleForever {
			return
		}
	}
	w.t.Fatal("the shell never idled")
}

// pokeKinds are the cores testPokesAfterHorizon runs in slots 0 and 1.
var pokeKinds = [2]string{"idea", "adpcm"}

// testPokesAfterHorizon runs IDEA in slot 0 next to ADPCM in slot 1 on twin
// rigs, applies one OS poke at each of several instants at which the shell
// has just published an idle horizon, and compares the rigs after every
// step; the run ends with every core instance's Mem counters and the
// dual-port RAM compared too.
func testPokesAfterHorizon(t *testing.T) {
	for _, p := range []struct {
		name string
		poke func(w *twin)
	}{
		{"load-unload", func(w *twin) {
			w.each(func(r *rig) {
				r.hw.UnloadSlot(r.b, 0)
				r.load(0, "idea", jobFor("idea").newCore())
				r.start(0, jobFor("idea").params)
			})
		}},
		{"reload-live-port", func(w *twin) {
			// A fresh core on the slot's live port sees CP_START already high.
			w.each(func(r *rig) {
				s := r.hw.Slots[0]
				s.Load(jobFor("idea").newCore(), s.Port())
			})
		}},
		{"commit-staged", func(w *twin) {
			w.each(func(r *rig) {
				r.hw.Slots[0].Stage(jobFor("idea").newCore())
				if err := r.hw.CommitSlot(r.b, 0); err != nil {
					t.Fatal(err)
				}
				r.start(0, jobFor("idea").params)
			})
		}},
		{"stop", func(w *twin) {
			w.each(func(r *rig) { r.b.IMU.StopCh(0) })
		}},
		{"tlb-write", func(w *twin) {
			// Invalidate, through the register window, the data page
			// mapped last.
			w.each(func(r *rig) {
				f := len(r.hw.Slots) + (r.next-1)%r.pool
				if err := r.b.IMU.RegWrite(imu.RegTLBIdx, uint32(f)); err != nil {
					t.Fatal(err)
				}
				if err := r.b.IMU.RegWrite(imu.RegTLBLo, 0); err != nil {
					t.Fatal(err)
				}
			})
		}},
		{"set-wake", func(w *twin) {
			// Re-arm the deadline at the next edge and run to it: a stale
			// horizon would let the event-driven run skip past it.
			at := w.ev.hw.Dom.Cycles() + 1
			w.each(func(r *rig) {
				r.hw.SetWake(at)
				if _, err := r.hw.RunUntilEvent(1 << 20); err != nil {
					t.Fatal(err)
				}
				r.hw.SetWake(-1)
			})
			w.check("set-wake stop")
		}},
	} {
		t.Run("pokes/"+p.name, func(t *testing.T) {
			w := &twin{t: t, ev: newRig(t, 2, 6, sim.EventDriven), ls: newRig(t, 2, 6, sim.Lockstep)}
			var cores [][2]*copro.Seq
			w.each(func(r *rig) {
				for i, kind := range pokeKinds {
					r.load(i, kind, jobFor(kind).newCore())
					r.start(i, jobFor(kind).params)
				}
			})
			for round := 0; round < 3; round++ {
				w.untilIdle(200)
				p.poke(w)
				w.check("poke")
				for i := 0; i < 400; i++ {
					w.step()
				}
			}
			w.each(func(r *rig) {
				cores = append(cores, [2]*copro.Seq{r.hw.Slots[0].Core(), r.hw.Slots[1].Core()})
			})
			for i := range cores[0] {
				ev := &cores[0][i].Mem
				ls := &cores[1][i].Mem
				if ev.Reads != ls.Reads || ev.Writes != ls.Writes || ev.WaitCycles != ls.WaitCycles {
					t.Fatalf("slot %d Mem counters diverge: lockstep %+v, event %+v", i, *ls, *ev)
				}
			}
			for f := 0; f < w.ev.b.DP.Pages(); f++ {
				a, _ := w.ls.b.DP.ReadPage(f)
				b, _ := w.ev.b.DP.ReadPage(f)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("dual-port RAM frame %d diverges", f)
				}
			}
		})
	}
}

// BenchmarkShellEdge is the per-layer benchmark of the shell ticker: two
// slots serving a pinned pair of workloads ("idle" leaves the slot empty)
// under the event-driven scheduler, one op running every busy slot's job
// to completion. It reports delivered edges per op, simulated edges per op
// (delivered + bulk-skipped: the work denominator, which no skipping change
// moves), host ns per delivered and per simulated edge, and the slot-edges
// withheld from sleeping cores per op, and fails unless an op allocates
// nothing.
func BenchmarkShellEdge(b *testing.B) {
	for _, pair := range [][2]string{{"adpcm", "adpcm"}, {"idea", "vecadd"}, {"idle", "adpcm"}, {"idea", "adpcm"}, {"vecadd", "scriptcp"}} {
		b.Run(pair[0]+"-"+pair[1], func(b *testing.B) {
			r := newRig(b, 2, 14, sim.EventDriven)
			var want uint
			for i, kind := range pair {
				if kind != "idle" {
					r.load(i, kind, jobFor(kind).newCore())
					want |= 1 << i
				}
			}
			params := [2][]uint32{}
			for i, kind := range pair {
				if kind != "idle" {
					params[i] = jobFor(kind).params
				}
			}
			op := func() {
				for i := range pair {
					if want&(1<<i) != 0 {
						r.start(i, params[i])
					}
				}
				r.advance(r.hw.Dom.Cycles()+1<<21, want, 0, nil, nil)
				r.advance(r.hw.Dom.Cycles()+64, 0, 0, nil, nil)
			}
			op() // maps every page once
			if allocs := testing.AllocsPerRun(2, op); allocs != 0 {
				b.Fatalf("%v allocs per op, want 0", allocs)
			}
			st0, slept0 := r.hw.Eng.Stats(), r.hw.SleptEdges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			st := r.hw.Eng.Stats()
			edges := float64(st.EdgesDelivered - st0.EdgesDelivered)
			simEdges := edges + float64(st.EdgesSkipped-st0.EdgesSkipped)
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/edges, "ns/edge")
			b.ReportMetric(edges/float64(b.N), "edges/op")
			b.ReportMetric(ns/simEdges, "ns/sim-edge")
			b.ReportMetric(simEdges/float64(b.N), "sim-edges/op")
			b.ReportMetric(float64(r.hw.SleptEdges()-slept0)/float64(b.N), "slept-slot-edges/op")
		})
	}
}
