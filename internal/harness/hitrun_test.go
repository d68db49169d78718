package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/copro"
	"repro/internal/copro/adpcmdec"
	"repro/internal/copro/ideacp"
	"repro/internal/copro/scriptcp"
	"repro/internal/copro/vecadd"
	"repro/internal/imu"
	"repro/internal/ref"
	"repro/internal/sim"
)

// hitCase is one bench configuration of the hit-run tests: build returns
// a fully mapped, parameterised bench under the given scheduler.
type hitCase struct {
	name  string
	build func(t testing.TB, sched sim.Scheduler) *Bench
}

// newHitBench assembles a bench whose IMU runs at imuHz and core at
// coreHz, loads frames (frame index -> bytes), maps (obj, vpage) -> frame
// and writes the parameter words.
func newHitBench(t testing.TB, sched sim.Scheduler, coreHz, imuHz int64, mode imu.Mode,
	core *copro.Seq, frames map[int][]byte, maps [][3]int, params ...uint32) *Bench {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CoproHz, cfg.IMUHz, cfg.Mode, cfg.Sched = coreHz, imuHz, mode, sched
	b, err := New(cfg, core)
	if err != nil {
		t.Fatal(err)
	}
	for f, data := range frames {
		if err := b.LoadFrame(f, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range maps {
		if err := b.MapPage(uint8(m[0]), uint32(m[1]), uint8(m[2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetParams(params...); err != nil {
		t.Fatal(err)
	}
	return b
}

// randomBytes returns n deterministic bytes.
func randomBytes(seed int64, n int) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// twoPages splits data over frames f and f+1.
func twoPages(frames map[int][]byte, f int, data []byte) {
	const page = 2048
	frames[f] = data[:min(len(data), page)]
	if len(data) > page {
		frames[f+1] = data[page:]
	}
}

func vecaddCase(n int) hitCase {
	return hitCase{fmt.Sprintf("vecadd-%d", n), func(t testing.TB, sched sim.Scheduler) *Bench {
		frames := map[int][]byte{}
		twoPages(frames, 1, randomBytes(1, 4*n))
		twoPages(frames, 3, randomBytes(2, 4*n))
		maps := [][3]int{{vecadd.ObjA, 0, 1}, {vecadd.ObjA, 1, 2}, {vecadd.ObjB, 0, 3}, {vecadd.ObjB, 1, 4},
			{vecadd.ObjC, 0, 5}, {vecadd.ObjC, 1, 6}}
		return newHitBench(t, sched, 40_000_000, 40_000_000, imu.MultiCycle, vecadd.New(), frames, maps, uint32(n))
	}}
}

func adpcmCase(nbytes int) hitCase {
	return hitCase{fmt.Sprintf("adpcm-%d", nbytes), func(t testing.TB, sched sim.Scheduler) *Bench {
		frames := map[int][]byte{1: randomBytes(3, nbytes)}
		maps := [][3]int{{adpcmdec.ObjIn, 0, 1}, {adpcmdec.ObjOut, 0, 2}, {adpcmdec.ObjOut, 1, 3}}
		return newHitBench(t, sched, 40_000_000, 40_000_000, imu.MultiCycle, adpcmdec.New(), frames, maps, uint32(nbytes))
	}}
}

func ideaCase(nbytes int, mode imu.Mode) hitCase {
	return hitCase{fmt.Sprintf("idea-%d-%s", nbytes, mode), func(t testing.TB, sched sim.Scheduler) *Bench {
		frames := map[int][]byte{}
		twoPages(frames, 1, randomBytes(4, nbytes))
		maps := [][3]int{{ideacp.ObjIn, 0, 1}, {ideacp.ObjIn, 1, 2}, {ideacp.ObjOut, 0, 3}, {ideacp.ObjOut, 1, 4}}
		var key ref.IDEAKey
		copy(key[:], randomBytes(5, len(key)))
		params := []uint32{uint32(nbytes / 8)}
		for _, w := range ideacp.PackSubkeys(ref.ExpandIDEAKey(key)) {
			params = append(params, w)
		}
		return newHitBench(t, sched, 6_000_000, 24_000_000, mode, ideacp.New(), frames, maps, params...)
	}}
}

// scriptCase runs a random script over an input object, an InOut object
// (written data is read back) and an output object, each two pages but
// the last, with the core clocked at 60 MHz / ratio.
func scriptCase(seed int64, ops int, ratio int64) hitCase {
	return hitCase{fmt.Sprintf("scriptcp-seed%d-r%d", seed, ratio), func(t testing.TB, sched sim.Scheduler) *Bench {
		objs := []scriptcp.ObjSpec{
			{ID: 0, Size: 3000, Readable: true},
			{ID: 1, Size: 3000, Readable: true, Writable: true, ReadbackSafe: true},
			{ID: 2, Size: 2048, Writable: true},
		}
		s, err := scriptcp.Generate(rand.New(rand.NewSource(seed)), objs, ops)
		if err != nil {
			t.Fatal(err)
		}
		frames := map[int][]byte{}
		twoPages(frames, 1, randomBytes(seed+10, 3000))
		twoPages(frames, 3, randomBytes(seed+11, 3000))
		maps := [][3]int{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}, {2, 0, 5}}
		return newHitBench(t, sched, 60_000_000/ratio, 60_000_000, imu.MultiCycle, scriptcp.New(s), frames, maps, 0)
	}}
}

// mixedProg is a test Program whose units differ in shape and edge count,
// which no shipped core's do. It cycles through a read-only unit, a read
// followed by compute (the unit ends computing), a compute between two
// writes, a write-only unit, and two reads and two writes with compute
// before each write; the compute lengths cycle independently. Its kernel
// chains every read into a checksum that every write stores.
type mixedProg struct {
	n   uint32
	sum uint32
}

func (p *mixedProg) Name() string { return "mixed" }

func (p *mixedProg) Param(i int, w uint32) bool {
	p.n, p.sum = w, 0
	return false
}

func (p *mixedProg) Units() int { return int(p.n) }

func (p *mixedProg) Unit(i int, u *copro.Unit) {
	in, out, c := uint32(4*i)%4096, uint32(8*i)%4096, uint32(1+i%3)
	switch i % 5 {
	case 0:
		u.Read(0, in, copro.Size16)
	case 1:
		u.Read(0, in, copro.Size32)
		u.Compute(c)
	case 2:
		u.Write(1, out, copro.Size32)
		u.Compute(c)
		u.Write(1, out+4, copro.Size32)
	case 3:
		u.Write(1, out, copro.Size32)
	case 4:
		u.Read(0, in, copro.Size32)
		u.Read(0, 4095-in, copro.Size8)
		u.Compute(c)
		u.Write(1, out, copro.Size16)
		u.Compute(1)
		u.Write(1, out+4, copro.Size32)
	}
}

func (p *mixedProg) Kernel(i int, u *copro.Unit) {
	for j := 0; j < u.N; j++ {
		switch s := &u.Steps[j]; s.Kind {
		case copro.StepRead:
			p.sum = (p.sum^s.Val)*0x9e3779b1 + uint32(i)
		case copro.StepWrite:
			s.Val = p.sum + uint32(j)
		}
	}
}

// mixedCase runs mixedProg over two input and two output pages with the
// core clocked at 60 MHz / ratio.
func mixedCase(units int, ratio int64) hitCase {
	return hitCase{fmt.Sprintf("mixed-%d-r%d", units, ratio), func(t testing.TB, sched sim.Scheduler) *Bench {
		frames := map[int][]byte{}
		twoPages(frames, 1, randomBytes(ratio+20, 4096))
		maps := [][3]int{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}}
		return newHitBench(t, sched, 60_000_000/ratio, 60_000_000, imu.MultiCycle,
			copro.NewSeq(&mixedProg{}), frames, maps, uint32(units))
	}}
}

func hitCases() []hitCase {
	cases := []hitCase{
		vecaddCase(1000),
		adpcmCase(900),
		ideaCase(2560, imu.MultiCycle),
		ideaCase(2560, imu.Pipelined),
	}
	for seed := int64(1); seed <= 5; seed++ {
		cases = append(cases, scriptCase(seed, 400, seed))
	}
	for ratio := int64(1); ratio <= 3; ratio++ {
		cases = append(cases, mixedCase(700, ratio))
	}
	return cases
}

// fieldsOf renders every non-pointer field of struct v (a struct or a
// pointer to one) except those named in skip, unexported ones included.
func fieldsOf(v reflect.Value, skip ...string) string {
	v = reflect.Indirect(v)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if k := f.Type.Kind(); k == reflect.Pointer || k == reflect.Interface || slices.Contains(skip, f.Name) {
			continue
		}
		fmt.Fprintf(&b, "%s=%v\n", f.Name, v.Field(i))
	}
	return b.String()
}

// benchState is everything a hit run may touch: the core's Program, the
// sequencer's FSM and its access helper, the IMU (table, stamps, counters
// global and per channel) and its channel (FSM state, latched request,
// register bank, outputs), the DP RAM's bytes and port counters, both
// committed port bundles and the domain cycles. Per-edge scratch (the
// sequencer's current unit) and lookup memos (the sequencer's hit-run plan,
// the channel's CAM memo) are left out. The core's edge count is the
// sequencer's edge field.
type benchState struct {
	Core, Seq, Mem, IMU, Channel, DPPorts string
	DP                                    []byte
	CP                                    copro.CPOut
	IMUOut                                copro.IMUOut
	Cycles                                int64 // the shell's
}

func snapshot(t testing.TB, b *Bench) benchState {
	t.Helper()
	dp, err := b.DP.Store().ReadBytes(0, b.DP.Size())
	if err != nil {
		t.Fatal(err)
	}
	u := reflect.ValueOf(b.IMU)
	return benchState{
		Core:    fieldsOf(reflect.ValueOf(b.Core).Elem().FieldByName("prog").Elem()),
		Seq:     fieldsOf(reflect.ValueOf(b.Core), "Mem", "cur", "plan"),
		Mem:     fieldsOf(reflect.ValueOf(&b.Core.Mem)),
		IMU:     fieldsOf(u, "ch", "chbuf", "hits", "anyWork", "hz"),
		Channel: fieldsOf(u.Elem().FieldByName("ch").Index(0), "noop", "next", "cam"),
		DPPorts: fieldsOf(reflect.ValueOf(b.DP)),
		DP:      dp,
		CP:      b.Port.CP(),
		IMUOut:  b.Port.IMU(),
		Cycles:  b.Shell.Dom.Cycles(),
	}
}

// diffStates reports every field of got that differs from want.
func diffStates(t *testing.T, what string, want, got benchState) {
	t.Helper()
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			name := w.Type().Field(i).Name
			if name == "DP" {
				t.Errorf("%s: DP RAM bytes differ", what)
				continue
			}
			t.Errorf("%s: %s differs:\nwant %v\ngot  %v", what, name, w.Field(i), g.Field(i))
		}
	}
}

// TestHitRunMatchesFullDelivery runs every core to completion under the
// lockstep scheduler, which delivers every edge to the edge FSMs, and under
// the event scheduler, which moves TLB-resident stretches through hit runs,
// and requires the two to leave exactly the same state.
func TestHitRunMatchesFullDelivery(t *testing.T) {
	for _, c := range hitCases() {
		t.Run(c.name, func(t *testing.T) {
			lock, evnt := c.build(t, sim.Lockstep), c.build(t, sim.EventDriven)
			for _, b := range []*Bench{lock, evnt} {
				if _, err := b.Run(50_000_000); err != nil {
					t.Fatal(err)
				}
			}
			diffStates(t, "after the run", snapshot(t, lock), snapshot(t, evnt))
			// The runs must actually have carried the work: a handful of
			// delivered edges per unit boundary, not four per access.
			ls, es := lock.Shell.Eng.Stats(), evnt.Shell.Eng.Stats()
			if es.EdgesDelivered*10 > ls.EdgesDelivered {
				t.Errorf("event scheduler delivered %d of lockstep's %d edges: hit runs did not carry the work",
					es.EdgesDelivered, ls.EdgesDelivered)
			}
		})
	}
}

// planned reports whether the sequencer's hit-run plan is at its current
// unit, so that its next ask is answered from the plan if the table
// generation still holds.
func planned(s *copro.Seq) bool {
	v := reflect.ValueOf(s).Elem()
	return v.FieldByName("plan").FieldByName("unit").Int() == v.FieldByName("unit").Int()
}

// TestHitRunPartialWindow consumes a random part of each advertised hit-run
// window through the core's SkipEdges and requires exactly the state the
// edge FSMs reach over the same edges — k core edges and a random number of
// the IMU edges before the core's next one, then the rest of those —
// including an access left mid-handshake; then runs both benches to
// completion and compares again. At every step the
// skipped bench's window answer, which after a skip comes from the plan the
// skip left, must equal the reference sequencer's: the reference never
// skips, so its plan never outlives the unit it was found at, and its first
// answer at each unit is a fresh walk.
func TestHitRunPartialWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range hitCases() {
		t.Run(c.name, func(t *testing.T) {
			skip, ref := c.build(t, sim.Lockstep), c.build(t, sim.Lockstep)
			for _, b := range []*Bench{skip, ref} {
				b.IMU.Start()
			}
			seq := skip.Core
			ratio := reflect.ValueOf(ref.Shell.Slots[0]).Elem().FieldByName("div").Int()
			windows, fromPlan := 0, 0
			for steps := 0; !ref.IMU.DonePending() && steps < 10_000_000; steps++ {
				if ref.IMU.FaultPending() {
					t.Fatal("unexpected fault")
				}
				if planned(seq) && !planned(ref.Core) {
					fromPlan++
				}
				// Take hit-run windows only: the core's other windows
				// defer an inert drain step, which no component observes.
				// A window starts at the core's next edge; skip it only
				// from the IMU edge just before, so that after the skip
				// the skipped bench's next edge is the core's.
				w := seq.IdleEdges()
				if want := ref.Core.RunEdges(); seq.RunEdges() != want {
					t.Fatalf("after %d windows: the window answer is %d edges, a fresh walk finds %d",
						windows, seq.RunEdges(), want)
				}
				if w <= 0 || w != seq.RunEdges() || (ref.Shell.Dom.Cycles()+1)%ratio != 0 {
					skip.Shell.Step()
					ref.Shell.Step()
					continue
				}
				windows++
				k := 1 + rng.Int63n(w)
				// The IMU's edges go on while the core sleeps through the
				// window, as in a shell slot: its channel idles, and the
				// core then catches up, at its k-th edge or at a later IMU
				// edge before its next one (m IMU edges past it), as when
				// the OS stops the shell there. The shell then delivers
				// the channel's edges up to the core's next one.
				m := rng.Int63n(ratio)
				split := (k-1)*ratio + 1 + m
				for i := int64(0); i < split; i++ {
					skip.IMU.Eval()
					skip.IMU.Update()
				}
				seq.SkipEdges(k)
				for stage, rest := range []int64{split, ratio - 1 - m} {
					if stage > 0 {
						for i := int64(0); i < rest; i++ {
							skip.IMU.Eval()
							skip.IMU.Update()
						}
					}
					for target := ref.Shell.Dom.Cycles() + rest; ref.Shell.Dom.Cycles() < target; {
						ref.Shell.Step()
					}
					want, got := snapshot(t, ref), snapshot(t, skip)
					want.Cycles = got.Cycles
					diffStates(t, fmt.Sprintf("window %d, %d of %d edges, woken %d IMU edges on, stage %d",
						windows, k, w, m, stage), want, got)
					if t.Failed() {
						return
					}
				}
			}
			if windows == 0 {
				t.Fatal("no hit-run window was advertised")
			}
			if fromPlan == 0 {
				t.Fatal("no window was answered from a plan")
			}
			if !skip.IMU.DonePending() {
				t.Fatal("the skipped bench did not finish with the reference")
			}
			want, got := snapshot(t, ref), snapshot(t, skip)
			want.Cycles = got.Cycles
			diffStates(t, "at completion", want, got)
		})
	}
}

// TestNoHitRunWithoutService checks that a core whose port is not wired to
// a hit service never advertises a run: its windows are exactly the edge
// FSM's.
func TestNoHitRunWithoutService(t *testing.T) {
	b := vecaddCase(64).build(t, sim.Lockstep)
	b.Port.ServeHits(nil, nil, 0, 0)
	b.IMU.Start()
	for !b.IMU.DonePending() {
		if w := b.Core.IdleEdges(); w > 0 && w < sim.IdleForever {
			t.Fatalf("unwired: advertised a %d-edge window", w)
		}
		b.Shell.Step()
	}
}

// BenchmarkHitRun executes each hit-run case's core once per op on a mapped
// bench, as hit runs (event scheduler) and through the edge FSMs alone
// (lockstep). It reports host ns per executed unit and per translated
// access, delivered edges per op and simulated edges per op (delivered +
// skipped, the same for both paths).
func BenchmarkHitRun(b *testing.B) {
	for _, c := range hitCases() {
		for _, path := range []struct {
			name  string
			sched sim.Scheduler
		}{{"run", sim.EventDriven}, {"edge", sim.Lockstep}} {
			b.Run(c.name+"/"+path.name, func(b *testing.B) {
				bench := c.build(b, path.sched)
				params, err := bench.DP.ReadB(0)
				if err != nil {
					b.Fatal(err)
				}
				exec := func() {
					// The core releases the parameter page at start-up.
					if err := bench.SetParams(params); err != nil {
						b.Fatal(err)
					}
					if _, err := bench.Run(50_000_000); err != nil {
						b.Fatal(err)
					}
				}
				exec() // warm the DP RAM pages and the table
				// A second bench held at CP_FIN shows how many units a run
				// executes (the sequencer forgets once the OS acknowledges).
				probe := c.build(b, path.sched)
				if _, err := probe.RunToFin(50_000_000); err != nil {
					b.Fatal(err)
				}
				units := reflect.ValueOf(probe.Core).Elem().FieldByName("units").Int()
				st0, acc0 := bench.Shell.Eng.Stats(), bench.IMU.Count.Accesses
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					exec()
				}
				b.StopTimer()
				st, acc := bench.Shell.Eng.Stats(), bench.IMU.Count.Accesses
				n := float64(b.N)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(units)), "ns/unit")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acc-acc0), "ns/access")
				b.ReportMetric(float64(st.EdgesDelivered-st0.EdgesDelivered)/n, "edges/op")
				b.ReportMetric(float64(st.EdgesDelivered+st.EdgesSkipped-st0.EdgesDelivered-st0.EdgesSkipped)/n, "sim-edges/op")
			})
		}
	}
}
