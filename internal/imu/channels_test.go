package imu

import (
	"testing"

	"repro/internal/copro"
	"repro/internal/mem"
	"repro/internal/sim"
)

// multiRig bundles a two-channel IMU fixture: two scripted drivers on two
// ports of one IMU over one shared dual-port RAM.
type multiRig struct {
	eng   *sim.Engine
	dom   *sim.Domain
	dp    *mem.DPRAM
	imu   *IMU
	ports [2]*copro.Port
	drv   [2]*tbDriver
}

func newMultiRig(t *testing.T, scripts [2][]tbOp) *multiRig {
	t.Helper()
	dp, err := mem.NewDPRAM(16*1024, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	u, err := New(Config{PageShift: 11, Entries: 8, Mode: MultiCycle}, dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SetChannels(2); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	dom := eng.NewDomain("imu", 40_000_000)
	r := &multiRig{eng: eng, dom: dom, dp: dp, imu: u}
	for i := 0; i < 2; i++ {
		port := copro.NewPort()
		u.BindCh(i, port)
		drv := &tbDriver{mem: copro.NewMem(port), dom: dom, script: scripts[i]}
		dom.Attach(drv)
		r.ports[i] = port
		r.drv[i] = drv
	}
	dom.Attach(u)
	return r
}

// mapSess installs a session-tagged TLB entry at index == frame.
func (r *multiRig) mapSess(t *testing.T, sess, obj uint8, vpage uint32, frame uint8) {
	t.Helper()
	if err := r.imu.SetEntry(int(frame), TLBEntry{
		Valid: true, Sess: sess, Obj: obj, VPage: vpage, Frame: frame,
	}); err != nil {
		t.Fatal(err)
	}
}

func (r *multiRig) runUntil(t *testing.T, done func() bool) {
	t.Helper()
	if _, err := r.eng.RunUntil(done, 100000); err != nil {
		t.Fatalf("simulation did not converge: %v", err)
	}
}

// TestChannelsTranslateSameObjectIndependently drives the same virtual
// address (object 0, offset 0x10) from both channels: the session-tagged
// CAM must resolve each to its own frame, so the channels read different
// data from the shared memory.
func TestChannelsTranslateSameObjectIndependently(t *testing.T) {
	r := newMultiRig(t, [2][]tbOp{
		{{obj: 0, addr: 0x10, size: copro.Size32}},
		{{obj: 0, addr: 0x10, size: copro.Size32}},
	})
	r.mapSess(t, 0, 0, 0, 2)
	r.mapSess(t, 1, 0, 0, 5)
	if err := r.dp.WriteB(r.dp.PageBase(2)+0x10, 0x11111111, 0xf); err != nil {
		t.Fatal(err)
	}
	if err := r.dp.WriteB(r.dp.PageBase(5)+0x10, 0x22222222, 0xf); err != nil {
		t.Fatal(err)
	}
	r.runUntil(t, func() bool {
		return len(r.drv[0].results) == 1 && len(r.drv[1].results) == 1
	})
	if got := r.drv[0].results[0].data; got != 0x11111111 {
		t.Fatalf("channel 0 read %#x, want 0x11111111", got)
	}
	if got := r.drv[1].results[0].data; got != 0x22222222 {
		t.Fatalf("channel 1 read %#x, want 0x22222222", got)
	}
	if c0, c1 := r.imu.ChCounters(0), r.imu.ChCounters(1); c0.Hits != 1 || c1.Hits != 1 {
		t.Fatalf("per-channel hits = %d/%d, want 1/1", c0.Hits, c1.Hits)
	}
	if r.imu.Count.Hits != 2 || r.imu.Count.Accesses != 2 {
		t.Fatalf("global counters = %+v, want 2 hits / 2 accesses", r.imu.Count)
	}
	if r.imu.Count.Faults != 0 {
		t.Fatalf("unexpected faults: %d", r.imu.Count.Faults)
	}
}

// TestChannelFaultIsolation lets channel 1 fault while channel 0 keeps
// translating: the fault must land in channel 1's register bank only, the
// shared IRQ line must assert, and a channel-1 restart after the OS fixes
// the table must complete the stalled access without disturbing channel 0.
func TestChannelFaultIsolation(t *testing.T) {
	var script0 []tbOp
	for i := 0; i < 4; i++ {
		script0 = append(script0, tbOp{obj: 0, addr: uint32(4 * i), size: copro.Size32})
	}
	r := newMultiRig(t, [2][]tbOp{
		script0,
		{{obj: 3, addr: 0x24, size: copro.Size32}}, // unmapped: faults
	})
	r.mapSess(t, 0, 0, 0, 1)
	r.runUntil(t, func() bool { return r.imu.FaultPendingCh(1) })

	if r.imu.FaultPendingCh(0) {
		t.Fatal("fault leaked into channel 0's bank")
	}
	if !r.imu.IRQ() {
		t.Fatal("shared IRQ line not asserted")
	}
	if obj := uint8(r.imu.ARCh(1) >> 24); obj != 3 {
		t.Fatalf("AR bank 1 decodes object %d, want 3", obj)
	}
	if addr := r.imu.ARCh(1) & 0xffffff; addr != 0x24 {
		t.Fatalf("AR bank 1 decodes address %#x, want 0x24", addr)
	}
	// The banked register window exposes the same values.
	sr, err := r.imu.RegRead(RegBank(1) + RegSR)
	if err != nil {
		t.Fatal(err)
	}
	if sr&SRFault == 0 {
		t.Fatal("banked SR read missed the fault bit")
	}
	// Channel 0 keeps completing accesses while channel 1 stalls.
	r.runUntil(t, func() bool { return len(r.drv[0].results) == 4 })
	if got := r.imu.ChCounters(1).Accesses; got != 0 {
		t.Fatalf("stalled channel completed %d accesses", got)
	}

	// OS service: map the page for session 1 and restart via the bank's CR.
	r.mapSess(t, 1, 3, 0, 6)
	if err := r.dp.WriteB(r.dp.PageBase(6)+0x24, 0xfeed, 0xf); err != nil {
		t.Fatal(err)
	}
	if err := r.imu.RegWrite(RegBank(1)+RegCR, CRRestart); err != nil {
		t.Fatal(err)
	}
	r.runUntil(t, func() bool { return len(r.drv[1].results) == 1 })
	if got := r.drv[1].results[0].data; got != 0xfeed {
		t.Fatalf("restarted access read %#x, want 0xfeed", got)
	}
	if f := r.imu.ChCounters(0).Faults; f != 0 {
		t.Fatalf("channel 0 counted %d faults", f)
	}
	if f := r.imu.ChCounters(1).Faults; f != 1 {
		t.Fatalf("channel 1 counted %d faults, want 1", f)
	}
}

// TestParamFreePerChannel asserts that a parameter-page invalidation pulse
// on one channel invalidates only that session's parameter entry and sets
// only that channel's status bit.
func TestParamFreePerChannel(t *testing.T) {
	r := newMultiRig(t, [2][]tbOp{nil, nil})
	r.drv[1].pinv = true
	r.mapSess(t, 0, copro.ParamObj, 0, 0)
	r.mapSess(t, 1, copro.ParamObj, 0, 4)
	r.runUntil(t, func() bool { return r.imu.ParamFreeCh(1) })
	if r.imu.ParamFreeCh(0) {
		t.Fatal("param-free leaked into channel 0")
	}
	if !r.imu.Entry(0).Valid {
		t.Fatal("session 0's parameter entry was invalidated")
	}
	if r.imu.Entry(4).Valid {
		t.Fatal("session 1's parameter entry survived the pulse")
	}
	if n := r.imu.ChCounters(1).ParamFrees; n != 1 {
		t.Fatalf("channel 1 ParamFrees = %d, want 1", n)
	}
}

// TestInvalidateSessionClearsOnlyOwnSlice pins the table-segmentation
// contract used by the VIM's per-session Finish.
func TestInvalidateSessionClearsOnlyOwnSlice(t *testing.T) {
	r := newMultiRig(t, [2][]tbOp{nil, nil})
	r.mapSess(t, 0, 0, 0, 1)
	r.mapSess(t, 0, 1, 0, 2)
	r.mapSess(t, 1, 0, 0, 5)
	r.imu.InvalidateSession(0)
	if r.imu.Entry(1).Valid || r.imu.Entry(2).Valid {
		t.Fatal("session 0 entries survived InvalidateSession(0)")
	}
	if !r.imu.Entry(5).Valid {
		t.Fatal("session 1 entry was clobbered by InvalidateSession(0)")
	}
}

// TestSetChannelsValidation pins the channel-count bounds and the register
// bank bounds check.
func TestSetChannelsValidation(t *testing.T) {
	dp, _ := mem.NewDPRAM(16*1024, 2*1024)
	u, err := New(Config{PageShift: 11, Entries: 8}, dp)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.SetChannels(0); err == nil {
		t.Fatal("accepted zero channels")
	}
	if err := u.SetChannels(MaxChannels + 1); err == nil {
		t.Fatal("accepted too many channels")
	}
	if u.Channels() != 1 {
		t.Fatalf("channel count = %d after rejected reconfigurations, want 1", u.Channels())
	}
	if _, err := u.RegRead(RegBank(3) + RegSR); err == nil {
		t.Fatal("read from an unconfigured bank succeeded")
	}
	if err := u.RegWrite(RegBank(3)+RegCR, CRStart); err == nil {
		t.Fatal("write to an unconfigured bank succeeded")
	}
}

// TestPackUnpackSessionTag round-trips the session tag through the TLBLo
// register encoding.
func TestPackUnpackSessionTag(t *testing.T) {
	e := TLBEntry{Valid: true, Sess: 5, Obj: 7, VPage: 3, Frame: 2}
	var got TLBEntry
	unpackLo(packLo(e), &got)
	if got.Sess != 5 || got.Obj != 7 || got.VPage != 3 || !got.Valid {
		t.Fatalf("round-trip lost fields: %+v", got)
	}
}

// TestLastUseStampsOrderEdgeThenChannel drives one access from each channel
// on the same edges: both translate at one IMU edge, so their stamps carry
// that edge and differ only in the channel index, channel 0's first — the
// order in which the channels translate within the edge.
func TestLastUseStampsOrderEdgeThenChannel(t *testing.T) {
	r := newMultiRig(t, [2][]tbOp{
		{{obj: 0, addr: 0x10, size: copro.Size32}},
		{{obj: 0, addr: 0x10, size: copro.Size32}},
	})
	r.mapSess(t, 0, 0, 0, 2)
	r.mapSess(t, 1, 0, 0, 5)
	r.runUntil(t, func() bool { return len(r.drv[0].results) == 1 && len(r.drv[1].results) == 1 })
	s0, s1 := r.imu.Entry(2).LastUse, r.imu.Entry(5).LastUse
	if s0>>chanBits == 0 || s0>>chanBits != s1>>chanBits {
		t.Fatalf("stamps %#x and %#x: want one nonzero edge for both", s0, s1)
	}
	if s0&(1<<chanBits-1) != 0 || s1&(1<<chanBits-1) != 1 || s0 >= s1 {
		t.Fatalf("stamps %#x and %#x: want channel 0 then channel 1 in the low bits", s0, s1)
	}
	if edge := int64(s0 >> chanBits); edge > r.imu.edge {
		t.Fatalf("stamped edge %d lies beyond the IMU's %d edges", edge, r.imu.edge)
	}
}

// TestSessionGenerations pins which table writes bump which session's
// generation (copro.HitService.Gen), the key of a core's hit-run plan: a
// write that may change what a session's lookups match bumps that session
// and no other, and a hit, delivered or run, bumps none.
func TestSessionGenerations(t *testing.T) {
	r := newMultiRig(t, [2][]tbOp{
		{{obj: 0, addr: 0x10, size: copro.Size32}, {wr: true, obj: 0, addr: 0x14, size: copro.Size32, val: 7}},
		{{obj: 0, addr: 0x10, size: copro.Size32}},
	})
	svc := [2]copro.HitService{r.imu.HitService(0), r.imu.HitService(1)}
	gens := func() [2]uint64 { return [2]uint64{svc[0].Gen(), svc[1].Gen()} }
	expect := func(what string, before [2]uint64, bumped0, bumped1 bool) {
		t.Helper()
		got := gens()
		for i, bumped := range []bool{bumped0, bumped1} {
			if changed := got[i] != before[i]; changed != bumped {
				t.Errorf("%s: session %d generation %d -> %d, want bumped=%v", what, i, before[i], got[i], bumped)
			}
		}
	}

	g := gens()
	r.mapSess(t, 0, 0, 0, 2)
	expect("mapping a free entry for session 0", g, true, false)

	g = gens()
	if err := r.imu.SetEntry(2, TLBEntry{Valid: true, Sess: 1, Obj: 0, VPage: 0, Frame: 2}); err != nil {
		t.Fatal(err)
	}
	expect("session 1 stealing session 0's entry", g, true, true)

	g = gens()
	r.mapSess(t, 0, 0, 0, 3)
	r.mapSess(t, 0, 1, 0, 4)
	expect("mapping more entries for session 0", g, true, false)

	g = gens()
	r.imu.InvalidateSession(0)
	expect("InvalidateSession(0)", g, true, false)

	g = gens()
	r.imu.InvalidateAll()
	expect("InvalidateAll", g, true, true)

	r.mapSess(t, 0, 0, 0, 2)
	r.mapSess(t, 1, 0, 0, 5)
	g = gens()
	r.runUntil(t, func() bool { return len(r.drv[0].results) == 2 && len(r.drv[1].results) == 1 })
	if n := r.imu.Count.Hits; n != 3 {
		t.Fatalf("%d hits on the edge path, want 3", n)
	}
	expect("hits on the edge path", g, false, false)

	e := svc[0].Hits(0, 0x20)
	if e != 2 {
		t.Fatalf("Hits(0, 0x20) = %d, want entry 2", e)
	}
	svc[0].Access(r.imu.edge+4, e, 0, 0x20, copro.Size32, true, 9)
	svc[0].Access(r.imu.edge+8, e, 0, 0x20, copro.Size32, false, 0)
	svc[0].Finish()
	if d := r.imu.Entry(e); !d.Dirty || !d.Ref {
		t.Fatalf("entry after the run's accesses: %+v, want Dirty and Ref", d)
	}
	expect("a hit run's accesses", g, false, false)
}
