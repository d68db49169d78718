package copro

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestPortTwoPhaseIsolation(t *testing.T) {
	p := NewPort()
	*p.StageCP() = CPOut{Access: true, Obj: 3}
	if p.CP().Access {
		t.Fatal("StageCP visible before CommitCP")
	}
	p.CommitCP()
	if !p.CP().Access || p.CP().Obj != 3 {
		t.Fatal("CommitCP lost data")
	}
	p.SetIMU(IMUOut{TLBHit: true, DIn: 7})
	if p.IMU().TLBHit {
		t.Fatal("SetIMU visible before CommitIMU")
	}
	p.CommitIMU()
	if !p.IMU().TLBHit || p.IMU().DIn != 7 {
		t.Fatal("CommitIMU lost data")
	}
	p.Reset()
	if p.CP().Access || p.IMU().TLBHit {
		t.Fatal("Reset did not quiesce the port")
	}
}

func TestMemHandshakeProtocol(t *testing.T) {
	p := NewPort()
	m := NewMem(p)
	if !m.Ready() || m.state != memIdle {
		t.Fatal("fresh helper not idle")
	}

	// Issue a read; the request must be driven and held.
	m.Step()
	m.Read(4, 0x20, Size32)
	m.Drive(false, false)
	m.Commit()
	cp := p.CP()
	if !cp.Access || cp.Obj != 4 || cp.Addr != 0x20 || cp.Wr {
		t.Fatalf("driven request wrong: %+v", cp)
	}
	if m.Ready() {
		t.Fatal("helper idle with request in flight")
	}

	// A few cycles with no hit: request stays up, WaitCycles counts.
	for i := 0; i < 3; i++ {
		m.Step()
		m.Drive(false, false)
		m.Commit()
	}
	if !p.CP().Access {
		t.Fatal("request dropped early")
	}
	if m.WaitCycles == 0 {
		t.Fatal("wait cycles not counted")
	}

	// The IMU answers: data consumed this edge, request drops.
	p.SetIMU(IMUOut{TLBHit: true, DIn: 0xabcd})
	p.CommitIMU()
	m.Step()
	if !m.Completed() || m.Data() != 0xabcd {
		t.Fatal("response not consumed")
	}
	m.Drive(false, false)
	m.Commit()
	if p.CP().Access {
		t.Fatal("request still asserted after consume")
	}

	// Helper waits for the hit line to fall before going idle.
	m.Step()
	if m.Ready() {
		t.Fatal("helper idle while TLBHIT still high")
	}
	p.SetIMU(IMUOut{})
	p.CommitIMU()
	m.Step()
	if !m.Ready() {
		t.Fatal("helper not idle after drain")
	}
	if m.Reads != 1 {
		t.Fatalf("read counter = %d", m.Reads)
	}
}

func TestMemWriteCarriesData(t *testing.T) {
	p := NewPort()
	m := NewMem(p)
	m.Step()
	m.Write(2, 0x10, Size16, 0xbeef)
	m.Drive(true, true)
	m.Commit()
	cp := p.CP()
	if !cp.Wr || cp.DOut != 0xbeef || cp.Size != Size16 {
		t.Fatalf("write request wrong: %+v", cp)
	}
	if !cp.Fin || !cp.ParamInv {
		t.Fatal("Drive flags not carried")
	}
	if m.Writes != 1 {
		t.Fatalf("write counter = %d", m.Writes)
	}
}

func TestMemPanicsOnDoubleIssue(t *testing.T) {
	p := NewPort()
	m := NewMem(p)
	m.Step()
	m.Read(0, 0, Size32)
	defer func() {
		if recover() == nil {
			t.Fatal("double issue did not panic")
		}
	}()
	m.Read(0, 4, Size32)
}

func TestMemReset(t *testing.T) {
	p := NewPort()
	m := NewMem(p)
	m.Step()
	m.Read(0, 0, Size32)
	m.resetMem()
	if !m.Ready() {
		t.Fatal("resetMem did not return to idle")
	}
}

// byValueMem is the handshake helper's output side as it was before
// in-place staging: a private copy of the request fields, a dirty flag,
// and a Drive that schedules the whole bundle by value whenever the copy
// diverged or CP_FIN/CP_PINV changed. It drives its own register, cp,
// standing in for the port.
type byValueMem struct {
	cp                           sim.Reg[CPOut]
	out                          CPOut
	drivenFin, drivenPinv, dirty bool
	state                        memState
	data                         uint32
	completed                    bool
	waitCycles                   uint64
}

func newByValueMem() *byValueMem { return &byValueMem{dirty: true} }

func (m *byValueMem) step(in IMUOut) {
	m.completed = false
	switch m.state {
	case memIssue:
		if in.TLBHit {
			m.data = in.DIn
			m.out.Access = false
			m.out.Wr = false
			m.dirty = true
			m.state = memDrain
			m.completed = true
		} else {
			m.waitCycles++
		}
	case memDrain:
		if !in.TLBHit {
			m.state = memIdle
		}
	}
}

func (m *byValueMem) issue(obj uint8, addr uint32, size uint8, wr bool, v uint32) {
	m.dirty = true
	m.out = CPOut{Obj: obj, Addr: addr, Size: size, Wr: wr, DOut: v, Access: true}
	m.state = memIssue
}

func (m *byValueMem) drive(fin, paramInv bool) {
	if !m.dirty && fin == m.drivenFin && paramInv == m.drivenPinv {
		return
	}
	m.dirty = false
	m.drivenFin, m.drivenPinv = fin, paramInv
	out := m.out
	out.Fin = fin
	out.ParamInv = paramInv
	m.cp.Set(out)
}

func (m *byValueMem) reset() {
	m.state = memIdle
	m.out = CPOut{}
	m.completed = false
	m.drivenFin, m.drivenPinv = m.cp.Get().Fin, m.cp.Get().ParamInv
	m.dirty = true
}

func (m *byValueMem) quiet() bool { return m.state != memIssue && !m.dirty && !m.drivenPinv }

func (m *byValueMem) stalled(in IMUOut) bool {
	if m.dirty || m.drivenPinv {
		return false
	}
	return m.state == memIssue && !in.TLBHit || m.state == memDrain && in.TLBHit
}

// TestMemStagingMatchesByValueDrive runs a long random sequence of edges
// — IMU responses, requests, CP_FIN and CP_PINV changes, resets inside and
// outside an edge — through the staging helper and the by-value reference,
// and requires the same committed bundle, the same commit-or-not decision
// (which is what invalidates the IMU's horizon) and the same handshake
// observations after every edge.
func TestMemStagingMatchesByValueDrive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := NewPort()
	m := NewMem(p)
	ref := newByValueMem()
	var fin bool
	for edge := 0; edge < 20000; edge++ {
		in := IMUOut{Start: true, TLBHit: rng.Intn(3) == 0, DIn: rng.Uint32()}
		p.SetIMU(in)
		p.CommitIMU()

		m.Step()
		ref.step(in)
		if rng.Intn(40) == 0 {
			m.resetMem()
			ref.reset()
		}
		if m.Ready() && rng.Intn(2) == 0 {
			obj, addr, size := uint8(rng.Intn(4)), uint32(rng.Intn(1<<12)), uint8(1<<rng.Intn(3))
			if rng.Intn(2) == 0 {
				v := rng.Uint32()
				m.Write(obj, addr, size, v)
				ref.issue(obj, addr, size, true, v)
			} else {
				m.Read(obj, addr, size)
				ref.issue(obj, addr, size, false, 0)
			}
		}
		if rng.Intn(8) == 0 {
			fin = !fin
		}
		pinv := rng.Intn(10) == 0
		m.Drive(fin, pinv)
		ref.drive(fin, pinv)

		staged := p.cp.Pending()
		m.Commit()
		if refStaged := ref.cp.Commit(); staged != refStaged {
			t.Fatalf("edge %d: committed %v, by-value Drive committed %v", edge, staged, refStaged)
		}
		if rng.Intn(60) == 0 { // a reset between edges, as a slot reload does
			m.resetMem()
			ref.reset()
		}
		if got, want := p.CP(), ref.cp.Get(); got != want {
			t.Fatalf("edge %d: committed bundle %+v, want %+v", edge, got, want)
		}
		if m.Completed() != ref.completed || m.Data() != ref.data || m.state != ref.state ||
			m.WaitCycles != ref.waitCycles || m.quiet() != ref.quiet() || m.stalled() != ref.stalled(in) {
			t.Fatalf("edge %d: handshake state diverged from the by-value reference", edge)
		}
	}
}

// countingPub is an IMU stand-in for horizon tests: it publishes nothing
// itself and counts how often the engine re-queries its idleness.
type countingPub struct {
	hz      sim.Horizon
	queries int
}

func (c *countingPub) Eval()                 {}
func (c *countingPub) Update()               {}
func (c *countingPub) IdleEdges() int64      { c.queries++; return sim.IdleForever }
func (c *countingPub) SkipEdges(int64)       {}
func (c *countingPub) Horizon() *sim.Horizon { return &c.hz }

// TestMemUnchangedDriveKeepsHorizon checks that an edge whose Drive
// changes nothing leaves the port unpending, so the horizon wired to the
// port's coprocessor-side notice stays valid, while an edge that issues a
// request invalidates it.
func TestMemUnchangedDriveKeepsHorizon(t *testing.T) {
	e := sim.NewEngine()
	d := e.NewDomain("imu", 1_000_000)
	pub := &countingPub{}
	d.Attach(pub)
	p := NewPort()
	p.WatchCP(pub.Horizon())
	m := NewMem(p)
	edge := func(issue bool) {
		m.Step()
		if issue {
			m.Read(1, 0x40, Size32)
		}
		m.Drive(false, false)
		m.Commit()
	}
	edge(false) // commits the bundle NewMem staged
	d.IdleEdges()
	if pub.queries != 1 {
		t.Fatalf("%d horizon queries, want 1", pub.queries)
	}
	for i := 0; i < 3; i++ {
		edge(false)
		if p.cp.Pending() {
			t.Fatal("unchanged Drive left the port pending")
		}
		d.IdleEdges()
	}
	if pub.queries != 1 {
		t.Fatalf("unchanged edges re-queried the horizon: %d queries, want 1", pub.queries)
	}
	edge(true)
	d.IdleEdges()
	if pub.queries != 2 {
		t.Fatalf("a committed request did not invalidate the horizon: %d queries, want 2", pub.queries)
	}
}
