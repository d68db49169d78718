package copro

// Mem is the handshake helper Seq (and a testbench driving a port by hand)
// uses to issue virtual-address accesses over a Port. It implements the
// request/acknowledge protocol of §3.2: assert CP_ACCESS with a stable
// request, wait for CP_TLBHIT (which arrives four IMU cycles later in the
// multi-cycle implementation, or stays low indefinitely while the OS
// services a fault), consume the data, drop the request, and wait for the
// hit line to fall before issuing again.
//
// Usage inside a ticker, each clock edge:
//
//	Eval:   m.Step()                  // advance the handshake
//	        if m.Completed() { ... }  // response consumed this edge
//	        if m.Ready()     { m.Read(...) or m.Write(...) }
//	        m.Drive(fin, paramInv)    // schedule port outputs
//	Update: m.Commit()
//
// The helper keeps no copy of the bundle: Read, Write, the consume in Step,
// Drive and resetMem edit the port's staged bundle in place (Port.StageCP),
// so only the fields an edge changes are written. An edge that changes
// nothing leaves the port unpending, its Commit is a no-op, and the IMU's
// published horizon stays valid.
type Mem struct {
	port *Port
	// drivenFin and drivenPinv mirror CP_FIN and CP_PINV in the staged (or,
	// when nothing is staged, committed) bundle, so Drive stages only on
	// the edges where either changes.
	drivenFin  bool
	drivenPinv bool

	state     memState
	data      uint32
	completed bool

	// Counters for reports and tests.
	Reads, Writes uint64
	WaitCycles    uint64
}

type memState uint8

const (
	memIdle memState = iota
	memIssue
	memDrain
)

// NewMem returns a helper bound to port. It stages the quiescent bundle
// (see resetMem), so the first Commit always lands, even onto a port left
// non-quiescent by a previous owner.
func NewMem(port *Port) *Mem {
	m := &Mem{port: port}
	m.resetMem()
	return m
}

// Step advances the handshake; call first in Eval. It is kept within the
// compiler's inlining budget: it runs on every edge of every core.
func (m *Mem) Step() {
	in := m.port.imu.Ref()
	m.completed = m.state == memIssue && in.TLBHit
	if m.completed {
		m.data = in.DIn
		out := m.port.cp.Stage()
		out.Access, out.Wr = false, false
		m.state = memDrain
	} else if m.state == memIssue {
		m.WaitCycles++
	} else if !in.TLBHit {
		m.state = memIdle // a drain ends; an idle handshake stays idle
	}
}

// Ready reports whether a new request may be issued this edge.
func (m *Mem) Ready() bool { return m.state == memIdle }

// quiet reports that the handshake is at rest for idle-skip purposes: no
// request is in flight (a request in flight counts WaitCycles every edge,
// so those edges are not inert) and no output change is waiting to be
// committed — neither a staged bundle (resetMem outside a clock edge) nor
// the one-edge CP_PINV pulse, which the next Drive lowers. A drain in
// progress — waiting for CP_TLBHIT to fall — is quiet: its only pending
// transition is internal, commits nothing to the port, and happens at
// whichever delivered edge first observes the hit line low, so deferring
// it across a skipped window is unobservable.
func (m *Mem) quiet() bool { return m.state != memIssue && !m.port.cp.Pending() && !m.drivenPinv }

// stalled reports that the handshake is parked on the IMU with no output
// change scheduled (CP_PINV low included): a request whose CP_TLBHIT has
// not risen yet, or a consumed response whose hit line has not fallen yet.
// Each such edge only counts a wait cycle (or nothing, while draining), and
// the stall ends only when the IMU commits a new CP_TLBHIT — an
// idle-until-input window (sim.IdleForever), provided the core's FSM
// is itself gated on the handshake (Completed or Ready) while it lasts.
// skipEdges replays the wait cycles.
func (m *Mem) stalled() bool {
	if m.port.cp.Pending() || m.drivenPinv {
		return false
	}
	hit := m.port.IMURef().TLBHit
	return m.state == memIssue && !hit || m.state == memDrain && hit
}

// skipEdges accounts k edges consumed in bulk while stalled or quiet: a
// request in flight counts each as a wait cycle, exactly as delivered edges
// would; nothing else carries per-edge state.
func (m *Mem) skipEdges(k int64) {
	if m.state == memIssue {
		m.WaitCycles += uint64(k)
	}
}

// Completed reports whether a response was consumed on this edge; for reads
// Data then holds the value.
func (m *Mem) Completed() bool { return m.completed }

// Data returns the data of the most recently completed read. Sub-word
// values arrive lane-aligned (already shifted to bit 0 by the IMU).
func (m *Mem) Data() uint32 { return m.data }

// Read issues a read of size bytes at byte offset addr of object obj.
// It must only be called when Ready.
func (m *Mem) Read(obj uint8, addr uint32, size uint8) {
	if m.state != memIdle {
		panic("copro: Read while busy")
	}
	m.Reads++
	m.issue(obj, addr, size, false, 0)
}

// Write issues a write of size bytes at byte offset addr of object obj.
// It must only be called when Ready.
func (m *Mem) Write(obj uint8, addr uint32, size uint8, v uint32) {
	if m.state != memIdle {
		panic("copro: Write while busy")
	}
	m.Writes++
	m.issue(obj, addr, size, true, v)
}

// issue stages a request and enters the issue state.
func (m *Mem) issue(obj uint8, addr uint32, size uint8, wr bool, v uint32) {
	out := m.port.StageCP()
	out.Obj = obj
	out.Addr = addr
	out.Size = size
	out.Wr = wr
	out.DOut = v
	out.Access = true
	m.state = memIssue
}

// Drive schedules this edge's CP_FIN and CP_PINV; call last in Eval. It
// stages the bundle only when either changes: the request fields were
// already staged by Read, Write or Step, and an unchanged pair would
// commit the identical bundle.
func (m *Mem) Drive(fin, paramInv bool) {
	if fin == m.drivenFin && paramInv == m.drivenPinv {
		return
	}
	m.drivenFin, m.drivenPinv = fin, paramInv
	out := m.port.StageCP()
	out.Fin = fin
	out.ParamInv = paramInv
}

// Commit commits the port outputs; call from Update.
func (m *Mem) Commit() { m.port.CommitCP() }

// resetMem returns the helper to idle (coprocessor reset) and stages the
// quiescent bundle, which the next Commit lands whatever the port held.
func (m *Mem) resetMem() {
	m.state = memIdle
	m.completed = false
	*m.port.StageCP() = CPOut{}
	m.drivenFin, m.drivenPinv = false, false
}
