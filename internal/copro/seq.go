package copro

import "repro/internal/sim"

// Program is a coprocessor core as the designer supplies it: the scalar
// parameters it reads at start-up and the loop it runs over its data, as a
// sequence of units. Seq generates the control around it — the §3.2
// handshake, CP_PINV, CP_FIN and the idle windows — so a core is only its
// parameter words, its unit steps and its kernel.
type Program interface {
	// Name identifies the core (matches its bitstream identity).
	Name() string
	// Param takes parameter word i, read from byte 4i of the parameter
	// page, and reports whether the core reads word i+1. Word 0 is read
	// at every start, before any unit, so the core resets its datapath
	// there.
	Param(i int, w uint32) (more bool)
	// Units is the number of units the parameters call for.
	Units() int
	// Unit describes unit i into u, which arrives empty: its steps in
	// the order the core performs them. A unit starts with an access, and
	// its reads come before its writes.
	Unit(i int, u *Unit)
	// Kernel runs the datapath over unit i, as Unit described it, with
	// the data of every read step filled in: it fills in the data of the
	// write steps. It advances only datapath state (a decoder's
	// predictor, a checksum); Seq keeps the loop position.
	Kernel(i int, u *Unit)
}

// Seq is the access sequencer: Figure 5's coprocessor FSM, generic over
// the Program it runs. On every clock edge it advances the handshake and
// its state — wait for CP_START, read the parameter words (raising CP_PINV
// with the last), then for each unit issue its accesses and count down its
// compute steps, and finally hold CP_FIN until the OS drops CP_START.
// Dropping CP_START in any state resets it.
//
// The kernel runs before a unit's first write, or at the unit's end if it
// has no write. A compute step's counter is set on the edge that consumes
// the previous response and counts down one per edge; the next access
// issues on the edge after it reaches zero.
//
// Seq is a sim.BulkIdler: IdleEdges advertises the edges its FSM would
// provably no-op or purely count down, and — at the top of its loop on a
// port wired to a hit service — a hit run (RunEdges) that SkipEdges then
// executes in closed form.
type Seq struct {
	// Mem is the handshake over the bound port; its counters are the
	// core's access statistics. It leads, and the FSM fields every edge
	// reads follow it, so an edge touches few cache lines.
	Mem

	st   seqState
	ran  bool   // the kernel ran over the current unit
	run  bool   // the last IdleEdges answer was a hit run
	left uint32 // compute cycles left (seqCompute)
	step int    // current step of cur

	// edge counts the core edges since Bind, delivered or skipped; edge0 is
	// the IMU's edge count at Bind (see HitService), so core edge j
	// coincides with IMU edge edge0 + j·r on a port wired at ratio r.
	edge, edge0 int64

	// cur is the current unit, described at its first issue. At the top
	// of the loop it is free, so hit runs describe into it.
	cur Unit
	// plan is the last hit-run window found (RunEdges).
	plan runPlan

	unit  int // absolute index of the current unit
	units int // Program.Units, latched after the parameters
	param int // index of the parameter word being read
	prog  Program
}

type seqState uint8

const (
	seqWaitStart seqState = iota
	seqParamIssue
	seqParamWait
	seqStepIssue
	seqStepWait
	seqCompute
	seqDone
)

// NewSeq returns a sequencer running p; Bind attaches it to a port.
func NewSeq(p Program) *Seq { return &Seq{prog: p} }

// Name is the Program's name.
func (s *Seq) Name() string { return s.prog.Name() }

// Bind attaches the port, zeroes the access counters and the edge count
// and resets the FSM to its power-on state, staging the quiescent bundle so
// the first Commit lands even onto a port left non-quiescent by a previous
// owner. Engine must be paused. On a port wired at ratio r, edge0 is
// aligned to the wire's phase: the IMU's edge count less the IMU edges
// since the last one a core edge could fall on, so that the core's j-th
// edge from here coincides with IMU edge edge0 + j·r wherever in its
// divisor's cycle the core was loaded.
func (s *Seq) Bind(p *Port) {
	s.Mem = Mem{port: p}
	s.edge, s.edge0 = 0, 0
	if w := p.hits; w != nil {
		s.edge0 = w.svc.Edge() - w.phase
	}
	s.reset()
}

// reset returns the FSM to its power-on state.
func (s *Seq) reset() {
	s.st = seqWaitStart
	s.step, s.left, s.ran = 0, 0, false
	s.unit, s.units, s.param = 0, 0, 0
	s.plan = runPlan{unit: -1}
	s.resetMem()
}

// Eval implements sim.Ticker.
func (s *Seq) Eval() {
	s.edge++
	in := s.port.IMURef()
	s.Step()
	pinv, stepDone := false, false
	if !in.Start && s.st != seqWaitStart {
		s.reset()
	}
	switch s.st {
	case seqWaitStart:
		if in.Start {
			s.st = seqParamIssue
		}
	case seqParamIssue:
		if s.Ready() {
			s.Read(ParamObj, uint32(4*s.param), Size32)
			s.st = seqParamWait
		}
	case seqParamWait:
		if s.Completed() {
			more := s.prog.Param(s.param, s.Data())
			s.param++
			s.st = seqParamIssue
			if !more {
				pinv = true
				s.units = s.prog.Units()
				s.st = seqStepIssue
				if s.units == 0 {
					s.st = seqDone
				}
			}
		}
	case seqStepIssue:
		if !s.Ready() {
			break
		}
		if s.step == 0 {
			s.cur.N = 0
			s.prog.Unit(s.unit, &s.cur)
		}
		st := &s.cur.Steps[s.step]
		if st.Kind == StepRead {
			s.Read(st.Obj, st.Addr, st.Size)
		} else {
			if !s.ran {
				s.prog.Kernel(s.unit, &s.cur)
				s.ran = true
			}
			s.Write(st.Obj, st.Addr, st.Size, st.Val)
		}
		s.st = seqStepWait
	case seqStepWait:
		if s.Completed() {
			if st := &s.cur.Steps[s.step]; st.Kind == StepRead {
				st.Val = s.Data()
			}
			stepDone = true
		}
	case seqCompute:
		s.left--
		stepDone = s.left == 0
	}
	if stepDone {
		// Move into the unit's next step or, past its end, run the kernel
		// if no write did and move to the next unit (CP_FIN after the last).
		s.step++
		s.st = seqStepIssue
		if s.step < s.cur.N {
			if st := &s.cur.Steps[s.step]; st.Kind == StepCompute {
				s.left, s.st = st.Cycles, seqCompute
			}
		} else {
			if !s.ran {
				s.prog.Kernel(s.unit, &s.cur)
			}
			s.step, s.ran = 0, false
			if s.unit++; s.unit >= s.units {
				s.st = seqDone
			}
		}
	}
	s.Drive(s.st == seqDone, pinv)
}

// Update implements sim.Ticker.
func (s *Seq) Update() { s.Commit() }

// IdleEdges implements sim.BulkIdler. At the top of its loop the sequencer
// advertises a hit run (RunEdges). Otherwise four windows qualify, each
// ended only by an IMU-domain commit (CP_START or CP_TLBHIT toggling) or
// by its own advertised countdown: a handshake stalled on the IMU in any
// issue or wait state, the wait for CP_START, a compute countdown (all but
// the edge that reaches zero, which moves on and must be delivered), and
// holding CP_FIN until the OS acknowledges.
func (s *Seq) IdleEdges() int64 {
	in := s.port.IMURef()
	s.run = false
	switch s.st {
	case seqStepIssue:
		if s.step == 0 && s.port.hits != nil {
			if w := s.RunEdges(); w > 0 {
				s.run = true
				return w
			}
		}
		if in.Start && s.stalled() {
			return sim.IdleForever
		}
	case seqParamIssue, seqParamWait, seqStepWait:
		if in.Start && s.stalled() {
			return sim.IdleForever
		}
	case seqWaitStart:
		if !in.Start && s.quiet() {
			return sim.IdleForever
		}
	case seqCompute:
		if s.left > 1 && in.Start && s.quiet() {
			return int64(s.left) - 1
		}
	case seqDone:
		if in.Start && s.quiet() && s.port.CPRef().Fin {
			return sim.IdleForever
		}
	}
	return 0
}

// SkipEdges implements sim.BulkIdler: a hit run executes its units, a
// skipped compute edge counts down, and a skipped stall edge counts a wait
// cycle, exactly as delivered edges would. The other windows carry no
// per-edge state. The kind of window is the last answer's, not the port's
// present state: a shell hands a sleeping core its edges only after the
// input that woke it has changed.
func (s *Seq) SkipEdges(k int64) {
	if s.run {
		s.run = false
		s.skipRun(k)
		return
	}
	s.edge += k
	s.skipEdges(k)
	if s.st == seqCompute {
		s.left -= uint32(k)
	}
}
