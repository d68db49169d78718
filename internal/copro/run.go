package copro

import "math"

// This file implements hit runs: the transaction-level path that moves a
// sequencer and its IMU channel through a TLB-resident stretch of the
// Program's loop in one step instead of one clock edge at a time.
//
// At the top of its loop the sequencer advertises the run from IdleEdges
// (RunEdges) and executes it from SkipEdges (skipRun), so the engine's
// bulk-skip, or a shell slot's sleep, carries it: the window is exactly
// the edges the sequencer's edge path would take, derived from the units'
// steps and the clock ratio, and the state it leaves is exactly the state
// those edges would leave.
// The edge path is the reference: the lockstep scheduler never asks for
// idleness and always runs it, and so does the event scheduler wherever a
// run cannot start (a miss, the last unit).
//
// A window costs a step per repeat and per page crossing, not per unit: a
// Program declares, with each unit it describes, how many units from it
// on repeat its shape with every access moved by the step's Stride, and
// within such a repeat every unit takes the same edges and an access can
// only start to miss where it enters a new page. RunEdges times the
// repeat's unit once and looks the TLB up only at page crossings; skipRun
// advances the previous unit's addresses by the strides instead of
// describing each unit again, and re-resolves its TLB entries only at a
// crossing. Nothing outlives a call: every ask walks afresh. A Program
// with irregular units declares one-unit repeats and takes the same path.
//
// A run may be executed late: a shell slot sleeps through its window while
// its neighbour keeps running, and executes the run when it wakes. Every
// access therefore goes to the hit service with the IMU edge at which the
// edge path would have translated it, derived from the core's own edge
// count and the IMU edge its edge 0 fell on (Bind). A run may also be cut
// short, when the OS stops the shell inside it: the units whose IMU edges
// have all been delivered run in closed form and the rest on the edge
// paths, up to the IMU's current edge; the shell delivers the channel's
// later edges itself.

// StepKind enumerates unit steps.
type StepKind uint8

const (
	// StepRead is a translated read; its data lands in Step.Val.
	StepRead StepKind = iota
	// StepWrite is a translated write of Step.Val, which the core's
	// kernel fills in.
	StepWrite
	// StepCompute is Step.Cycles core cycles of internal compute.
	StepCompute
)

// MaxSteps bounds a unit's step list.
const MaxSteps = 6

// Step is one step of a Unit.
type Step struct {
	Kind   StepKind
	Obj    uint8  // object identifier (reads and writes)
	Size   uint8  // access width in bytes (reads and writes)
	Addr   uint32 // byte offset within the object (reads and writes)
	Stride int32  // Addr's move from one unit of a repeat to the next
	Cycles uint32 // compute cycles (StepCompute)
	Val    uint32 // data read, or data to write
}

// Unit is one iteration of a Program's loop, in the order the sequencer
// performs it. It starts with an access, and every read precedes every
// write: the kernel runs between the last read and the first write.
type Unit struct {
	Steps [MaxSteps]Step
	N     int
}

// Read appends a translated read of size bytes at addr of object obj,
// which each later unit of the repeat reads stride bytes further on.
func (u *Unit) Read(obj uint8, addr uint32, size uint8, stride int32) {
	u.add(StepRead, obj, size, addr, stride, 0)
}

// Write appends a translated write of size bytes at addr of object obj,
// which each later unit of the repeat writes stride bytes further on.
func (u *Unit) Write(obj uint8, addr uint32, size uint8, stride int32) {
	u.add(StepWrite, obj, size, addr, stride, 0)
}

// Compute appends n cycles of internal compute (none for n = 0).
func (u *Unit) Compute(n uint32) {
	if n > 0 {
		u.add(StepCompute, 0, 0, 0, 0, n)
	}
}

// add appends a step field by field: a Step literal is built on the stack
// with narrow stores and copied with wide loads, which stall on store
// forwarding once per step.
func (u *Unit) add(kind StepKind, obj, size uint8, addr uint32, stride int32, cycles uint32) {
	s := &u.Steps[u.N]
	s.Kind, s.Obj, s.Size, s.Addr, s.Stride, s.Cycles, s.Val = kind, obj, size, addr, stride, cycles, 0
	u.N++
}

// advance moves u m units on within its repeat: every access by m strides.
func (u *Unit) advance(m int) {
	for i := 0; i < u.N; i++ {
		s := &u.Steps[i]
		s.Addr += uint32(s.Stride) * uint32(m)
	}
}

// span returns how many units of u's repeat, from u on, keep every access
// in the page it is in now (MaxInt if no access moves).
func (u *Unit) span(shift uint) int {
	mask := uint32(1)<<shift - 1
	m := math.MaxInt
	for i := 0; i < u.N; i++ {
		s := &u.Steps[i]
		var left uint32
		switch off := s.Addr & mask; {
		case s.Stride > 0:
			left = (mask - off) / uint32(s.Stride)
		case s.Stride < 0:
			left = off / uint32(-int64(s.Stride))
		default:
			continue
		}
		m = min(m, int(left)+1)
	}
	return m
}

// HitService is the transaction-level face of the IMU channel a port is
// wired to (Port.ServeHits). IMU edges are numbered from 1 over the IMU's
// lifetime.
type HitService interface {
	// Edge is the number of IMU edges delivered or skipped so far.
	Edge() int64
	// Eval and Update deliver IMU edge number edge to the channel alone,
	// for a partial window's tail.
	Eval(edge int64)
	Update()
	// Ready reports whether the channel serving p can take part in a run
	// now: idle, with no request, handshake line or OS control pending.
	Ready(p *Port) bool
	// Latency is the IMU edges from the one that latches a request to the
	// one that commits CP_TLBHIT for a hit.
	Latency() int64
	// PageShift is log2 of the translation page size.
	PageShift() uint
	// Hits returns the TLB entry that translates (obj, addr), or -1 if the
	// access would miss.
	Hits(obj uint8, addr uint32) int
	// Access applies one translated access through entry e exactly as the
	// channel's translation at IMU edge edge and its commit would, and
	// returns the data read (lane-aligned; 0 for a write).
	Access(edge int64, e int, obj uint8, addr uint32, size uint8, wr bool, v uint32) uint32
	// Finish commits the channel's IMU-side bundle after a run and
	// invalidates the IMU's published horizon.
	Finish()
}

// runMemo remembers, per step position, the page the step last translated
// through and its TLB entry, so a run looks each page up once: step j of
// one unit almost always lands in the page step j of the previous unit
// did, and always within a repeat until span runs out. It is valid within
// one RunEdges walk or skipRun call.
type runMemo [MaxSteps]struct {
	obj   uint8
	vpage uint32
	entry int
}

func newRunMemo() runMemo {
	var m runMemo
	for i := range m {
		m[i].entry = -1
	}
	return m
}

// hits resolves every access of u to its TLB entry, left in the memo at
// the step's position, and reports whether all of them hit.
func (m *runMemo) hits(h HitService, shift uint, u *Unit) bool {
	for i := 0; i < u.N; i++ {
		s := &u.Steps[i]
		if s.Kind == StepCompute {
			continue
		}
		c := &m[i]
		vp := s.Addr >> shift
		if c.entry < 0 || c.obj != s.Obj || c.vpage != vp {
			c.obj, c.vpage, c.entry = s.Obj, vp, h.Hits(s.Obj, s.Addr)
			if c.entry < 0 {
				return false
			}
		}
	}
	return true
}

// timing is the handshake timing of one run: a the core edges from issuing
// a request to consuming its response, d those from consuming it to the
// edge at which the next request may issue. The IMU commits CP_TLBHIT
// Latency IMU edges after the edge that latched the request, which follows
// the issuing core edge; a core edge sees a commit made strictly before it.
// The IMU drops CP_TLBHIT at its first edge after the consuming core edge.
type timing struct{ a, d int64 }

func newTiming(latency, ratio int64) timing {
	return timing{a: ceilDiv(latency+1, ratio), d: ceilDiv(2, ratio)}
}

func ceilDiv(x, y int64) int64 { return (x + y - 1) / y }

// edges walks u's steps from the edge at which its first request issues
// and returns the edges to the next unit's first issue, and the offset of
// the edge that consumed its last response (-1 if it has no access). It
// leaves the offset of each access's issuing edge in issue.
func (t timing) edges(u *Unit, issue *[MaxSteps]int64) (n, lastConsume int64) {
	cursor, ready := int64(0), int64(0)
	lastConsume = -1
	for i := 0; i < u.N; i++ {
		s := &u.Steps[i]
		if s.Kind == StepCompute {
			cursor += int64(s.Cycles)
			continue
		}
		issue[i] = max(cursor, ready)
		lastConsume = issue[i] + t.a
		cursor, ready = lastConsume+1, lastConsume+t.d
	}
	return max(cursor, ready), lastConsume
}

// runWire returns the port's hit-service wiring if a run can start at the
// next edge: the sequencer is at the top of its loop (so no request is in
// flight, though a drain may be waiting for CP_TLBHIT to fall, and it
// has), a service is wired and ready, the core is started, and no output
// change is staged or pulsing.
func (s *Seq) runWire() *HitWire {
	w := s.port.hits
	if w == nil || s.st != seqStepIssue || s.step != 0 || s.drivenPinv || s.port.cp.Pending() {
		return nil
	}
	if in := s.port.IMURef(); !in.Start || in.TLBHit || !w.svc.Ready(s.port) {
		return nil
	}
	return w
}

// RunEdges returns the hit-run window of a sequencer at the top of its
// loop: the edges its next units take on the edge path when every access
// of each hits in the TLB, stopping before the first unit with an access
// that would miss and before the last unit, which raises CP_FIN. It is 0
// when no run can start. Asking changes nothing the model can observe. It
// describes and times the unit at the start of each repeat, and looks the
// TLB up only where an access enters a new page: within a repeat every
// unit takes the same edges, and an access that stays in its page hits as
// the unit before it did.
func (s *Seq) RunEdges() int64 {
	wire := s.runWire()
	if wire == nil {
		return 0
	}
	h := wire.svc
	t := newTiming(h.Latency(), wire.ratio)
	shift := h.PageShift()
	memo := newRunMemo()
	var issue [MaxSteps]int64
	u := &s.cur
	w := int64(0)
	for i := s.unit; i+1 < s.units; {
		u.N = 0
		end := min(i+s.prog.Unit(i, u), s.units-1)
		if !memo.hits(h, shift, u) {
			break
		}
		n, _ := t.edges(u, &issue)
		for {
			m := end - i
			if m > 1 {
				m = min(m, u.span(shift))
			}
			w += int64(m) * n
			if i += m; i == end {
				break
			}
			u.advance(m)
			if !memo.hits(h, shift, u) {
				return w
			}
		}
	}
	return w
}

// skipRun consumes k edges of the window the last IdleEdges answer
// advertised as a run (RunEdges), leaving exactly the state k delivered
// edges would: whole units run in closed form — each access through the
// hit service at the IMU edge the edge path translates it at, the kernel
// before the first write, the Mem counters, and at the end the committed
// CP bundle (the last request's fields, with CP_ACCESS and CP_WR low) and
// the IMU's — and a remainder shorter than the next unit runs on the edge
// paths of the sequencer and the channel (deliver), leaving its access
// mid-handshake. A unit runs in closed form only once the IMU has
// delivered every edge before the core's next one: a divided core woken at
// its own edge has a CP_TLBHIT fall still to come in the IMU edges after
// it, so that unit goes to the edge paths too. What the answer was given
// on must still hold — the port, the channel and the table — which a shell
// guarantees by waking its sleeping cores before the OS runs.
func (s *Seq) skipRun(k int64) {
	wire := s.port.hits
	h, r := wire.svc, wire.ratio
	lat := h.Latency()
	t := newTiming(lat, r)
	shift := h.PageShift()
	now := h.Edge()
	memo := newRunMemo()
	var issue [MaxSteps]int64
	din := s.port.IMURef().DIn
	u := &s.cur
	// The last access's request, kept field by field: copying the Step
	// whole reloads it 16 bytes wide right after Val's 4-byte store, a
	// store-forwarding stall on every access.
	var last CPOut
	var lastN, lastConsume int64
	// u is unit s.unit, rep units of its repeat are left from it on, and
	// stay of them keep every access in the page memo resolved it to.
	var n, consume int64
	rep, stay := 0, 0
	for k > 0 {
		if rep == 0 {
			u.N = 0
			rep = s.prog.Unit(s.unit, u)
			n, consume = t.edges(u, &issue)
			stay = 0
		}
		if n > k || s.edge0+(s.edge+n+1)*r-1 > now {
			break
		}
		if stay == 0 {
			memo.hits(h, shift, u)
			if rep > 1 {
				stay = u.span(shift)
			}
		}
		// The unit's first request issues at the core's next edge. Core
		// edge j coincides with IMU edge edge0 + j·r, and the channel
		// translates an access Latency IMU edges after the one coinciding
		// with its issue.
		at := s.edge0 + (s.edge+1)*r + lat
		kernel := false
		for i := 0; i < u.N; i++ {
			st := &u.Steps[i]
			switch st.Kind {
			case StepRead:
				st.Val = h.Access(at+issue[i]*r, memo[i].entry, st.Obj, st.Addr, st.Size, false, 0)
				din = st.Val
				last.DOut = 0
				s.Reads++
			case StepWrite:
				if !kernel {
					s.prog.Kernel(s.unit, u)
					kernel = true
				}
				h.Access(at+issue[i]*r, memo[i].entry, st.Obj, st.Addr, st.Size, true, st.Val)
				last.DOut = st.Val
				s.Writes++
			default:
				continue
			}
			s.WaitCycles += uint64(t.a - 1)
			last.Obj, last.Addr, last.Size = st.Obj, st.Addr, st.Size
		}
		if !kernel {
			s.prog.Kernel(s.unit, u)
		}
		s.unit++
		s.edge += n
		lastN, lastConsume = n, consume
		k -= n
		if rep--; rep > 0 {
			u.advance(1)
			stay--
		}
	}
	if lastN > 0 {
		s.settle(last, lastN, lastConsume, t, din)
		h.Finish()
	}
	if k > 0 {
		deliver(h, s, k, r)
		h.Finish()
	}
}

// settle leaves the handshake as the edges of a run's last unit (n edges,
// its last access consumed at lastConsume) would: that request's fields
// (out, with CP_ACCESS and CP_WR low) on the committed bundle, the response
// data of the last read, and a drain still waiting for CP_TLBHIT to fall if
// the next request may only issue at the next edge.
func (m *Mem) settle(out CPOut, n, lastConsume int64, t timing, din uint32) {
	m.port.cp.Force(out)
	m.data = din
	m.completed = lastConsume == n-1
	m.state = memIdle
	if lastConsume+t.d >= n {
		m.state = memDrain
	}
}

// deliver runs the core's next k edges on the edge paths, with the
// channel's IMU edges (r per core edge) from the first of them up to the
// core's edge after the last, or up to the IMU's current edge if that
// comes first: all Evals of an edge before its Updates. The channel's
// edges after the IMU's current one are still to come, and the shell
// delivers them.
func deliver(h HitService, core *Seq, k, r int64) {
	first := core.edge0 + (core.edge+1)*r
	last := min(first+k*r-1, h.Edge())
	for edge := first; edge <= last; edge++ {
		onCore := (edge-first)%r == 0
		if onCore {
			core.Eval() // counts the core edge
		}
		h.Eval(edge)
		if onCore {
			core.Update()
		}
		h.Update()
	}
}
