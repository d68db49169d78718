package copro

import (
	"math"

	"repro/internal/mem"
)

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
// skipRun moves each access's word through port A's view of its DP RAM
// frame, resolved once per page stay, and commits the TLB bookkeeping of
// the stay's accesses once, at its end, with their final values.
//
// A run may be executed late: a shell slot sleeps through its window while
// its neighbour keeps running, and executes the run when it wakes. Every
// access's stamp therefore carries the IMU edge at which the edge path
// would have translated it, derived from the core's own edge count and
// the IMU edge its edge 0 fell on (Bind). A run may also be cut
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
// wired to (Port.ServeHits). A run applies what the channel's translation
// FSM and its commit would for each of its hits in two parts: it moves
// each access's word itself, through the view Frame gives of the entry's
// DP RAM frame, and has the channel apply the rest once, with its final
// values — Touch per TLB entry and page stay, Commit per run. IMU edges
// are numbered from 1 over the IMU's lifetime.
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
	// Frame returns port A's view of the DP RAM frame entry e maps: a run
	// moves the word of each access through e in it, a word load or a
	// byte-enabled word store, as the channel's translation would.
	Frame(e int) mem.Frame
	// Touch applies to entry e what the channel's translations of a page
	// stay's accesses through it would: Ref, Dirty if wr, and LastUse
	// stamped with IMU edge edge, the last access's.
	Touch(e int, edge int64, wr bool)
	// Commit applies the rest of what a run's reads and writes (all hits)
	// leave on the channel, with its final values: the access and hit
	// counters, the DP RAM's port-A counters, the latched request of the
	// last access (last, with CP_WR as it was) and the last read's data
	// din on CP_DIN.
	Commit(reads, writes uint64, last CPOut, din uint32)
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
// edges would. Whole units run in closed form a page stay at a time: at a
// stay's first unit each access's TLB entry (the entry RunEdges found) and
// port A's view of its frame are resolved, each access of each unit then
// moves its word through that view as the channel's translation would,
// with the kernel between the unit's reads and its writes, and at the
// stay's end each entry is touched with the IMU edge the edge path
// translates its last access at, and the Mem counters are added. At the
// end the channel takes the run's counters, latched request and CP_DIN
// (Commit) and the committed CP bundle the last request's fields with
// CP_ACCESS and CP_WR low. A remainder shorter than the next unit runs on
// the edge paths of the sequencer and the channel (deliver), leaving its
// access mid-handshake. A unit runs in closed form only once the IMU has
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
	mask := uint32(1)<<shift - 1
	memo := newRunMemo()
	var issue [MaxSteps]int64
	// frames[i] is the view step i moves its words through; views keeps
	// the views taken, direct-mapped on the entry.
	var frames [MaxSteps]mem.Frame
	var views [8]struct {
		e int
		f mem.Frame
	}
	for i := range views {
		views[i].e = -1
	}
	var acc accesses
	var run runTally
	din := s.port.IMURef().DIn
	u := &s.cur
	// A unit runs in closed form if it ends within the k edges, and the
	// IMU has delivered every edge before the core's next one: core edge
	// j coincides with IMU edge edge0 + j·r, so the unit may end at core
	// edge stop at the latest.
	start := s.edge
	stop := min(start+k, (h.Edge()-s.edge0+1)/r-1)
	// u is unit s.unit, or the unit before it if moved is false; rep
	// units of its repeat are left from s.unit on.
	var n, consume, lastN, lastConsume int64
	rep, moved := 0, true
	for {
		if rep == 0 {
			u.N = 0
			rep = s.prog.Unit(s.unit, u)
			n, consume = t.edges(u, &issue)
			acc.of(u)
			moved = true
		}
		if s.edge+n > stop {
			break
		}
		if !moved {
			u.advance(1)
		}
		// A page stay: m units that keep every access in the page of its
		// entry in memo, whose frame it moves its words through.
		memo.hits(h, shift, u)
		for _, i := range acc.at[:acc.n] {
			e := memo[i].entry
			v := &views[e%len(views)]
			if v.e != e {
				v.e, v.f = e, h.Frame(e)
			}
			frames[i] = v.f
		}
		m := int64(rep)
		if rep > 1 {
			m = min(m, int64(u.span(shift)))
		}
		if s.edge+m*n > stop {
			m = (stop - s.edge) / n
		}
		for j := int64(1); ; j++ {
			for _, i := range acc.reads() {
				st := &u.Steps[i]
				off := st.Addr & mask
				st.Val = LaneData(frames[i].Read32(off&^3), off&3, st.Size)
				din = st.Val
			}
			// The kernel runs between the reads and the writes, as on
			// the edge path.
			s.prog.Kernel(s.unit, u)
			for _, i := range acc.writes() {
				st := &u.Steps[i]
				off := st.Addr & mask
				frames[i].Write32(off&^3, st.Val<<(8*(off&3)), ByteEnables(st.Size, off&3))
			}
			s.unit++
			if j == m {
				break
			}
			u.advance(1)
		}
		s.edge += m * n
		rep -= int(m)
		moved = false
		// The stay's last unit issued its first request at the core edge
		// after s.edge - n, which coincides with IMU edge edge0 +
		// (s.edge-n+1)·r, and the channel translates each access Latency
		// IMU edges after the one coinciding with its issue.
		s.commitStay(h, &acc, &memo, &issue, s.edge0+(s.edge-n+1)*r+lat, r, uint64(m), t.a-1, &run)
		lastN, lastConsume = n, consume
	}
	if lastN > 0 {
		h.Commit(run.reads, run.writes, run.last, din)
		run.last.Wr = false
		s.settle(run.last, lastN, lastConsume, t, din)
		h.Finish()
	}
	if k -= s.edge - start; k > 0 {
		deliver(h, s, k, r)
		h.Finish()
	}
}

// accesses lists the positions of a unit's access steps in step order,
// which is its reads, then its writes (Program.Unit).
type accesses struct {
	at       [MaxSteps]uint8
	n, nread int
}

// of lists u's accesses.
func (a *accesses) of(u *Unit) {
	a.n, a.nread = 0, 0
	for i := 0; i < u.N; i++ {
		switch u.Steps[i].Kind {
		case StepRead:
			a.nread++
		case StepWrite:
		default:
			continue
		}
		a.at[a.n] = uint8(i)
		a.n++
	}
}

func (a *accesses) reads() []uint8  { return a.at[:a.nread] }
func (a *accesses) writes() []uint8 { return a.at[a.nread:a.n] }

// runTally is what a run's page stays add up to: their reads and writes,
// and the request of the last access.
type runTally struct {
	reads, writes uint64
	last          CPOut
}

// commitStay applies what a page stay's units units, u and the units of
// its repeat before it, leave besides their words, the last translating
// its accesses (acc) from IMU edge at on (step i at at + issue[i]·r): each
// access's entry in memo touched with the edge of its last access, in step
// order, so a later step through the same entry stamps it, and Mem's
// counters, wait wait cycles an access. It adds the stay to run.
func (s *Seq) commitStay(h HitService, acc *accesses, memo *runMemo, issue *[MaxSteps]int64, at, r int64, units uint64, wait int64, run *runTally) {
	for j, i := range acc.at[:acc.n] {
		h.Touch(memo[i].entry, at+issue[i]*r, j >= acc.nread)
	}
	reads, writes := units*uint64(acc.nread), units*uint64(acc.n-acc.nread)
	s.Reads += reads
	s.Writes += writes
	s.WaitCycles += (reads + writes) * uint64(wait)
	run.reads += reads
	run.writes += writes
	st := &s.cur.Steps[acc.at[acc.n-1]]
	run.last = CPOut{Addr: st.Addr, Obj: st.Obj, Size: st.Size, Wr: st.Kind == StepWrite}
	if run.last.Wr {
		run.last.DOut = st.Val
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
