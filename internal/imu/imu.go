// Package imu implements the Interface Management Unit of §3.2 — the
// hardware component that translates the virtual addresses emitted by a
// standardised coprocessor (object identifier + offset) into physical
// dual-port-RAM addresses, using a fully associative TLB, and that requests
// operating-system service through an interrupt whenever translation fails
// or the coprocessor completes.
//
// The model is register-transfer-level: a translation FSM advances one state
// per IMU clock edge under the two-phase discipline of package sim, so the
// multi-cycle timing of the paper's Figure 7 (data ready on the fourth
// rising edge after the access is generated) is a measured property of the
// model, not an assumption. A pipelined mode models the paper's announced
// follow-up ("a pipelined implementation of the IMU ... expected to mask
// almost completely the translation overhead") by sustaining one translated
// access per IMU cycle.
//
// # Channels and sessions
//
// Beyond the paper, the IMU multiplexes several coprocessors — FOS/SYNERGY
// style shells load more than one accelerator behind one memory interface.
// Each loaded coprocessor occupies a channel: an independent copy of the
// translation FSM, the CP_* port, and the SR/AR/CR register bank, stacked
// at RegWindow-sized offsets in the register window. The translation table
// itself stays shared and session-tagged: every entry carries the session
// identifier of its owner, the CAM matches on (session, object, page), and
// a fault is delivered in the faulting channel's own register bank, so the
// operating system always knows which session to service. A single-channel
// IMU is bit-identical to the paper's original unit.
//
// # LastUse stamps
//
// A hit stamps its entry's LastUse with the IMU edge that translated it and
// the channel's index, packed so that stamps compare edge first, then
// channel. Channels translate in index order within an edge, so stamps
// order accesses exactly as they happen, and a stamp does not depend on
// when the simulator applies the access.
//
// # Hit runs
//
// A hit always takes the same edges, so every channel is also offered at
// transaction level (HitService, wired to the port by the assembler or the
// shell): a coprocessor's hit run asks it whether an access hits and has it
// apply exactly what the translation FSM and its commit would — the LastUse
// stamp of the access's own edge, the entry's Ref and Dirty bits, the DP
// RAM access, CP_DIN and the counters — while the core skips the edges. A
// run touches only its own channel and its own session's entries, so it may
// be applied after the neighbouring channels have moved on. Each session
// has a table generation that every table write which may change one of
// its matches bumps, so a core keeps the window it found until then. The
// FSM stays the reference: the lockstep scheduler always runs it.
package imu

import (
	"fmt"

	"repro/internal/copro"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Mode selects the translation micro-architecture.
type Mode int

const (
	// MultiCycle is the paper's implementation: four IMU cycles per
	// translated access (CAM match, translation-RAM read, address
	// formation, memory access).
	MultiCycle Mode = iota
	// Pipelined models the follow-up implementation: the four stages are
	// pipelined and sustain one access per cycle.
	Pipelined
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Pipelined {
		return "pipelined"
	}
	return "multicycle"
}

// Config parameterises the IMU for a platform.
type Config struct {
	PageShift uint // log2(page size); 11 for the 2 KB pages of the EPXA1
	Entries   int  // TLB entries; equals the number of DP RAM page frames
	Mode      Mode
}

// TLBEntry is one row of the translation table. The OS reads and writes
// entries through the register window; the hardware sets Dirty and Ref and
// stamps LastUse on hits (see stamp). Sess tags the owning session so several
// coprocessor channels can share the table without object-identifier
// collisions (every session numbers its objects from zero).
type TLBEntry struct {
	Valid   bool
	Sess    uint8  // owning session / channel index
	Obj     uint8  // object identifier
	VPage   uint32 // virtual page number within the object
	Frame   uint8  // DP RAM page frame
	Dirty   bool   // set by write hits
	Ref     bool   // set by any hit; cleared by the OS (clock policy)
	LastUse uint64 // stamp of the latest hit (LRU policy)
}

// chanBits is the width of the channel index in a stamp; it holds every
// channel index (the array length below goes negative otherwise).
const chanBits = 3

var _ [1<<chanBits - MaxChannels]struct{}

// stamp is the LastUse value of a hit that channel ch translates at IMU
// edge edge (the IMU's edges are numbered from 1 over its lifetime, across
// every assembly): the edge, then the channel, so stamps compare in the
// order the accesses happen.
func stamp(edge int64, ch uint8) uint64 { return uint64(edge)<<chanBits | uint64(ch) }

// Status register bits.
const (
	SRFault     = 1 << 0 // translation fault pending
	SRDone      = 1 << 1 // coprocessor signalled completion
	SRRunning   = 1 << 2 // CP_START asserted
	SRParamFree = 1 << 3 // parameter page was invalidated by the coprocessor
)

// ctlMask packs the pending OS control requests.
type ctlMask uint8

const (
	ctlStart ctlMask = 1 << iota
	ctlStop
	ctlRestart
	ctlAckDone
)

type fsmState uint8

const (
	stIdle   fsmState = iota
	stCAM             // CAM match
	stXlate           // translation RAM read / physical address formation
	stAccess          // dual-port RAM access
	stDrop            // wait for CP_ACCESS to fall
	stFault           // stalled awaiting OS restart
)

// pending is what a channel's Eval schedules for Update to commit: the
// values other components can read during an edge — the IMU-driven port
// bundle, the translated store into the DP RAM, and the TLB entry that
// every channel's CAM matches against. The channel's private FSM state,
// latched request, SR, AR and IRQ bit are written in place during Eval:
// only the channel's own Eval reads them during an edge, and the OS only
// while the engine is paused.
type pending struct {
	out      copro.IMUOut
	entryUpd int // TLB index to update on commit, -1 if none
	entry    TLBEntry
	doWrite  bool // DP write side effect on commit
	wAddr    uint32
	wData    uint32
	wBE      uint8
}

// request is the latched coprocessor access.
type request struct {
	obj  uint8
	addr uint32
	size uint8
	wr   bool
	dout uint32
}

// Counters aggregates IMU activity for reports. The IMU keeps one global
// set (all channels) and one per channel.
type Counters struct {
	Accesses    uint64 // translated accesses completed
	Hits        uint64 // CAM hits
	Faults      uint64 // translation faults raised
	ParamFrees  uint64 // parameter-page invalidations
	FaultCycles uint64 // cycles spent stalled in the fault state
}

// channel is the per-coprocessor slice of the IMU: one CP_* port, one
// translation FSM, and one SR/AR/CR register bank. The translation table,
// the edge count and the DP RAM are shared across channels.
// The fields read by Eval's per-edge idle check (port, state, ctl) lead
// the struct so the fast path touches a single cache line.
type channel struct {
	port *copro.Port

	// FSM state, advanced in place by Eval.
	state fsmState

	// OS-requested asynchronous controls (the engine is paused when the
	// OS runs, so these are plain flags), packed into one mask so the
	// per-edge idle check is a single compare.
	ctl ctlMask

	// noop marks an Eval that scheduled no state change, letting Update
	// skip the commit entirely. A channel is idle on the large majority of
	// edges (its coprocessor computes internally between accesses), so
	// this fast path keeps the per-edge cost to a few loads and branches.
	noop bool

	sess uint8 // session tag written into TLB entries and CAM-matched

	// Architectural state (OS-visible through this channel's bank).
	sr  uint32
	ar  uint32
	irq bool

	out copro.IMUOut
	req request

	next pending

	// cam memoises the channel's last CAM lookup (see camLookup).
	cam camMemo

	Count Counters
}

// IMU is the interface management unit.
type IMU struct {
	cfg Config
	dp  *mem.DPRAM

	// Shared architectural state. ch aliases the leading channels of
	// chbuf: backing the slice with a struct-resident array keeps the
	// per-edge channel loads one indirection away from the IMU pointer,
	// exactly like the pre-sessions field layout.
	tlb   []TLBEntry
	ch    []channel
	chbuf [MaxChannels]channel
	// hits holds each channel's hit service, built once so that handing
	// one out as a copro.HitService allocates nothing.
	hits [MaxChannels]hitService
	// anyWork marks an Eval in which at least one channel scheduled a
	// state change, so Update's idle fast path is a single branch.
	anyWork bool
	irq     bool // CPU interrupt line: OR of the channel IRQs

	edge   int64 // IMU edges delivered or skipped so far: the latest edge's index
	Count  Counters
	tlbIdx int // register-window entry selector (shared indirect port)

	// gen is each session's table generation (see sessionWritten),
	// indexed by session tag; a CAM memo and a hit-run plan are valid
	// only within one generation of their session.
	gen [MaxChannels]uint64

	// hz is the published idle horizon (sim.Publisher), see IdleEdges.
	hz sim.Horizon

	// Trace hooks (nil when not recording; channel 0 only).
	trace *TraceHooks
}

// TraceHooks lets a testbench record the port-level waveform (Figure 7).
// Tracing observes channel 0.
type TraceHooks struct {
	// OnEdge is called at every Eval with the current cycle index and the
	// committed port values.
	OnEdge func(cycle uint64, cp copro.CPOut, imuOut copro.IMUOut)
	cycle  uint64
}

// New builds an IMU over the given dual-port RAM with one channel.
func New(cfg Config, dp *mem.DPRAM) (*IMU, error) {
	if cfg.Entries <= 0 || cfg.Entries > 256 {
		return nil, fmt.Errorf("imu: %d TLB entries out of range", cfg.Entries)
	}
	if cfg.PageShift < 4 || cfg.PageShift > 20 {
		return nil, fmt.Errorf("imu: page shift %d out of range", cfg.PageShift)
	}
	if dp == nil {
		return nil, fmt.Errorf("imu: nil DP RAM")
	}
	if dp.PageSize() != 1<<cfg.PageShift {
		return nil, fmt.Errorf("imu: page shift %d does not match DP RAM page size %d",
			cfg.PageShift, dp.PageSize())
	}
	if dp.Pages() != cfg.Entries {
		return nil, fmt.Errorf("imu: %d TLB entries but %d DP RAM frames", cfg.Entries, dp.Pages())
	}
	u := &IMU{
		cfg: cfg,
		dp:  dp,
		tlb: make([]TLBEntry, cfg.Entries),
	}
	if err := u.SetChannels(1); err != nil {
		return nil, err
	}
	return u, nil
}

// SetChannels reconfigures the IMU to n coprocessor channels, resetting all
// channel state (FSMs, register banks, counters, port bindings). Call it
// before binding ports and starting simulation; the shared TLB is also
// invalidated.
func (u *IMU) SetChannels(n int) error {
	if n <= 0 || n > MaxChannels {
		return fmt.Errorf("imu: %d channels out of range [1,%d]", n, MaxChannels)
	}
	u.chbuf = [MaxChannels]channel{}
	u.ch = u.chbuf[:n]
	for i := range u.ch {
		u.ch[i].sess = uint8(i)
		u.hits[i] = hitService{u: u, c: &u.ch[i]}
		// A fresh quiescent port per channel: a channel left unbound is
		// simply idle forever instead of dereferencing a nil port at the
		// first edge. Real bindings replace these.
		u.BindCh(i, copro.NewPort())
	}
	u.anyWork = false
	u.irq = false
	u.InvalidateAll()
	return nil
}

// poke is the common tail of every OS-side write made while the engine is
// paused: the published horizon goes stale.
func (u *IMU) poke() { u.hz.Invalidate() }

// sessionWritten records a table write that may change which entries match
// session sess's lookups: it bumps the session's generation, retiring its
// channel's CAM memo and its core's hit-run plan. Writes that only touch a
// hit's Ref, LastUse or Dirty bits change no match and bump nothing. A tag
// no channel carries matches no lookup.
func (u *IMU) sessionWritten(sess uint8) {
	if int(sess) < len(u.gen) {
		u.gen[sess]++
	}
}

// Horizon implements sim.Publisher.
func (u *IMU) Horizon() *sim.Horizon { return &u.hz }

// Channels returns the configured channel count.
func (u *IMU) Channels() int { return len(u.ch) }

// Bind attaches the coprocessor port to channel 0.
func (u *IMU) Bind(p *copro.Port) { u.BindCh(0, p) }

// BindCh attaches the coprocessor port of channel i.
func (u *IMU) BindCh(i int, p *copro.Port) {
	c := &u.ch[i]
	c.port = p
	p.WatchCP(&u.hz)
	// Pick up the (possibly fresh) port's committed outputs so trace hooks
	// observe consistent values from the first edge.
	c.out = p.IMU()
	u.poke()
}

// SetTrace installs waveform hooks.
func (u *IMU) SetTrace(t *TraceHooks) {
	u.trace = t
	u.poke()
}

// Config returns the configuration.
func (u *IMU) Config() Config { return u.cfg }

// IdleEdges implements sim.BulkIdler for the event-driven scheduler. A
// channel is idle until input while its Eval would take the no-op fast
// path: nothing in flight, no OS control bit set and no coprocessor request
// or handshake line up. That depends only on the channel's own FSM state,
// the OS control mask (written while the engine is paused) and the
// committed coprocessor outputs (written at coprocessor-domain edges), so
// only a coprocessor commit or an OS poke ends it. Bounded windows come
// from the multi-cycle translation pipeline. A channel whose coprocessor
// holds a request the CAM will hit spends its next edges latching the
// request, matching and reading the translation RAM — internal state steps that commit nothing a
// coprocessor or the OS can see — before the access edge drives CP_TLBHIT;
// those steps are inert and SkipEdges replays them. A channel stalled on a
// fault (counting fault cycles until the OS restarts it) or waiting for its
// coprocessor to drop a consumed request is idle until input. The answer is
// the minimum over channels. The translation table can change within a
// window only through the OS (while the engine is paused, ending the window)
// or another channel's access (which never touches the Valid/Sess/Obj/VPage
// fields a match reads), so a CAM hit predicted at the query stands — and
// the lookup is memoised for the CAM and access edges to reuse. With a
// waveform trace installed every edge must be recorded, so the answer is
// always busy.
//
// The answer is the IMU's published horizon (sim.Publisher), kept for as
// long as nothing it reads changes. An Update with no channel work changes
// nothing, so it leaves the horizon standing. One that commits channel work
// publishes busy if a channel that worked is certain to work again at the
// next edge, and otherwise invalidates the horizon; so do a bound
// coprocessor's bundle commit (the port's change notice) and every OS
// poke. The engine re-queries a stale horizon only when it next reads it —
// which it does only while every other ticker of the domain is idle, so an
// IMU translating next to a busy core is never asked.
func (u *IMU) IdleEdges() int64 {
	if u.trace != nil {
		return 0
	}
	k := sim.IdleForever
	for i := range u.ch {
		n := u.chIdleEdges(&u.ch[i])
		if n == 0 {
			return 0
		}
		if n < k {
			k = n
		}
	}
	return k
}

// chIdleEdges is one channel's share of IdleEdges.
func (u *IMU) chIdleEdges(c *channel) int64 {
	cp := c.port.CPRef()
	if c.ctl != 0 || cp.Fin || cp.ParamInv {
		return 0
	}
	switch c.state {
	case stIdle:
		if !cp.Access {
			return sim.IdleForever
		}
		if u.cfg.Mode == Pipelined {
			return 0
		}
		if u.camLookup(c, cp.Obj, cp.Addr>>u.cfg.PageShift) < 0 {
			return 1 // the latch edge; the CAM edge raises the fault
		}
		return 3
	case stCAM:
		if u.camLookup(c, c.req.obj, c.req.addr>>u.cfg.PageShift) < 0 {
			return 0
		}
		return 2
	case stXlate:
		return 1
	case stDrop:
		if cp.Access {
			return sim.IdleForever
		}
	case stFault:
		return sim.IdleForever
	}
	return 0
}

// SkipEdges implements sim.BulkIdler: every channel advances k edges along
// the path its IdleEdges answer promised — latch, CAM hit, translation-RAM
// read — and a faulted channel counts k stall cycles, exactly as delivered
// edges would.
func (u *IMU) SkipEdges(k int64) {
	u.edge += k
	for i := range u.ch {
		c := &u.ch[i]
		switch c.state {
		case stIdle, stCAM, stXlate:
			cp := c.port.CPRef()
			if c.state == stIdle && !cp.Access {
				continue // idle until input: nothing to replay
			}
			for n := k; n > 0 && c.state != stAccess; n-- { // at most 3 steps
				switch c.state {
				case stIdle:
					c.req = request{obj: cp.Obj, addr: cp.Addr, size: cp.Size, wr: cp.Wr, dout: cp.DOut}
					c.state = stCAM
				case stCAM:
					c.state = stXlate
				case stXlate:
					c.state = stAccess
				}
			}
		case stFault:
			u.Count.FaultCycles += uint64(k)
			c.Count.FaultCycles += uint64(k)
		}
	}
}

// camMemo is a channel's last CAM lookup: the key, the index found (-1 for
// a miss) and the session's table generation it was found in.
type camMemo struct {
	gen   uint64
	obj   uint8
	vpage uint32
	idx   int
}

// camLookup is channel c's CAM match for (obj, vpage), memoised, so the
// horizon query, the CAM edge and the access edge of one translated access
// share a single scan of the table. The result is always camMatch's
// (the lowest matching index): within one generation of the channel's
// session (see sessionWritten) no entry starts matching the session's
// lookups — another session's writes cannot make one match, an access
// rewrites only Ref/LastUse/Dirty and a parameter release only clears
// Valid — so a memoised miss stands and a memoised hit stands while its
// entry still matches.
func (u *IMU) camLookup(c *channel, obj uint8, vpage uint32) int {
	gen := u.gen[c.sess]
	if m := &c.cam; m.gen == gen && m.obj == obj && m.vpage == vpage {
		if m.idx < 0 {
			return -1
		}
		if e := &u.tlb[m.idx]; e.Valid && e.Sess == c.sess && e.Obj == obj && e.VPage == vpage {
			return m.idx
		}
	}
	i := u.camMatch(c.sess, obj, vpage)
	c.cam = camMemo{gen: gen, obj: obj, vpage: vpage, idx: i}
	return i
}

// camMatch looks up (sess, obj, vpage); returns the entry index or -1.
func (u *IMU) camMatch(sess, obj uint8, vpage uint32) int {
	for i := range u.tlb {
		e := &u.tlb[i]
		if e.Valid && e.Sess == sess && e.Obj == obj && e.VPage == vpage {
			return i
		}
	}
	return -1
}

// Eval implements sim.Ticker: every channel's FSM advances one state. The
// per-channel idle fast path stays inline here — the IMU is idle on the
// large majority of edges, so the no-op check must cost only a few loads
// and branches, with the full FSM step (evalCh) paid only by channels
// that have work.
func (u *IMU) Eval() {
	u.edge++
	if u.trace != nil && u.trace.OnEdge != nil {
		c := &u.ch[0]
		u.trace.OnEdge(u.trace.cycle, *c.port.CPRef(), c.out)
		u.trace.cycle++
	}
	anyWork := false
	for i := range u.ch {
		c := &u.ch[i]
		cp := c.port.CPRef()
		// Idle fast path: no access in flight, no port event, no OS
		// request — nothing can change this edge, so schedule nothing and
		// let Update skip the channel. Any state other than stIdle
		// (including stFault, which counts stall cycles) takes the full
		// path.
		if c.state == stIdle && c.ctl == 0 && !cp.Access && !cp.Fin && !cp.ParamInv {
			c.noop = true
			continue
		}
		c.noop = false
		anyWork = true
		u.evalCh(c, cp, u.edge)
	}
	u.anyWork = anyWork
}

// evalCh advances one non-idle channel's FSM at IMU edge edge, updating its
// private state in place and scheduling the rest in c.next (see pending).
func (u *IMU) evalCh(c *channel, cp *copro.CPOut, edge int64) {
	n := &c.next
	n.out = c.out
	n.entryUpd = -1
	n.doWrite = false

	// OS control requests (engine was paused; apply at the next edge).
	if c.ctl != 0 {
		if c.ctl&ctlStart != 0 {
			n.out.Start = true
			c.sr |= SRRunning
		}
		if c.ctl&ctlAckDone != 0 {
			n.out.Start = false
			c.sr &^= SRDone | SRRunning
			c.irq = false
		}
		if c.ctl&ctlStop != 0 {
			n.out.Start = false
			c.sr &^= SRRunning
		}
		c.ctl &= ctlRestart // restart is consumed by the fault state below
	}

	// Completion has priority over memory traffic: a well-formed
	// coprocessor never raises CP_FIN with a request in flight.
	if cp.Fin && c.sr&SRDone == 0 && c.sr&SRRunning != 0 {
		c.sr |= SRDone
		c.irq = true
	}

	// Parameter-page invalidation pulse.
	if cp.ParamInv {
		if i := u.camMatch(c.sess, copro.ParamObj, 0); i >= 0 {
			// The release stops the entry matching. Plans are asked
			// for between edges, after this edge's Update commits it.
			u.sessionWritten(c.sess)
			e := u.tlb[i]
			e.Valid = false
			e.Dirty = false
			n.entryUpd = i
			n.entry = e
			c.sr |= SRParamFree
			u.Count.ParamFrees++
			c.Count.ParamFrees++
		}
	}

	switch c.state {
	case stIdle:
		if cp.Access {
			c.req = request{obj: cp.Obj, addr: cp.Addr, size: cp.Size, wr: cp.Wr, dout: cp.DOut}
			if u.cfg.Mode == Pipelined {
				u.translate(c, n, edge)
			} else {
				c.state = stCAM
			}
		}
	case stCAM:
		if u.camLookup(c, c.req.obj, c.req.addr>>u.cfg.PageShift) >= 0 {
			c.state = stXlate
		} else {
			u.raiseFault(c)
		}
	case stXlate:
		c.state = stAccess
	case stAccess:
		u.translate(c, n, edge)
	case stDrop:
		if !cp.Access {
			n.out.TLBHit = false
			c.state = stIdle
		}
	case stFault:
		u.Count.FaultCycles++
		c.Count.FaultCycles++
		if c.ctl&ctlRestart != 0 {
			c.ctl &^= ctlRestart
			c.sr &^= SRFault
			c.irq = false
			// Retry the latched request from the CAM stage.
			if u.cfg.Mode == Pipelined {
				u.translate(c, n, edge)
			} else {
				c.state = stCAM
			}
		}
	}
}

// translate performs CAM match + memory access in one step (the final stage
// of the multi-cycle FSM, or the whole pipelined access) at IMU edge edge.
func (u *IMU) translate(c *channel, n *pending, edge int64) {
	r := &c.req
	vpage := r.addr >> u.cfg.PageShift
	i := u.camLookup(c, r.obj, vpage)
	if i < 0 {
		u.raiseFault(c)
		return
	}
	e := u.tlb[i]
	e.Ref = true
	e.LastUse = stamp(edge, c.sess)
	wordAddr, lane := u.locate(&e, r.addr)

	if r.wr {
		e.Dirty = true
		n.doWrite = true
		n.wAddr = wordAddr
		n.wData = r.dout << (8 * lane)
		n.wBE = byteEnables(r.size, lane)
	} else {
		word, err := u.dp.ReadA(wordAddr)
		if err != nil {
			// A translated address can only be out of range if the
			// TLB was misprogrammed; treat as a fault for the OS.
			u.raiseFault(c)
			return
		}
		n.out.DIn = laneData(word, lane, r.size)
	}
	n.entryUpd = i
	n.entry = e
	n.out.TLBHit = true
	c.state = stDrop
	u.Count.Accesses++
	u.Count.Hits++
	c.Count.Accesses++
	c.Count.Hits++
}

// locate returns the DP RAM word address and byte lane that offset addr of
// an object translates to through entry e.
func (u *IMU) locate(e *TLBEntry, addr uint32) (wordAddr, lane uint32) {
	phys := u.dp.PageBase(int(e.Frame)) + addr&(1<<u.cfg.PageShift-1)
	return phys &^ 3, phys & 3
}

// byteEnables are the DP RAM byte enables of a size-byte store at lane.
func byteEnables(size uint8, lane uint32) uint8 {
	switch size {
	case copro.Size8:
		return 1 << lane
	case copro.Size16:
		return 3 << lane
	}
	return 0xf
}

// laneData extracts a size-byte load at lane from a DP RAM word,
// lane-aligned to bit 0.
func laneData(word, lane uint32, size uint8) uint32 {
	v := word >> (8 * lane)
	switch size {
	case copro.Size8:
		v &= 0xff
	case copro.Size16:
		v &= 0xffff
	}
	return v
}

// raiseFault latches the fault cause in the channel's bank and interrupts
// the OS.
func (u *IMU) raiseFault(c *channel) {
	c.state = stFault
	c.sr |= SRFault
	c.ar = uint32(c.req.obj)<<24 | c.req.addr&0x00ffffff
	c.irq = true
	u.Count.Faults++
	c.Count.Faults++
}

// Update implements sim.Ticker.
func (u *IMU) Update() {
	if !u.anyWork {
		// Every channel took Eval's no-op fast path: the committed port
		// outputs are unchanged, so skipping the commit loop leaves all
		// coprocessor-visible values intact.
		return
	}
	busy := false
	for i := range u.ch {
		c := &u.ch[i]
		if !c.noop {
			busy = u.commitCh(c) || busy
		}
	}
	irq := false
	for i := range u.ch {
		if u.ch[i].irq {
			irq = true
			break
		}
	}
	u.irq = irq
	// The channels that worked this edge are the ones whose horizon moved.
	// One certain to work again at the next edge — about to access the
	// memory, or to drop CP_TLBHIT after its coprocessor dropped the
	// request — settles the whole answer; otherwise the minimum needs every
	// channel, and is re-queried when read.
	if busy {
		u.hz.Publish(0)
	} else {
		u.hz.Invalidate()
	}
}

// commitCh commits what channel c's Eval scheduled and reports whether the
// channel is certain to work again at its next edge: about to access the
// memory, or to drop CP_TLBHIT after its coprocessor dropped the request.
func (u *IMU) commitCh(c *channel) bool {
	n := &c.next
	if n.doWrite {
		// The translated store hits the DP RAM exactly once, at commit.
		if err := u.dp.WriteA(n.wAddr, n.wData, n.wBE); err != nil {
			// Unreachable when the TLB is consistent; keep the model
			// honest by dropping the hit and faulting instead.
			c.state = stFault
			c.sr |= SRFault
			c.irq = true
			n.out.TLBHit = false
		}
	}
	if n.entryUpd >= 0 {
		u.tlb[n.entryUpd] = n.entry
	}
	c.out = n.out
	// Skip the schedule/commit pair when the port already holds the new
	// bundle. Comparing against the port's committed value (rather than a
	// local mirror) keeps the guard exact even if the port is Reset or
	// rebound between runs.
	if n.out != *c.port.IMURef() {
		c.port.SetIMU(n.out)
		c.port.CommitIMU()
	}
	return c.state == stAccess || c.state == stDrop && !c.port.CPRef().Access
}
