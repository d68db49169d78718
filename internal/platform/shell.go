package platform

import (
	"errors"
	"fmt"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/sim"
)

// Slot is one partially-reconfigurable region of a multi-coprocessor shell:
// a fixed frame wired to one IMU channel whose resident coprocessor model
// can be swapped while the engine is paused (the FOS-style "shell and role"
// split — the shell's wiring to the IMU channel is static, the role inside
// it is loaded and unloaded at runtime). Slots are not tickers themselves:
// the shell's one composite ticker (ShellHW) delivers edges to every
// awake resident core and lets a computing core sleep while its neighbours
// work.
type Slot struct {
	hw   *ShellHW
	bit  uint32 // the slot's flag in hw.changed
	port *copro.Port
	core *copro.Seq
	// div is the shell cycles per core edge: the core's clock is the shell
	// clock divided by div, so its edges fall on the shell cycles that are
	// multiples of div, where a clock domain of its own would put them.
	div int64
	// wire is the port's wiring to the slot's IMU channel's hit service,
	// reused across loads.
	wire copro.HitWire

	// Slot-local sleep (event-driven scheduler only). A core that answered
	// IdleEdges k > 0 is withheld its next k edges: from is the shell cycle
	// it fell asleep at, until the last shell cycle before the first edge
	// it is owed (sim.IdleForever while idle until input). The core edges
	// withheld since from are owed to the core as one SkipEdges at wake-up.
	// The port is the core's only input, so the core wakes at the first
	// shell edge after until, or at the first edge after the IMU committed
	// a changed IMU-side bundle to it (the port's change notice sets the
	// slot's flag in hw.changed).
	asleep bool
	from   int64
	until  int64
	total  int64 // core edges withheld over the slot's lifetime, flushed at wake

	// staged is the slot's staging buffer: a coprocessor whose bitstream
	// the configuration port has DMA'd in behind the resident core's back.
	// It takes no part in ticking — the buffer is passive configuration
	// memory — until CommitSlot swaps it in for the resident core.
	staged *copro.Seq
}

// Resident returns the loaded coprocessor's name, or "" while the slot is
// empty (reconfiguring).
func (s *Slot) Resident() string {
	if s.core == nil {
		return ""
	}
	return s.core.Name()
}

// Core returns the resident coprocessor model (nil while empty). A sleeping
// core is woken first, so the caller sees exactly the state full edge
// delivery would have produced; the caller may then poke it, so the shell's
// horizon goes stale.
func (s *Slot) Core() *copro.Seq {
	s.wake()
	s.hw.hz.Invalidate()
	return s.core
}

// Port returns the CP_* bundle wired between the resident core and the IMU
// channel (nil while the slot is empty).
func (s *Slot) Port() *copro.Port { return s.port }

// Load configures the slot with a coprocessor over the given port (the
// caller binds the same port to the IMU channel) and resets the core to its
// power-on state. The core keeps the slot's clock divisor, and a port wired
// to the channel's hit service keeps the phase it was wired at (LoadSlot
// sets both). Engine must be paused.
func (s *Slot) Load(core *copro.Seq, port *copro.Port) {
	s.wake()
	s.core = core
	s.port = port
	port.WatchIMU(&s.hw.hz, &s.hw.changed, s.bit)
	core.Bind(port)
	s.hw.hz.Invalidate()
}

// Unload empties the slot (partial reconfiguration begins). Engine must be
// paused; unbind the IMU channel as well so the stale port is dropped on
// both sides. The staging buffer is untouched — a pre-staged bitstream
// survives the resident core's eviction.
func (s *Slot) Unload() {
	s.wake()
	s.core = nil
	s.port = nil
	s.hw.hz.Invalidate()
}

// Stage places a coprocessor into the slot's staging buffer while the
// resident core (if any) keeps executing undisturbed. The caller models
// the configuration-port DMA time; the buffer itself is timeless.
func (s *Slot) Stage(core *copro.Seq) {
	s.staged = core
}

// Staged returns the staged coprocessor's name, or "" while the staging
// buffer is empty.
func (s *Slot) Staged() string {
	if s.staged == nil {
		return ""
	}
	return s.staged.Name()
}

// TakeStage empties the staging buffer and returns its coprocessor (nil if
// none was staged).
func (s *Slot) TakeStage() *copro.Seq {
	core := s.staged
	s.staged = nil
	return core
}

// CancelStage discards the staged bitstream (the job it was staged for went
// elsewhere); the resident core is untouched.
func (s *Slot) CancelStage() {
	s.staged = nil
}

// ticks reports whether shell edge edge is one of the core's own edges.
func (s *Slot) ticks(edge int64) bool { return s.div == 1 || edge%s.div == 0 }

// sleep withholds the resident core's next k edges after shell cycle now
// (see the Slot fields); k = sim.IdleForever withholds them until input.
func (s *Slot) sleep(now, k int64) {
	s.asleep = true
	s.from = now
	if s.div == 1 {
		s.until = now + min(k, sim.IdleForever-now)
		return
	}
	// The core's next edges fall on shell cycles (c+1)*div, (c+2)*div, ...
	// The first it is owed is the (k+1)-th.
	c := now / s.div
	if k >= sim.IdleForever/s.div-c-1 {
		s.until = sim.IdleForever
		return
	}
	s.until = (c+k+1)*s.div - 1
}

// withheld counts the core's edges after shell cycle s.from, up to and
// including shell cycle through.
func (s *Slot) withheld(through int64) int64 {
	if s.div == 1 {
		return through - s.from
	}
	return through/s.div - s.from/s.div
}

// wake hands a sleeping core the edges it was withheld up to the last
// delivered one, leaving it in exactly the state full delivery would have
// produced; the caller then delivers the current edge (if any) normally. A
// no-op while awake.
func (s *Slot) wake() { s.wakeThrough(s.hw.Dom.Cycles()) }

// wakeThrough hands a sleeping core the edges it was withheld up to and
// including shell cycle through.
func (s *Slot) wakeThrough(through int64) {
	if !s.asleep {
		return
	}
	s.asleep = false
	if n := s.withheld(through); n > 0 {
		s.core.SkipEdges(n)
		s.total += n
	}
}

// ShellHW is the dynamically-reconfigurable hardware assembly: one engine
// and one shell clock domain carrying the board's IMU plus a fixed set of
// slots whose resident coprocessors come and go at runtime. It is the only
// multi-tenant assembly. The IMU runs at the shell clock; every tenant
// runs at the shell clock or at a divisor of it (LoadSlot), the "recompiled
// against the shell's clock plan" regime of the sessions layer, so a slot
// can host any registered core without re-planning the engine. A slot
// whose core runs at shellHz/d is delivered the shell edges whose cycle is
// a multiple of d, exactly the edges a clock domain of its own would get;
// its sleep windows and the edges it is owed at wake count its own edges.
//
// ShellHW is the shell domain's one ticker, a composite that drives the
// awake resident cores and the board's IMU. The shell's wiring to the IMU
// is static, so the shell calls it directly: each edge evaluates the cores
// and then the IMU, and commits them in the same order — all Evals before
// any Update, the order of two tickers attached shell first — without
// going through the domain. The domain watches the IMU's horizon
// (sim.Domain.Watch), so it is skipped only while the IMU is idle too.
//
// Under the event-driven scheduler the shell puts a core to sleep after a
// delivered edge when the core advertises k > 0 inert edges — asked after
// every delivered edge, once the IMU has committed too, so the answer sees
// the bundle the core's next edge will. A sleeping core costs one compare
// per edge, and wakes — SkipEdges for the edges it missed, then this edge
// delivered normally — when its window ends or the IMU has committed a
// changed IMU-side bundle to its port (the port's change notice). So a
// core counting down a compute window stops costing host time while its
// neighbour works, which the domain-wide bulk-skip (every ticker idle at
// once) cannot achieve. The lockstep scheduler keeps delivering every edge
// to every core, which makes it the reference the sleeping path is checked
// against.
//
// Every slot has its port wired to its IMU channel's hit service, so a
// core at the top of its loop sleeps through a hit run like any other
// window and executes it when it wakes, while its neighbour keeps running:
// the run's LastUse stamps carry the edges of its accesses, and it touches
// only its own channel, its own session's TLB entries and DP RAM frames.
// Until it wakes, the TLB bits, DP RAM, IMU counters and bundles the run
// changes lag behind, so every call that hands control back to the OS
// (RunUntilEvent, Step, RunUntil) ends with Settle, which wakes every
// sleeping core. A divided core woken between two of its edges runs the
// rest of its window on the edge paths up to the current IMU edge.
//
// The shell publishes its idle horizon (sim.Publisher) from every Update:
// the earliest last-inert edge of its sleeping cores, busy while any core
// is awake. The port change notices and every OS-side poke (Load, Unload,
// CommitSlot, Slot.Core, SetWake, Settle) invalidate it.
//
// The ticker also carries the serving loop's wake deadline (SetWake): it
// bounds the shell's horizon so a bulk-skip lands exactly on the deadline,
// and RunUntilEvent stops there or at the IMU's interrupt.
type ShellHW struct {
	Eng   *sim.Engine
	Dom   *sim.Domain
	Slots []*Slot

	imu    *imu.IMU // the board's IMU, ticked after the cores
	wakeAt int64    // absolute shell cycle of the wake deadline; -1 disarmed

	hz      sim.Horizon
	changed uint32 // slots whose port the IMU committed a change to (Slot.bit)
}

// Horizon implements sim.Publisher.
func (hw *ShellHW) Horizon() *sim.Horizon { return &hw.hz }

// Eval implements sim.Ticker: wake every sleeping core whose window ended
// or whose port changed, evaluate every awake one, then the IMU.
func (hw *ShellHW) Eval() {
	edge := hw.Dom.Cycles() + 1
	for _, s := range hw.Slots {
		if s.core == nil {
			continue
		}
		if s.asleep {
			if edge <= s.until && hw.changed&s.bit == 0 {
				continue
			}
			s.wake()
		}
		if s.ticks(edge) {
			s.core.Eval()
		}
	}
	hw.changed = 0
	hw.imu.Eval()
}

// Update implements sim.Ticker: commit every awake core, then the IMU, and
// under the event-driven scheduler wake each sleeping core whose port the
// IMU just changed, put each awake core to sleep if it advertises inert
// edges and publish the shell's horizon. The cores are asked after the
// IMU's commit, on the bundle their next edge reads: a core draining its
// last response is asked once CP_TLBHIT has fallen, before its next Eval
// issues the next request, so it can open a hit run.
func (hw *ShellHW) Update() {
	edge := hw.Dom.Cycles() + 1
	for _, s := range hw.Slots {
		if s.core != nil && !s.asleep && s.ticks(edge) {
			s.core.Update()
		}
	}
	hw.imu.Update()
	if hw.Eng.Scheduler() != sim.EventDriven {
		return
	}
	at := hw.deadline()
	for _, s := range hw.Slots {
		if s.core == nil {
			continue
		}
		if s.asleep && hw.changed&s.bit != 0 {
			// The IMU changed the sleeping core's port this edge, after the
			// core's Eval would have read it: this edge was still inert.
			s.wakeThrough(edge)
		}
		if !s.asleep {
			// The answer is given on the bundle the IMU just committed.
			hw.changed &^= s.bit
			if k := s.core.IdleEdges(); k > 0 {
				s.sleep(edge, k)
			}
		}
		if !s.asleep {
			at = edge
		} else if s.until < at {
			at = s.until
		}
	}
	k := sim.IdleForever
	if at < sim.IdleForever {
		k = at - edge
	}
	hw.hz.Publish(k)
}

// deadline is the wake deadline's share of the shell's horizon. While
// armed, the horizon ends one edge before the deadline: the engine delivers
// a normal edge at the wake horizon after consuming the claimed window, so
// that delivered edge lands exactly on the deadline — the cycle at which
// the lockstep scheduler's run also stops — keeping the two schedulers
// bit-identical. Once the deadline is reached the shell reads busy until it
// is re-armed.
func (hw *ShellHW) deadline() int64 {
	if hw.wakeAt >= 0 {
		return hw.wakeAt - 1
	}
	return sim.IdleForever
}

// IdleEdges implements sim.BulkIdler: the query behind a stale horizon.
// Every core that is awake, or whose port changed, answers for itself (a
// changed one is woken first) and sleeps through the window it advertises
// — every slot is asked, so one busy core does not keep its neighbour from
// opening a window; the answer is the edges before the earliest window
// end, further bounded by the wake deadline. A core asleep until input
// whose port changed reads busy without being asked: the change is the
// input it was waiting for.
func (hw *ShellHW) IdleEdges() int64 {
	now := hw.Dom.Cycles()
	at := hw.deadline()
	if at <= now {
		return 0
	}
	busy := false
	for _, s := range hw.Slots {
		if s.core == nil {
			continue
		}
		if s.asleep && hw.changed&s.bit != 0 {
			if s.until == sim.IdleForever {
				busy = true
				continue
			}
			s.wake()
		}
		hw.changed &^= s.bit
		if !s.asleep {
			k := s.core.IdleEdges()
			if k <= 0 {
				busy = true
				continue
			}
			s.sleep(now, k)
		}
		at = min(at, s.until)
	}
	switch {
	case busy:
		return 0
	case at == sim.IdleForever:
		return at
	}
	return at - now
}

// SkipEdges implements sim.BulkIdler. The engine skips the shell only while
// its horizon says idle, which every resident core is then asleep for, and
// a sleeping core is handed the edges it missed when it wakes: nothing to
// replay here.
func (hw *ShellHW) SkipEdges(k int64) {}

// SleptEdges counts the core edges withheld from sleeping cores so far,
// across all slots (reporting only: it never perturbs the schedule).
func (hw *ShellHW) SleptEdges() int64 {
	n := int64(0)
	for _, s := range hw.Slots {
		n += s.total
		if s.asleep {
			n += s.withheld(hw.Dom.Cycles())
		}
	}
	return n
}

// SetWake arms the wake deadline at absolute shell cycle at (-1 disarms).
func (hw *ShellHW) SetWake(at int64) {
	hw.wakeAt = at
	hw.hz.Invalidate()
}

// RunUntilEvent advances the shell until the IMU raises its interrupt or
// the armed wake deadline is reached (both checked before every edge,
// exactly like RunUntil with a predicate), or until budget edges have
// passed, and settles. It returns the edges consumed and the engine's
// error. No bulk-skip crosses the deadline (IdleEdges bounds it):
// capping the run at the cycles left before the deadline stops it exactly
// there, with the interrupt line as the only flag polled. A core asleep in
// a hit run raises no interrupt, so the run stops where full delivery
// would.
func (hw *ShellHW) RunUntilEvent(budget int64) (int64, error) {
	limit, deadline := budget, false
	if hw.wakeAt >= 0 {
		if rem := hw.wakeAt - hw.Dom.Cycles(); rem <= budget {
			limit, deadline = rem, true
		}
	}
	n, err := hw.Eng.RunUntilFlag(hw.imu.IRQRef(), limit)
	hw.Settle()
	if deadline && errors.Is(err, sim.ErrBudget) {
		err = nil
	}
	return n, err
}

// Step delivers one engine step (sim.Engine.Step) and settles.
func (hw *ShellHW) Step() {
	hw.Eng.Step()
	hw.Settle()
}

// RunUntil runs the engine until done (sim.Engine.RunUntil) and settles.
// done is asked between edges, before the cores are caught up: it
// may read only what a sleeping core's window leaves in place, such as the
// interrupt line or a finished core's CP_FIN.
func (hw *ShellHW) RunUntil(done func() bool, maxEdges int64) (int64, error) {
	n, err := hw.Eng.RunUntil(done, maxEdges)
	hw.Settle()
	return n, err
}

// Settle wakes every sleeping core, so it holds exactly the state full edge
// delivery would have left at the current cycle, and so do the TLB, the DP
// RAM, the IMU counters and the port bundles a hit run changes as it
// executes. The shell's run calls end with it; a caller that runs Eng
// directly calls it before the OS reads or writes the hardware. Frames are
// session-disjoint, so the order in which the slots' runs land cannot
// change the DP RAM.
func (hw *ShellHW) Settle() {
	for _, s := range hw.Slots {
		s.wake()
	}
	hw.hz.Invalidate()
}

// AssembleShell builds an nslots-slot shell clocked at shellHz: the IMU is
// reconfigured to one channel per slot, and channel i serves whatever core
// is currently loaded into Slots[i]. The shell ticker is the domain's only
// ticker and drives the IMU itself, after the cores (two-phase semantics
// make the order unobservable to the model). The domain watches the IMU's horizon after the shell's, so
// the engine's idleness probe asks the shell — whose awake cores answer
// from their FSM state alone — before the IMU's CAM lookups.
func (b *Board) AssembleShell(shellHz int64, nslots int) (*ShellHW, error) {
	if nslots <= 0 {
		return nil, fmt.Errorf("platform: shell needs at least one slot")
	}
	if shellHz <= 0 {
		return nil, fmt.Errorf("platform: non-positive shell clock %d", shellHz)
	}
	if err := b.IMU.SetChannels(nslots); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	dom := eng.NewDomain("shell", shellHz)
	hw := &ShellHW{Eng: eng, Dom: dom, imu: b.IMU, wakeAt: -1}
	for i := 0; i < nslots; i++ {
		hw.Slots = append(hw.Slots, &Slot{hw: hw, bit: 1 << i, div: 1})
	}
	dom.Attach(hw)
	dom.Watch(b.IMU)
	return hw, nil
}

// LoadSlot loads core into slot i over a fresh port, running at coreHz,
// and binds the IMU channel to it. coreHz must divide the shell clock, so
// a core can be no faster than the shell. The port is wired to the IMU
// channel's hit service at the slot's divisor and at the phase of the
// current cycle within it, so the core takes hit runs whatever its clock
// and whenever it is loaded. Engine must be paused.
func (hw *ShellHW) LoadSlot(b *Board, i int, core *copro.Seq, coreHz int64) error {
	shellHz := hw.Dom.FreqHz()
	if coreHz <= 0 || shellHz%coreHz != 0 {
		return fmt.Errorf("platform: core clock %d Hz does not divide the %d Hz shell clock", coreHz, shellHz)
	}
	s := hw.Slots[i]
	port := copro.NewPort()
	div := shellHz / coreHz
	port.ServeHits(&s.wire, b.IMU.HitService(i), div, hw.Dom.Cycles()%div)
	s.Load(core, port)
	s.div = div
	b.IMU.BindCh(i, port)
	return nil
}

// UnloadSlot empties slot i and unbinds its IMU channel (partial
// reconfiguration begins; the other slots keep running).
func (hw *ShellHW) UnloadSlot(b *Board, i int) {
	hw.Slots[i].Unload()
	b.IMU.UnbindCh(i)
}

// CommitSlot swaps slot i's staged coprocessor in for the resident one:
// the old core is dropped, the staged core becomes resident at the shell
// clock over a fresh port and the IMU channel rebinds to it. The caller
// models the fixed
// commit latency — the double-buffered configuration swap, not a
// configuration-port stream. Engine must be paused.
func (hw *ShellHW) CommitSlot(b *Board, i int) error {
	core := hw.Slots[i].TakeStage()
	if core == nil {
		return fmt.Errorf("platform: slot %d has no staged coprocessor to commit", i)
	}
	hw.UnloadSlot(b, i)
	return hw.LoadSlot(b, i, core, hw.Dom.FreqHz())
}
