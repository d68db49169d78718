package core

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/vim"
)

// Member is one tenant of a Gang: a coprocessor loaded into a shell slot
// with its VIM session, its process, and its scalar parameters for the next
// Launch (or ExecuteAll).
type Member struct {
	Sess   *vim.Session
	Proc   *kernel.Process
	Params []uint32

	header bitstream.Header

	done   bool
	donePs float64
	swDP   float64
	swIMU  float64
	swOS   float64
}

// App returns the member's coprocessor name (its bitstream identity).
func (mb *Member) App() string { return mb.header.Core }

// Done reports whether the member's coprocessor has completed and been
// flushed.
func (mb *Member) Done() bool { return mb.done }

// DonePs is the hardware-timeline instant of the member's completion.
func (mb *Member) DonePs() float64 { return mb.donePs }

// SW returns the member's attributed slices of the software components
// (dual-port management, IMU management, OS overhead), in picoseconds.
func (mb *Member) SW() (dp, imu, os float64) { return mb.swDP, mb.swIMU, mb.swOS }

// Gang runs several coprocessor sessions concurrently behind one Virtual
// Interface Manager on one board — the multi-tenant shape of the sessions
// layer. Its hardware is a reconfigurable shell (platform.ShellHW): a fixed
// set of slots, each wired to one IMU channel, in which members attach and
// detach at runtime. AttachMember loads a coprocessor into a slot and
// admits its session while other members keep executing, Launch starts it,
// ServicePending services whatever faults and completions are pending, and
// DetachMember reclaims the finished member's resources. The rcsched
// scheduler drives this loop under a multi-user job stream; ExecuteAll
// drives it for a fixed set of members run side by side.
type Gang struct {
	Board *platform.Board
	M     *vim.Manager
	Shell *platform.ShellHW

	// bySlot is the roster: the member currently occupying each slot (nil
	// when the slot is free or reconfiguring).
	bySlot []*Member
}

// NewGang builds an empty gang over board with the given inter-session
// arbitration policy: an nslots-slot reconfigurable shell clocked at
// shellHz whose members attach and detach at runtime.
func NewGang(board *platform.Board, arb vim.Arbitration, shellHz int64, nslots int) (*Gang, error) {
	shell, err := board.AssembleShell(shellHz, nslots)
	if err != nil {
		return nil, err
	}
	m, err := vim.NewManager(board.Kern, board.IMU, platform.DPBase, platform.IMURegBase,
		board.DP.PageSize(), arb)
	if err != nil {
		return nil, err
	}
	return &Gang{Board: board, M: m, Shell: shell, bySlot: make([]*Member, nslots)}, nil
}

// SessionReport is one member's share of a gang execution.
type SessionReport struct {
	App    string
	Policy string

	// The member's slices of the software components, in picoseconds.
	SWDPPs  float64
	SWIMUPs float64
	SWOSPs  float64

	// DonePs is the hardware-timeline instant at which the member's
	// coprocessor signalled completion.
	DonePs float64

	VIM vim.Counters // the member session's counters
	IMU imu.Counters // the member channel's counters
}

// MultiReport aggregates one gang execution: the shared hardware timeline
// plus one SessionReport per member.
type MultiReport struct {
	Board   string
	Arb     string
	IMUMode string

	HWPs    float64
	SWDPPs  float64
	SWIMUPs float64
	SWOSPs  float64
	HWCy    int64 // IMU-domain cycles consumed

	VIM vim.Counters // aggregate across sessions
	IMU imu.Counters // aggregate across channels

	Sessions []SessionReport
}

// TotalPs is the end-to-end execution time of the gang run (last member
// in, all fault service included).
func (r *MultiReport) TotalPs() float64 {
	return r.HWPs + r.SWDPPs + r.SWIMUPs + r.SWOSPs
}

// TotalMs is TotalPs in milliseconds.
func (r *MultiReport) TotalMs() float64 { return r.TotalPs() / 1e9 }

// Report flattens the gang run into the single-run Report shape (golden
// cells, report printers); App and Policy describe the gang as a whole.
func (r *MultiReport) Report() *Report {
	apps := ""
	for i, s := range r.Sessions {
		if i > 0 {
			apps += "+"
		}
		apps += s.App
	}
	return &Report{
		App:     apps,
		Board:   r.Board,
		Policy:  r.Arb,
		IMUMode: r.IMUMode,
		HWPs:    r.HWPs,
		SWDPPs:  r.SWDPPs,
		SWIMUPs: r.SWIMUPs,
		SWOSPs:  r.SWOSPs,
		VIM:     r.VIM,
		IMU:     r.IMU,
		HWCy:    r.HWCy,
	}
}

// ServicePending runs one service pass over the occupied slots in slot
// order, the deterministic service order: a pending completion triggers the
// session's end-of-operation flush and the acknowledge, a translation fault
// the demand-paging service. It returns the members that finished; serviced
// is false when the pass found nothing to do (an IRQ that was already
// consumed).
func (g *Gang) ServicePending() (finished []*Member, serviced bool, err error) {
	for _, mb := range g.bySlot {
		if mb == nil || mb.done {
			continue
		}
		ch := mb.Sess.ID()
		if g.Board.IMU.DonePendingCh(ch) {
			sw := g.swSnap()
			if err := mb.Sess.Finish(); err != nil {
				return nil, false, err
			}
			mb.addSW(g.swSnap(), sw)
			g.Board.IMU.AckDoneCh(ch)
			mb.done = true
			mb.donePs = g.Shell.Eng.NowPs()
			finished = append(finished, mb)
			serviced = true
			continue
		}
		if g.Board.IMU.FaultPendingCh(ch) {
			sw := g.swSnap()
			if err := mb.Sess.HandleFault(); err != nil {
				return nil, false, fmt.Errorf("core: session %d (%s): %w", ch, mb.header.Core, err)
			}
			mb.addSW(g.swSnap(), sw)
			serviced = true
		}
	}
	return finished, serviced, nil
}

// swSnap samples the three software components of the shared timeline so
// per-member deltas can be attributed around each service call.
func (g *Gang) swSnap() [3]float64 {
	tl := g.Board.Kern.TL
	return [3]float64{tl.Ps(stats.SWDP), tl.Ps(stats.SWIMU), tl.Ps(stats.SWOS)}
}

func (mb *Member) addSW(after, before [3]float64) {
	mb.swDP += after[0] - before[0]
	mb.swIMU += after[1] - before[1]
	mb.swOS += after[2] - before[2]
}

// ExecuteAll implements FPGA_EXECUTE for every member at once: parameter
// passing and initial mapping per session, concurrent launch, interruptible
// sleep with per-channel fault service, and per-session end-of-operation
// flush as each coprocessor completes. It returns when the last member is
// done.
//
// Modelling note: the engine pauses while the OS services any channel, so
// a fault on one session also stalls the others for the service duration —
// the single-CPU system is serialised through the kernel exactly like the
// real module, but hardware that could have kept running in parallel with
// the CPU is not modelled (documented in docs/ARCHITECTURE.md).
func (g *Gang) ExecuteAll() (*MultiReport, error) {
	var members []*Member
	for _, mb := range g.bySlot {
		if mb != nil {
			members = append(members, mb)
		}
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("core: gang has no members")
	}
	tl := g.Board.Kern.TL
	tl.Reset()
	g.M.ResetCounters()
	g.Board.IMU.ResetCounters()
	for _, mb := range members {
		mb.swDP, mb.swIMU, mb.swOS = 0, 0, 0
		if err := g.Launch(mb); err != nil {
			return nil, err
		}
	}

	sh := g.Shell
	eng := sh.Eng
	startCy := sh.Dom.Cycles()
	hwPs := 0.0
	budget := DefaultBudget
	for remaining := len(members); remaining > 0; {
		before := eng.NowPs()
		n, err := sh.RunUntilEvent(budget)
		hwPs += eng.NowPs() - before
		budget -= n
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBudget, err)
		}
		finished, serviced, err := g.ServicePending()
		if err != nil {
			return nil, err
		}
		remaining -= len(finished)
		if !serviced {
			return nil, fmt.Errorf("core: IRQ with no serviceable channel (SR0=%#x)", g.Board.IMU.SR())
		}
		// Let restarts and acks propagate before re-checking the IRQ line
		// (requests are consumed at the next edge).
		before = eng.NowPs()
		sh.Step()
		sh.Step()
		hwPs += eng.NowPs() - before
		budget -= 2
	}
	// Drain until every core has observed CP_START falling and dropped
	// CP_FIN, so a later ExecuteAll starts clean even with divided core
	// clocks.
	before := eng.NowPs()
	if _, err := sh.RunUntil(func() bool {
		if g.Board.IMU.IRQ() {
			return false
		}
		for _, mb := range members {
			if sh.Slots[mb.Sess.ID()].Port().CP().Fin {
				return false
			}
		}
		return true
	}, 256*int64(len(members))); err != nil {
		return nil, fmt.Errorf("core: completion handshake did not drain: %v", err)
	}
	hwPs += eng.NowPs() - before
	tl.Add(stats.HW, hwPs)

	rep := &MultiReport{
		Board:   g.Board.Spec.Name,
		Arb:     g.M.Arbitration().String(),
		IMUMode: g.Board.IMU.Config().Mode.String(),
		HWPs:    tl.Ps(stats.HW),
		SWDPPs:  tl.Ps(stats.SWDP),
		SWIMUPs: tl.Ps(stats.SWIMU),
		SWOSPs:  tl.Ps(stats.SWOS),
		HWCy:    sh.Dom.Cycles() - startCy,
		VIM:     g.M.Count,
		IMU:     g.Board.IMU.Count,
	}
	for _, mb := range members {
		rep.Sessions = append(rep.Sessions, SessionReport{
			App:     mb.header.Core,
			Policy:  mb.Sess.Config().Policy.Name(),
			SWDPPs:  mb.swDP,
			SWIMUPs: mb.swIMU,
			SWOSPs:  mb.swOS,
			DonePs:  mb.donePs,
			VIM:     mb.Sess.Count,
			IMU:     g.Board.IMU.ChCounters(mb.Sess.ID()),
		})
	}
	return rep, nil
}

// Slots returns the shell slot count.
func (g *Gang) Slots() int { return len(g.bySlot) }

// SlotMember returns the member currently occupying slot i, or nil.
func (g *Gang) SlotMember(i int) *Member { return g.bySlot[i] }

// AttachMember admits a new member into shell slot i while the rest of the
// gang keeps executing: the bit-stream is validated against the board, the
// coprocessor is placed into the slot at coreHz (0: the shell clock; it
// must divide the shell clock) — reusing the resident core when its
// identity already matches (the zero-cost path bitstream-affinity
// scheduling exploits; the caller models reconfiguration time otherwise,
// having emptied the slot with BeginReconfig first) — and a fresh VIM
// session is attached on the slot's IMU channel with an nframes home
// partition. The member is not started; call Launch.
func (g *Gang) AttachMember(slot int, img []byte, nframes int, cfg vim.Config, coreHz int64) (*Member, error) {
	if err := g.checkSlot(slot); err != nil {
		return nil, err
	}
	if g.bySlot[slot] != nil {
		return nil, fmt.Errorf("core: slot %d already occupied by %q", slot, g.bySlot[slot].App())
	}
	h, err := bitstream.Parse(img)
	if err != nil {
		return nil, err
	}
	sl := g.Shell.Slots[slot]
	var cp *copro.Seq
	if sl.Resident() == h.Core {
		// Bitstream affinity: the requested core is already configured into
		// the slot, so no configuration data moves — reset and rebind it.
		cp = sl.Core()
	} else {
		if _, cp, err = bitstream.Instantiate(img, g.Board.Spec.Name); err != nil {
			return nil, err
		}
	}
	if coreHz == 0 {
		coreHz = g.Shell.Dom.FreqHz()
	}
	if err := g.Shell.LoadSlot(g.Board, slot, cp, coreHz); err != nil {
		return nil, err
	}
	// A failed attach leaves the core resident in the free slot, as a
	// detach does.
	sess, err := g.M.Attach(cfg, nframes, slot)
	if err != nil {
		return nil, err
	}
	mb := &Member{
		Sess:   sess,
		Proc:   g.Board.Kern.NewProcess(h.Core),
		header: h,
	}
	g.bySlot[slot] = mb
	return mb, nil
}

// checkSlot rejects a slot index outside the shell.
func (g *Gang) checkSlot(slot int) error {
	if slot < 0 || slot >= len(g.bySlot) {
		return fmt.Errorf("core: slot %d out of range [0,%d)", slot, len(g.bySlot))
	}
	return nil
}

// BeginReconfig empties slot i for partial reconfiguration: the resident
// core is dropped and the IMU channel unbound while every other channel
// keeps translating. The caller models the configuration-port time (derived
// from the incoming bit-stream's size) before calling AttachMember.
func (g *Gang) BeginReconfig(slot int) error {
	if err := g.checkSlot(slot); err != nil {
		return err
	}
	if g.bySlot[slot] != nil {
		return fmt.Errorf("core: reconfiguring slot %d still occupied by %q", slot, g.bySlot[slot].App())
	}
	g.Shell.UnloadSlot(g.Board, slot)
	return nil
}

// BeginStage starts pre-staging a bitstream into slot i's staging buffer:
// the coprocessor is instantiated and parked in the buffer while whatever
// member occupies the slot keeps executing. The caller models the
// configuration-port DMA time; once the member detaches, CommitStage swaps
// the staged core in for a fixed commit latency instead of a full
// configuration stream.
func (g *Gang) BeginStage(slot int, img []byte) error {
	if err := g.checkSlot(slot); err != nil {
		return err
	}
	sl := g.Shell.Slots[slot]
	if sl.Staged() != "" {
		return fmt.Errorf("core: slot %d already staging %q", slot, sl.Staged())
	}
	_, cp, err := bitstream.Instantiate(img, g.Board.Spec.Name)
	if err != nil {
		return err
	}
	sl.Stage(cp)
	return nil
}

// CommitStage swaps slot i's staged coprocessor in for the resident one.
// The slot must be unoccupied (its member detached); the caller models the
// fixed commit latency before the next AttachMember, which then finds the
// staged core resident and reuses it with zero configuration traffic.
func (g *Gang) CommitStage(slot int) error {
	if err := g.checkSlot(slot); err != nil {
		return err
	}
	if g.bySlot[slot] != nil {
		return fmt.Errorf("core: committing staged core into slot %d still occupied by %q",
			slot, g.bySlot[slot].App())
	}
	return g.Shell.CommitSlot(g.Board, slot)
}

// CancelStage discards slot i's staged bitstream — the job it was staged
// for dispatched elsewhere. The resident core and every running neighbour
// are untouched.
func (g *Gang) CancelStage(slot int) error {
	if err := g.checkSlot(slot); err != nil {
		return err
	}
	if g.Shell.Slots[slot].Staged() == "" {
		return fmt.Errorf("core: slot %d has no staged coprocessor to cancel", slot)
	}
	g.Shell.Slots[slot].CancelStage()
	return nil
}

// Launch implements the FPGA_EXECUTE entry for one member:
// syscall charge, parameter page and initial mapping on its session, and
// CP_START on its channel. The engine is not run; the serving loop resumes
// it.
func (g *Gang) Launch(mb *Member) error {
	g.Board.Kern.ChargeSyscall()
	before := g.swSnap()
	if err := mb.Sess.PrepareExecute(mb.Params); err != nil {
		return err
	}
	mb.addSW(g.swSnap(), before)
	mb.done = false
	mb.donePs = 0
	g.Board.IMU.StartCh(mb.Sess.ID())
	return nil
}

// DetachMember reclaims a finished member's session — frames, translation
// entries and session slot — and frees its shell slot. The resident core
// stays configured in the slot so a later member running the same
// application can attach without reconfiguration.
func (g *Gang) DetachMember(mb *Member) error {
	slot := mb.Sess.ID()
	if g.bySlot[slot] != mb {
		return fmt.Errorf("core: member %q not current in slot %d", mb.App(), slot)
	}
	if err := g.M.Detach(mb.Sess); err != nil {
		return err
	}
	g.bySlot[slot] = nil
	return nil
}
