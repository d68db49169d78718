// Package core binds the pieces of the virtualisation layer — the platform
// board, the kernel model, the Virtual Interface Manager and the loaded
// coprocessor — into a Session that executes the paper's three OS services
// (FPGA_LOAD, FPGA_MAP_OBJECT, FPGA_EXECUTE) on a single coherent timeline.
//
// The timeline alternates exactly as on the real system: hardware segments
// are cycle-simulated until the IMU raises an interrupt (fault or
// completion); the coprocessor is then stalled while the timed software
// model services the event; simulation resumes afterwards. Each segment
// lands in the paper's measurement buckets (HW, SW dual-port management,
// SW IMU management, plus residual OS overhead).
//
// Beyond the paper's single-tenant shape, a Gang (multi.go) runs several
// loaded coprocessors concurrently behind one multi-session manager, in the
// slots of a reconfigurable shell (platform.ShellHW) whose cores run at the
// shell clock or a divisor of it: every member owns a slot, a VIM session
// and the slot's IMU channel, faults and completions are serviced per
// channel from one interruptible sleep, and the MultiReport splits the
// shared timeline into per-session shares. The rcsched serving layer drives
// the same gang under a job stream.
package core

import (
	"errors"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/imu"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vim"
)

// Errors returned by Session operations.
var (
	ErrNoBitstream = errors.New("core: FPGA_EXECUTE before FPGA_LOAD")
	ErrBusy        = errors.New("core: PLD already configured by another session")
	ErrBudget      = errors.New("core: execution exceeded the simulation budget")
)

// DefaultBudget bounds one FPGA_EXECUTE in simulated shell edges.
const DefaultBudget = int64(200_000_000)

// ConfigClockHz is the passive-serial configuration clock used to charge
// bit-stream load time.
const ConfigClockHz = 10_000_000

// Session executes applications through the virtual interface.
type Session struct {
	Board *platform.Board
	Proc  *kernel.Process
	VIM   *vim.Manager
	HW    *platform.ShellHW // a one-slot shell while loaded

	header   bitstream.Header
	loaded   bool
	configPs float64
}

// NewSession creates a session for proc on board with the given VIM
// configuration.
func NewSession(board *platform.Board, proc *kernel.Process, vimCfg vim.Config) (*Session, error) {
	m, err := vim.New(board.Kern, board.IMU, platform.DPBase, platform.IMURegBase,
		board.DP.PageSize(), vimCfg)
	if err != nil {
		return nil, err
	}
	return &Session{Board: board, Proc: proc, VIM: m}, nil
}

// Load implements FPGA_LOAD: it validates the bit-stream, instantiates the
// registered coprocessor model ("configures the PLD"), assembles a one-slot
// shell at the bitstream's IMU clock with the core loaded at its core
// clock, and accounts the configuration time. A core clock that is not a
// divisor of the IMU clock is an error. The PLD is held exclusively by this
// session until Unload.
func (s *Session) Load(img []byte) error {
	if s.loaded {
		return ErrBusy
	}
	s.Board.Kern.ChargeSyscall()
	h, cp, err := bitstream.Instantiate(img, s.Board.Spec.Name)
	if err != nil {
		return err
	}
	hw, err := s.Board.AssembleShell(h.IMUClock, 1)
	if err != nil {
		return err
	}
	if err := hw.LoadSlot(s.Board, 0, cp, h.CoreClock); err != nil {
		return err
	}
	// Configuration time: flash readout plus shifting the image into the
	// PLD at the configuration clock. Reported separately, as the paper's
	// per-run measurements exclude FPGA_LOAD.
	if err := s.Board.Flash.Program(0, img); err != nil {
		return err
	}
	_, flashCycles, err := s.Board.Flash.ReadImage(0, len(img))
	if err != nil {
		return err
	}
	s.configPs = float64(flashCycles)*1e12/float64(s.Board.Spec.CPUHz) +
		float64(bitstream.ConfigCycles(img))*1e12/float64(ConfigClockHz)
	s.header = h
	s.HW = hw
	s.loaded = true
	return nil
}

// Unload releases the PLD.
func (s *Session) Unload() {
	s.loaded = false
	s.HW = nil
	s.VIM.UnmapAll()
}

// MapObject implements FPGA_MAP_OBJECT.
func (s *Session) MapObject(id uint8, base, size uint32, dir vim.Direction) error {
	s.Board.Kern.ChargeSyscall()
	return s.VIM.MapObject(id, base, size, dir)
}

// Report aggregates one execution's measurements.
type Report struct {
	App     string
	Board   string
	Policy  string
	IMUMode string

	// The paper's execution-time components, in picoseconds.
	HWPs    float64
	SWDPPs  float64
	SWIMUPs float64
	SWOSPs  float64

	// PurePs is set instead of the above for software-only runs.
	PurePs float64

	// ConfigPs is the FPGA_LOAD configuration time (not part of TotalPs).
	ConfigPs float64

	VIM  vim.Counters
	IMU  imu.Counters
	HWCy int64 // IMU-domain cycles consumed

	// Sim is the engine's scheduling tallies over the run: how many edges
	// the host delivered and skipped. It measures the simulator, not the
	// simulated system, so it differs between schedulers.
	Sim sim.Stats
}

// TotalPs is the end-to-end execution time of the run.
func (r *Report) TotalPs() float64 {
	if r.PurePs > 0 {
		return r.PurePs
	}
	return r.HWPs + r.SWDPPs + r.SWIMUPs + r.SWOSPs
}

// TotalMs is TotalPs in milliseconds.
func (r *Report) TotalMs() float64 { return r.TotalPs() / 1e9 }

// SWPs is the total operating-system time of the run.
func (r *Report) SWPs() float64 { return r.SWDPPs + r.SWIMUPs + r.SWOSPs }

// Execute implements FPGA_EXECUTE: initial mapping and parameter passing,
// coprocessor start, interruptible sleep with fault service, and end-of-
// operation flush. It returns the measured report.
func (s *Session) Execute(params ...uint32) (*Report, error) {
	if !s.loaded {
		return nil, ErrNoBitstream
	}
	k := s.Board.Kern
	tl := k.TL
	tl.Reset()
	s.VIM.ResetCounters()
	s.Board.IMU.ResetCounters()

	k.ChargeSyscall()
	if err := s.VIM.PrepareExecute(params); err != nil {
		return nil, err
	}
	s.Board.IMU.Start()

	hw := s.HW
	eng := hw.Eng
	startCy := hw.Dom.Cycles()
	startSim := eng.Stats()
	hwPs := 0.0
	budget := DefaultBudget
	// The interruptible sleep polls the IRQ line through the engine's
	// flag-based loop (RunUntilEvent, with no wake deadline armed):
	// edge-exact, since the cycle counters feed the measured components,
	// but free of the per-edge closure call of RunUntil.
	for {
		before := eng.NowPs()
		n, err := hw.RunUntilEvent(budget)
		hwPs += eng.NowPs() - before
		budget -= n
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBudget, err)
		}
		if s.Board.IMU.DonePending() {
			if err := s.VIM.Finish(); err != nil {
				return nil, err
			}
			s.Board.IMU.AckDone()
			// Drain until the core has observed CP_START falling and
			// dropped CP_FIN, so a later FPGA_EXECUTE starts clean even
			// with a slow coprocessor clock.
			before = eng.NowPs()
			port := hw.Slots[0].Port()
			if _, err := hw.RunUntil(func() bool {
				return !port.CP().Fin && !s.Board.IMU.IRQ()
			}, 256); err != nil {
				return nil, fmt.Errorf("core: completion handshake did not drain: %v", err)
			}
			hwPs += eng.NowPs() - before
			break
		}
		if s.Board.IMU.FaultPending() {
			if err := s.VIM.HandleFault(); err != nil {
				return nil, err
			}
			// Let the restart propagate before re-checking the IRQ
			// line (the request is consumed at the next edge).
			before = eng.NowPs()
			hw.Step()
			hw.Step()
			hwPs += eng.NowPs() - before
			budget -= 2
			continue
		}
		return nil, fmt.Errorf("core: IRQ with neither fault nor completion pending (SR=%#x)", s.Board.IMU.SR())
	}
	tl.Add(stats.HW, hwPs)

	return &Report{
		App:      s.header.Core,
		Board:    s.Board.Spec.Name,
		Policy:   s.VIM.Config().Policy.Name(),
		IMUMode:  s.Board.IMU.Config().Mode.String(),
		HWPs:     tl.Ps(stats.HW),
		SWDPPs:   tl.Ps(stats.SWDP),
		SWIMUPs:  tl.Ps(stats.SWIMU),
		SWOSPs:   tl.Ps(stats.SWOS),
		ConfigPs: s.configPs,
		VIM:      s.VIM.Count,
		IMU:      s.Board.IMU.Count,
		HWCy:     hw.Dom.Cycles() - startCy,
		Sim:      eng.Stats().Since(startSim),
	}, nil
}

// RunSoftware measures a pure-software execution of fn on the board's CPU
// (the paper's "pure SW version ... running on top of the OS").
func RunSoftware(board *platform.Board, name string, fn func()) *Report {
	board.CPU.ResetStats()
	board.Kern.ChargeSyscall() // entering/leaving the measured region
	fn()
	cycles := board.CPU.Cycles()
	return &Report{
		App:    name,
		Board:  board.Spec.Name,
		PurePs: float64(cycles) * 1e12 / float64(board.Spec.CPUHz),
	}
}
