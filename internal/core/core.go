// Package core binds the pieces of the virtualisation layer — the platform
// board, the kernel model, the Virtual Interface Manager and the loaded
// coprocessors — into the paper's three OS services (FPGA_LOAD,
// FPGA_MAP_OBJECT, FPGA_EXECUTE) on a single coherent timeline.
//
// The timeline alternates exactly as on the real system: hardware segments
// are cycle-simulated until the IMU raises an interrupt (fault or
// completion); the coprocessors are then stalled while the timed software
// model services the event; simulation resumes afterwards. Each segment
// lands in the paper's measurement buckets (HW, SW dual-port management,
// SW IMU management, plus residual OS overhead).
//
// A Gang (multi.go) runs loaded coprocessors in the slots of a
// reconfigurable shell (platform.ShellHW) whose cores run at the shell
// clock or a divisor of it, behind one multi-session manager: every member
// owns a slot, a VIM session and the slot's IMU channel, and faults and
// completions are serviced per channel from one interruptible sleep, the
// one FPGA_EXECUTE loop (Gang.ExecuteAll). A Session, the paper's single
// tenant, is a one-member gang whose member spans the whole page pool; the
// rcsched serving layer drives the same gang under a job stream. Every
// execution is described by one Report, which splits the shared timeline
// into per-member shares.
package core

import (
	"errors"

	"repro/internal/bitstream"
	"repro/internal/imu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/vim"
)

// Errors returned by Session operations.
var (
	ErrNoBitstream = errors.New("core: no coprocessor loaded (FPGA_LOAD first)")
	ErrBusy        = errors.New("core: PLD already configured by another session")
	ErrBudget      = errors.New("core: execution exceeded the simulation budget")
)

// DefaultBudget bounds one FPGA_EXECUTE in simulated shell edges.
const DefaultBudget = int64(200_000_000)

// ConfigClockHz is the passive-serial configuration clock used to charge
// bit-stream load time.
const ConfigClockHz = 10_000_000

// Session executes one application through the virtual interface: a
// one-slot gang, built by Load, whose only member is the paper's original
// module on IMU channel 0 spanning the whole page pool.
type Session struct {
	Board *platform.Board
	HW    *platform.ShellHW // the gang's one-slot shell while loaded, else nil

	cfg      vim.Config
	configPs float64

	// The gang, its member and its roster live in the session, so a load
	// and an execution allocate no more than the manager and shell need.
	gang   Gang
	member Member
	roster [1]*Member
}

// NewSession creates an unloaded session on board with the given VIM
// configuration.
func NewSession(board *platform.Board, vimCfg vim.Config) *Session {
	return &Session{Board: board, cfg: vimCfg}
}

// Load implements FPGA_LOAD: it validates the bit-stream, instantiates the
// registered coprocessor model ("configures the PLD"), builds a one-slot
// gang at the bitstream's IMU clock whose member, loaded at its core clock,
// owns every page frame, and accounts the configuration time. A core clock
// that is not a divisor of the IMU clock is an error. The PLD is held
// exclusively by this session until Unload.
func (s *Session) Load(img []byte) error {
	if s.HW != nil {
		return ErrBusy
	}
	s.Board.Kern.ChargeSyscall()
	h, cp, err := bitstream.Instantiate(img, s.Board.Spec.Name)
	if err != nil {
		return err
	}
	if err := s.gang.init(s.Board, vim.StaticPartition, h.IMUClock, s.roster[:]); err != nil {
		return err
	}
	if err := s.gang.attach(&s.member, 0, h, cp, s.Board.DP.Pages(), s.cfg, h.CoreClock); err != nil {
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
	s.HW = s.gang.Shell
	return nil
}

// Unload releases the PLD and detaches the member, so a later Load starts
// from a fresh VIM session.
func (s *Session) Unload() {
	if s.HW == nil {
		return
	}
	// Cannot fail: Load seated the member in slot 0 and only Unload
	// detaches it.
	_ = s.gang.DetachMember(&s.member)
	s.HW = nil
}

// MapObject implements FPGA_MAP_OBJECT on the loaded coprocessor's session.
func (s *Session) MapObject(id uint8, base, size uint32, dir vim.Direction) error {
	if s.HW == nil {
		return ErrNoBitstream
	}
	s.Board.Kern.ChargeSyscall()
	return s.member.Sess.MapObject(id, base, size, dir)
}

// Report aggregates one execution's measurements: a single session's, a
// gang's or a software run's. For a gang, App joins the members' names
// with "+" and Policy is the arbitration; for a session they are the core
// and its replacement policy.
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

	VIM  vim.Counters // aggregate across sessions
	IMU  imu.Counters // aggregate across channels
	HWCy int64        // IMU-domain cycles consumed

	// Sim is the engine's scheduling tallies over the run: how many edges
	// the host delivered and skipped. It measures the simulator, not the
	// simulated system, so it differs between schedulers.
	Sim sim.Stats

	// Sessions is each member's share of the run, in slot order.
	Sessions []SessionReport
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

// Execute implements FPGA_EXECUTE: the gang's one execute loop run for
// the session's member with params as its scalar parameters. It returns
// the measured report.
func (s *Session) Execute(params ...uint32) (*Report, error) {
	if s.HW == nil {
		return nil, ErrNoBitstream
	}
	s.member.Params = params
	rep, err := s.gang.ExecuteAll()
	if err != nil {
		return nil, err
	}
	rep.Policy = rep.Sessions[0].Policy
	rep.ConfigPs = s.configPs
	return rep, nil
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
