// Package repro is a full reproduction, in simulation, of "Operating System
// Support for Interface Virtualisation of Reconfigurable Coprocessors"
// (Vuletić, Righetti, Pozzi and Ienne — DATE 2004).
//
// It provides the paper's programming model on a cycle-level simulated
// reconfigurable SoC (an Altera Excalibur EPXA1-class device with an ARM
// stripe, AMBA AHB, dual-port RAM and a PLD):
//
//	sys, _ := repro.NewSystem(repro.Config{Board: "EPXA1"})
//	p, _ := sys.NewProcess("add")
//	a, _ := p.Alloc(4096)   // user-space buffers in simulated SDRAM
//	b, _ := p.Alloc(4096)
//	c, _ := p.Alloc(4096)
//	_ = p.FPGALoad(repro.VecAddBitstream("EPXA1"))
//	_ = p.FPGAMapObject(0, a, repro.In)
//	_ = p.FPGAMapObject(1, b, repro.In)
//	_ = p.FPGAMapObject(2, c, repro.Out)
//	rep, _ := p.FPGAExecute(1024) // element count
//
// The three services mirror §3.1 of the paper: FPGALoad configures the PLD
// from a validated bit-stream, FPGAMapObject declares the data objects the
// coprocessor will address virtually, and FPGAExecute builds the initial
// dual-port RAM mapping, passes scalar parameters through the parameter
// page, launches the coprocessor and services translation faults until
// completion. The returned Report carries the paper's execution-time
// components (hardware, dual-port management, IMU management) and all
// paging counters.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/imu"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/sw"
	"repro/internal/vim"
)

// Direction declares how the coprocessor uses a mapped object.
type Direction = vim.Direction

// Re-exported object directions.
const (
	In    = vim.In
	Out   = vim.Out
	InOut = vim.InOut
)

// Report is the measurement record of one execution.
type Report = core.Report

// Config selects the platform and the virtualisation-layer options.
type Config struct {
	// Board is "EPXA1" (default), "EPXA4" or "EPXA10".
	Board string
	// Policy is the page-replacement policy: "fifo" (default), "lru",
	// "clock" or "random".
	Policy string
	// PipelinedIMU switches the IMU to the pipelined translation path
	// (the paper's announced follow-up implementation).
	PipelinedIMU bool
	// BounceBuffer reproduces the naive double-transfer page movement the
	// paper reports (§4.1).
	BounceBuffer bool
	// PrefetchPages enables sequential prefetch of up to N pages on each
	// fault (§3.3 "speculative actions as prefetching").
	PrefetchPages int
	// PageLog overrides the dual-port RAM page size (log2 bytes; 0 keeps
	// the board default of 2 KB pages). The paper fixes 2 KB; this knob
	// drives the page-size ablation.
	PageLog uint
	// Seed drives the "random" policy; runs are reproducible.
	Seed int64
}

// System is one simulated board plus its virtualisation layer settings.
type System struct {
	board  *platform.Board
	vimCfg vim.Config

	pldOwner *Process
}

// NewSystem boots a simulated board.
func NewSystem(cfg Config) (*System, error) {
	spec, ok := platform.SpecByName(cfg.Board)
	if !ok {
		return nil, fmt.Errorf("repro: unknown board %q", cfg.Board)
	}
	if cfg.PipelinedIMU {
		spec.IMUMode = imu.Pipelined
	}
	if cfg.PageLog != 0 {
		if cfg.PageLog < 7 || cfg.PageLog > 13 {
			return nil, fmt.Errorf("repro: page log %d out of range [7,13]", cfg.PageLog)
		}
		if spec.DPBytes>>cfg.PageLog > 256 {
			return nil, fmt.Errorf("repro: page log %d yields more frames than the TLB supports", cfg.PageLog)
		}
		spec.PageLog = cfg.PageLog
	}
	board, err := platform.NewBoard(spec)
	if err != nil {
		return nil, err
	}
	policy, ok := vim.NewPolicy(cfg.Policy, cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("repro: unknown policy %q", cfg.Policy)
	}
	return &System{
		board: board,
		vimCfg: vim.Config{
			Policy:        policy,
			BounceBuffer:  cfg.BounceBuffer,
			PrefetchPages: cfg.PrefetchPages,
		},
	}, nil
}

// Board exposes the underlying platform (experiments, tools).
func (s *System) Board() *platform.Board { return s.board }

// Process is a user process on the simulated system.
type Process struct {
	sys  *System
	proc *kernel.Process
	sess *core.Session

	tables   sw.Tables
	tablesOK bool
}

// NewProcess creates a process with its own session state.
func (s *System) NewProcess(name string) (*Process, error) {
	return &Process{
		sys:  s,
		proc: s.board.Kern.NewProcess(name),
		sess: core.NewSession(s.board, s.vimCfg),
	}, nil
}

// Session exposes the underlying session (experiments, tools).
func (p *Process) Session() *core.Session { return p.sess }

// Buffer is a user-space allocation in simulated SDRAM.
type Buffer struct {
	p    *Process
	addr uint32
	size int
}

// Alloc reserves n bytes of user memory.
func (p *Process) Alloc(n int) (Buffer, error) {
	addr, err := p.proc.Alloc(n)
	if err != nil {
		return Buffer{}, err
	}
	return Buffer{p: p, addr: addr, size: n}, nil
}

// Addr returns the buffer's user-space address.
func (b Buffer) Addr() uint32 { return b.addr }

// Size returns the buffer length in bytes.
func (b Buffer) Size() int { return b.size }

// Write fills the buffer with data (process image setup; untimed).
func (b Buffer) Write(data []byte) error {
	if len(data) > b.size {
		return fmt.Errorf("repro: writing %d bytes into a %d-byte buffer", len(data), b.size)
	}
	return b.p.sys.board.Kern.WriteUser(b.addr, data)
}

// Read returns the buffer contents.
func (b Buffer) Read() ([]byte, error) {
	return b.p.sys.board.Kern.ReadUser(b.addr, b.size)
}

// FPGALoad implements the FPGA_LOAD service: it validates the bit-stream,
// configures the PLD with the matching coprocessor, and acquires exclusive
// use of the reconfigurable resource.
func (p *Process) FPGALoad(img []byte) error {
	if p.sys.pldOwner != nil && p.sys.pldOwner != p {
		return fmt.Errorf("repro: PLD held by process %q", p.sys.pldOwner.proc.Name)
	}
	if err := p.sess.Load(img); err != nil {
		return err
	}
	p.sys.pldOwner = p
	return nil
}

// FPGAUnload releases the PLD.
func (p *Process) FPGAUnload() {
	if p.sys.pldOwner == p {
		p.sys.pldOwner = nil
	}
	p.sess.Unload()
}

// FPGAMapObject implements FPGA_MAP_OBJECT: it declares buffer as data
// object id with the given direction flag. The buffer must belong to p.
func (p *Process) FPGAMapObject(id int, buf Buffer, dir Direction) error {
	if id < 0 || id > 0xfe {
		return fmt.Errorf("repro: object id %d out of range", id)
	}
	if err := p.owns(buf); err != nil {
		return err
	}
	return p.sess.MapObject(uint8(id), buf.addr, uint32(buf.size), dir)
}

// FPGAExecute implements FPGA_EXECUTE: parameter passing, initial mapping,
// launch, fault service and completion, returning the measured report.
func (p *Process) FPGAExecute(params ...uint32) (*Report, error) {
	return p.sess.Execute(params...)
}
