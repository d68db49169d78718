// Package platform assembles the simulated reconfigurable SoC boards: the
// Excalibur EPXA1 the paper measures on, plus the larger EPXA4 and EPXA10
// the paper names as recompile-only porting targets (§4: "using the module
// on the system with different size of the dual-port memory ... would
// require only recompiling the module").
//
// A Board owns the platform-fixed hardware (CPU, SDRAM, flash, AHB, DP RAM,
// IMU). Hardware is assembled around it in one of two shapes. Assemble
// instantiates the per-application clock domains around one loaded
// coprocessor, since core and IMU frequencies travel with the bitstream.
// AssembleShell builds the multi-tenant shape: one shell clock domain
// carrying the IMU and a fixed set of reconfigurable slots, each wired to
// its own IMU channel and running its core at the shell clock or at a
// divisor of it.
package platform

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/copro"
	"repro/internal/cpu"
	"repro/internal/imu"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// AHB address map (stripe-side). The DP RAM and register windows sit above
// the largest SDRAM option (256 MB on the EPXA10 model).
const (
	SDRAMBase  = 0x0000_0000
	DPBase     = 0x4000_0000
	IMURegBase = 0x7fff_c000
	UserBase   = 0x0001_0000 // start of the process arena inside SDRAM
)

// Spec describes one board model.
type Spec struct {
	Name       string
	CPUHz      int64
	BusDiv     int64 // CPU-to-AHB clock ratio
	SDRAMBytes int
	FlashBytes int
	DPBytes    int
	PageLog    uint
	SDRAM      mem.SDRAMTiming
	Cache      cpu.CacheConfig
	Cost       cpu.CostModel
	KCosts     kernel.Costs
	IMUMode    imu.Mode
}

// EPXA1 is the paper's board: ARM stripe at 133 MHz, 64 MB SDRAM, 4 MB
// flash, 16 KB dual-port RAM in eight 2 KB pages.
func EPXA1() Spec {
	return Spec{
		Name:       "EPXA1",
		CPUHz:      133_000_000,
		BusDiv:     2,
		SDRAMBytes: 64 << 20,
		FlashBytes: 4 << 20,
		DPBytes:    16 * 1024,
		PageLog:    11,
		SDRAM:      mem.DefaultSDRAMTiming(),
		Cache:      cpu.DefaultCacheConfig(),
		Cost:       cpu.DefaultCostModel(),
		KCosts:     kernel.DefaultCosts(),
		IMUMode:    imu.MultiCycle,
	}
}

// EPXA4 doubles the dual-port RAM (sixteen 2 KB pages).
func EPXA4() Spec {
	s := EPXA1()
	s.Name = "EPXA4"
	s.DPBytes = 32 * 1024
	s.SDRAMBytes = 128 << 20
	return s
}

// EPXA10 doubles it again (thirty-two 2 KB pages).
func EPXA10() Spec {
	s := EPXA1()
	s.Name = "EPXA10"
	s.DPBytes = 64 * 1024
	s.SDRAMBytes = 256 << 20
	return s
}

// SpecByName resolves a board name.
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "", "EPXA1", "epxa1":
		return EPXA1(), true
	case "EPXA4", "epxa4":
		return EPXA4(), true
	case "EPXA10", "epxa10":
		return EPXA10(), true
	}
	return Spec{}, false
}

// Board is an assembled platform.
type Board struct {
	Spec  Spec
	SDRAM *mem.SDRAM
	Flash *mem.Flash
	DP    *mem.DPRAM
	Bus   *amba.Bus
	CPU   *cpu.Core
	Kern  *kernel.Kernel
	IMU   *imu.IMU
}

// NewBoard wires a board from its spec.
func NewBoard(spec Spec) (*Board, error) {
	sdram := mem.NewSDRAM(spec.SDRAMBytes, spec.SDRAM)
	flash := mem.NewFlash(spec.FlashBytes)
	dp, err := mem.NewDPRAM(spec.DPBytes, 1<<spec.PageLog)
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", spec.Name, err)
	}
	u, err := imu.New(imu.Config{PageShift: spec.PageLog, Entries: dp.Pages(), Mode: spec.IMUMode}, dp)
	if err != nil {
		return nil, fmt.Errorf("platform %s: %w", spec.Name, err)
	}
	bus := amba.NewBus()
	if err := bus.Map(SDRAMBase, uint32(spec.SDRAMBytes), &amba.SDRAMSlave{RAM: sdram}); err != nil {
		return nil, err
	}
	if err := bus.Map(DPBase, uint32(spec.DPBytes), &amba.DPRAMSlave{RAM: dp}); err != nil {
		return nil, err
	}
	if err := bus.Map(IMURegBase, imu.RegWindowAll, u.Slave()); err != nil {
		return nil, err
	}
	core, err := cpu.NewCore(spec.CPUHz, spec.Cost, spec.Cache, sdram)
	if err != nil {
		return nil, err
	}
	kern, err := kernel.New(core, bus, spec.KCosts, spec.BusDiv, UserBase, uint32(spec.SDRAMBytes))
	if err != nil {
		return nil, err
	}
	return &Board{
		Spec:  spec,
		SDRAM: sdram,
		Flash: flash,
		DP:    dp,
		Bus:   bus,
		CPU:   core,
		Kern:  kern,
		IMU:   u,
	}, nil
}

// HW is a per-application hardware assembly: the clock domains running a
// loaded coprocessor against the board's IMU.
type HW struct {
	Eng      *sim.Engine
	IMUDom   *sim.Domain
	CoproDom *sim.Domain
	Port     *copro.Port
	Core     *copro.Seq

	wire copro.HitWire // the port's wiring to the IMU's hit service
}

// Assemble builds the clock domains for a loaded coprocessor. The IMU and
// core frequencies come from the bitstream header; they must be an integer
// ratio so the stall handshake lines up. When the IMU clock is a multiple
// of the core's, the port is wired to the IMU's hit service, so the core
// takes hit runs through TLB-resident stretches of its loop.
func (b *Board) Assemble(coreHz, imuHz int64, core *copro.Seq) (*HW, error) {
	if core == nil {
		return nil, fmt.Errorf("platform: nil coprocessor")
	}
	if err := sim.CheckClocks(coreHz, imuHz); err != nil {
		return nil, err
	}
	// A previous shell assembly may have left the IMU with several
	// channels; the single-coprocessor shape uses exactly one.
	if b.IMU.Channels() != 1 {
		if err := b.IMU.SetChannels(1); err != nil {
			return nil, err
		}
	}
	hw := &HW{Port: copro.NewPort(), Core: core}
	b.IMU.Bind(hw.Port)
	hw.Port.ServeHits(&hw.wire, b.IMU.HitService(0), coreHz, imuHz)
	core.Bind(hw.Port)

	hw.Eng = sim.NewEngine()
	hw.IMUDom = hw.Eng.NewDomain("imu", imuHz)
	hw.CoproDom = hw.IMUDom
	if coreHz != imuHz {
		hw.CoproDom = hw.Eng.NewDomain("copro", coreHz)
	}
	hw.CoproDom.Attach(core)
	hw.IMUDom.Attach(b.IMU)
	return hw, nil
}
