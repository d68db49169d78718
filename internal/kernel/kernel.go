// Package kernel models the operating-system substrate the paper's Virtual
// Interface Manager plugs into: processes with user-space memory in SDRAM,
// system-call and interrupt entry costs, and timed data movement over the
// AHB (the copy_to_user / copy_from_user path of the Linux module).
//
// The model is deliberately small — the paper's contribution is the VIM,
// not the kernel — but every interaction the VIM has with the world goes
// through here so that each one lands in the right execution-time bucket.
package kernel

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/cpu"
	"repro/internal/stats"
)

// Costs carries the fixed CPU-cycle costs of kernel entry points,
// ARM-Linux-era magnitudes.
type Costs struct {
	SyscallEntry int64 // user->kernel transition
	SyscallExit  int64
	IRQEntry     int64 // interrupt entry, context stash
	IRQExit      int64
	WakeProcess  int64 // waking the sleeping caller after completion
	PageSetup    int64 // per-page bookkeeping in the fault path
}

// DefaultCosts returns the calibrated kernel costs.
func DefaultCosts() Costs {
	return Costs{
		SyscallEntry: 600,
		SyscallExit:  400,
		IRQEntry:     350,
		IRQExit:      250,
		WakeProcess:  900,
		PageSetup:    450,
	}
}

// Kernel is the OS model. BusDiv is the CPU-to-AHB clock ratio: bus cycles
// are charged to the CPU timeline multiplied by this factor.
type Kernel struct {
	CPU    *cpu.Core
	Bus    *amba.Bus
	Costs  Costs
	BusDiv int64

	TL *stats.Timeline

	nextBase uint32
	limit    uint32
	procs    int
}

// New builds a kernel over the CPU and bus. userBase/userLimit bound the
// SDRAM region handed out to processes.
func New(core *cpu.Core, bus *amba.Bus, costs Costs, busDiv int64, userBase, userLimit uint32) (*Kernel, error) {
	if core == nil || bus == nil {
		return nil, fmt.Errorf("kernel: nil CPU or bus")
	}
	if busDiv <= 0 {
		return nil, fmt.Errorf("kernel: bus divisor %d must be positive", busDiv)
	}
	if userLimit <= userBase {
		return nil, fmt.Errorf("kernel: empty user region [%#x,%#x)", userBase, userLimit)
	}
	return &Kernel{
		CPU:      core,
		Bus:      bus,
		Costs:    costs,
		BusDiv:   busDiv,
		TL:       &stats.Timeline{},
		nextBase: userBase,
		limit:    userLimit,
	}, nil
}

// chargeCPU books n CPU cycles into component c.
func (k *Kernel) chargeCPU(c stats.Component, n int64) {
	k.CPU.AddCycles(n)
	k.TL.AddCycles(c, n, k.CPU.FreqHz)
}

// ChargeCPU books raw CPU cycles into a component (exported for the VIM and
// the session orchestrator).
func (k *Kernel) ChargeCPU(c stats.Component, n int64) { k.chargeCPU(c, n) }

// ChargeSyscall books one system-call entry/exit pair.
func (k *Kernel) ChargeSyscall() {
	k.chargeCPU(stats.SWOS, k.Costs.SyscallEntry+k.Costs.SyscallExit)
}

// ChargeIRQ books one interrupt entry/exit pair into component c (faults
// are IMU management; completion wake-up is OS overhead).
func (k *Kernel) ChargeIRQ(c stats.Component) {
	k.chargeCPU(c, k.Costs.IRQEntry+k.Costs.IRQExit)
}

// BusRead32 performs a timed register/memory read over the AHB, charging
// component c.
func (k *Kernel) BusRead32(c stats.Component, addr uint32) (uint32, error) {
	before := k.Bus.Cycles
	v, err := k.Bus.Read32(addr)
	k.chargeCPU(c, (k.Bus.Cycles-before)*k.BusDiv)
	return v, err
}

// BusWrite32 performs a timed register/memory write over the AHB.
func (k *Kernel) BusWrite32(c stats.Component, addr, v uint32) error {
	before := k.Bus.Cycles
	err := k.Bus.Write32(addr, v)
	k.chargeCPU(c, (k.Bus.Cycles-before)*k.BusDiv)
	return err
}

// BusCopy performs a timed block copy (word-aligned) over the AHB with
// 8-beat bursts, charging component c.
func (k *Kernel) BusCopy(c stats.Component, dst, src uint32, n int) error {
	if n == 0 {
		return nil
	}
	cycles, err := k.Bus.Copy(dst, src, n, 8)
	k.chargeCPU(c, cycles*k.BusDiv)
	return err
}

// Process is a user process with a bump-allocated SDRAM arena.
type Process struct {
	k    *Kernel
	Name string
	PID  int
}

// NewProcess creates a process.
func (k *Kernel) NewProcess(name string) *Process {
	k.procs++
	return &Process{k: k, Name: name, PID: k.procs}
}

// Alloc reserves n bytes of user memory (8-byte aligned, padded to a word
// multiple so page copies stay word-aligned) and returns its address.
func (k *Kernel) Alloc(n int) (uint32, error) {
	if n <= 0 {
		return 0, fmt.Errorf("kernel: alloc of %d bytes", n)
	}
	size := uint32(n+7) &^ 7
	if k.nextBase+size > k.limit || k.nextBase+size < k.nextBase {
		return 0, fmt.Errorf("kernel: out of user memory (%d bytes requested)", n)
	}
	addr := k.nextBase
	k.nextBase += size
	return addr, nil
}

// Alloc reserves user memory in the process's address space.
func (p *Process) Alloc(n int) (uint32, error) { return p.k.Alloc(n) }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// WriteUser populates user memory functionally (test/application setup;
// not timed — it models data that already exists in the process image).
func (k *Kernel) WriteUser(addr uint32, data []byte) error {
	return k.CPU.SDRAM.Store().WriteBytes(addr, data)
}

// ReadUser retrieves user memory functionally.
func (k *Kernel) ReadUser(addr uint32, n int) ([]byte, error) {
	return k.CPU.SDRAM.Store().ReadBytes(addr, n)
}

// MismatchUser compares user memory at addr against want in place and
// returns the index of the first differing byte, or -1 when they match.
func (k *Kernel) MismatchUser(addr uint32, want []byte) (int, error) {
	return k.CPU.SDRAM.Store().Mismatch(addr, want)
}
