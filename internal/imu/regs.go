package imu

import (
	"fmt"

	"repro/internal/amba"
	"repro/internal/copro"
)

// Register-window word offsets (the IMU's AHB slave interface, Figure 4's
// AR/SR/CR block plus the TLB access port). Channel i's bank is stacked at
// byte offset i*RegWindow; SR/AR/CR are per channel, while the TLB access
// port (index, entry words, count, stamp) addresses the shared table from
// any bank.
const (
	RegSR       = 0x00 // status (RO)
	RegAR       = 0x04 // fault address (RO): obj<<24 | byte address
	RegCR       = 0x08 // control (WO)
	RegTLBIdx   = 0x0c // TLB entry selector (RW)
	RegTLBLo    = 0x10 // selected entry: valid|obj|vpage|sess (RW)
	RegTLBHi    = 0x14 // selected entry: frame|dirty|ref (RW)
	RegTLBCount = 0x18 // number of TLB entries (RO)
	RegLastUse  = 0x1c // low 32 bits of the selected entry's LastUse stamp (RO)
	RegWindow   = 0x20 // per-channel bank size in bytes
)

// MaxChannels bounds the coprocessor channels one IMU can serve; it also
// sizes the AHB register window (MaxChannels banks of RegWindow bytes).
const MaxChannels = 8

// RegWindowAll is the full banked register window size in bytes.
const RegWindowAll = RegWindow * MaxChannels

// RegBank returns the byte offset of channel i's register bank within the
// window.
func RegBank(i int) uint32 { return uint32(i) * RegWindow }

// Control register bits.
const (
	CRStart   = 1 << 0 // assert CP_START
	CRRestart = 1 << 1 // resume translation after fault service
	CRAckDone = 1 << 2 // acknowledge completion, deassert CP_START
	CRStop    = 1 << 3 // deassert CP_START without acknowledging
	CRClrPF   = 1 << 4 // clear the parameter-free status bit
)

// --- Direct (engine-paused) OS accessors -------------------------------

// SR returns channel 0's status register.
func (u *IMU) SR() uint32 { return u.ch[0].sr }

// SRCh returns channel i's status register.
func (u *IMU) SRCh(i int) uint32 { return u.ch[i].sr }

// AR returns channel 0's fault address register.
func (u *IMU) AR() uint32 { return u.ch[0].ar }

// ARCh returns channel i's fault address register.
func (u *IMU) ARCh(i int) uint32 { return u.ch[i].ar }

// IRQ reports whether the (shared) interrupt line is asserted.
func (u *IMU) IRQ() bool { return u.irq }

// IRQCh reports whether channel i is contributing to the interrupt line.
func (u *IMU) IRQCh(i int) bool { return u.ch[i].irq }

// IRQRef exposes the interrupt line for the engine's flag-polled run loop
// (sim.Engine.RunUntilFlag). The line is the OR of the channel IRQs and is
// only written during Update, so polling it between super-edges observes
// committed state.
func (u *IMU) IRQRef() *bool { return &u.irq }

// FaultPending reports a pending translation fault on channel 0.
func (u *IMU) FaultPending() bool { return u.ch[0].sr&SRFault != 0 }

// FaultPendingCh reports a pending translation fault on channel i.
func (u *IMU) FaultPendingCh(i int) bool { return u.ch[i].sr&SRFault != 0 }

// DonePending reports a pending completion notification on channel 0.
func (u *IMU) DonePending() bool { return u.ch[0].sr&SRDone != 0 }

// DonePendingCh reports a pending completion notification on channel i.
func (u *IMU) DonePendingCh(i int) bool { return u.ch[i].sr&SRDone != 0 }

// ParamFree reports that channel 0's coprocessor has released the parameter
// page.
func (u *IMU) ParamFree() bool { return u.ch[0].sr&SRParamFree != 0 }

// ParamFreeCh reports that channel i's coprocessor has released the
// parameter page.
func (u *IMU) ParamFreeCh(i int) bool { return u.ch[i].sr&SRParamFree != 0 }

// ClearParamFree clears channel 0's parameter-free status bit.
func (u *IMU) ClearParamFree() { u.ch[0].sr &^= SRParamFree }

// ClearParamFreeCh clears channel i's parameter-free status bit.
func (u *IMU) ClearParamFreeCh(i int) { u.ch[i].sr &^= SRParamFree }

// FaultObj decodes the faulting object identifier from channel 0's AR.
func (u *IMU) FaultObj() uint8 { return uint8(u.ch[0].ar >> 24) }

// FaultAddr decodes the faulting byte address from channel 0's AR.
func (u *IMU) FaultAddr() uint32 { return u.ch[0].ar & 0x00ffffff }

// request posts an OS control request to channel i, applied at its next
// edge.
func (u *IMU) request(i int, m ctlMask) {
	u.ch[i].ctl |= m
	u.poke()
}

// Start requests CP_START assertion on channel 0 at the next hardware edge.
func (u *IMU) Start() { u.request(0, ctlStart) }

// StartCh requests CP_START assertion on channel i.
func (u *IMU) StartCh(i int) { u.request(i, ctlStart) }

// Stop requests CP_START deassertion on channel 0.
func (u *IMU) Stop() { u.request(0, ctlStop) }

// StopCh requests CP_START deassertion on channel i.
func (u *IMU) StopCh(i int) { u.request(i, ctlStop) }

// Restart resumes channel 0's faulted translation after the OS has fixed
// the TLB.
func (u *IMU) Restart() { u.request(0, ctlRestart) }

// RestartCh resumes channel i's faulted translation.
func (u *IMU) RestartCh(i int) { u.request(i, ctlRestart) }

// AckDone acknowledges completion on channel 0.
func (u *IMU) AckDone() { u.request(0, ctlAckDone) }

// AckDoneCh acknowledges completion on channel i.
func (u *IMU) AckDoneCh(i int) { u.request(i, ctlAckDone) }

// ChCounters returns channel i's activity counters.
func (u *IMU) ChCounters(i int) Counters { return u.ch[i].Count }

// UnbindCh returns channel i to its quiescent power-on state behind a fresh
// idle port, keeping only the session tag and the accumulated counters. It
// is the hardware half of unloading a slot for partial reconfiguration: the
// other channels keep translating, and the shared interrupt line is
// recomputed so a request the detached channel had pending cannot linger.
// Like every OS-side accessor it must only be called while the engine is
// paused; rebind with BindCh once a new coprocessor occupies the slot.
func (u *IMU) UnbindCh(i int) {
	c := &u.ch[i]
	*c = channel{sess: c.sess, Count: c.Count}
	u.BindCh(i, copro.NewPort()) // pokes
	irq := false
	for j := range u.ch {
		if u.ch[j].irq {
			irq = true
			break
		}
	}
	u.irq = irq
}

// InjectFault forces channel i into the faulted state with the given cause
// (testbench support: unit tests of the fault-service path poke the fault
// without running a coprocessor model).
func (u *IMU) InjectFault(i int, obj uint8, addr uint32) {
	c := &u.ch[i]
	c.state = stFault
	c.sr |= SRFault
	c.ar = uint32(obj)<<24 | addr&0x00ffffff
	c.irq = true
	u.irq = true
	u.poke()
}

// Entries returns the TLB size.
func (u *IMU) Entries() int { return len(u.tlb) }

// Entry returns TLB entry i.
func (u *IMU) Entry(i int) TLBEntry {
	if i < 0 || i >= len(u.tlb) {
		return TLBEntry{}
	}
	return u.tlb[i]
}

// SetEntry writes TLB entry i (OS fault service; the engine is paused, and
// real hardware likewise only allows table writes while the coprocessor is
// stalled).
func (u *IMU) SetEntry(i int, e TLBEntry) error {
	if i < 0 || i >= len(u.tlb) {
		return fmt.Errorf("imu: TLB index %d out of range", i)
	}
	u.tlb[i] = e
	u.tableWritten()
	return nil
}

// ClearRefBits clears every entry's reference bit (clock policy sweep).
func (u *IMU) ClearRefBits() {
	for i := range u.tlb {
		u.tlb[i].Ref = false
	}
}

// InvalidateAll clears the whole TLB (end of operation, single session).
func (u *IMU) InvalidateAll() {
	for i := range u.tlb {
		u.tlb[i] = TLBEntry{}
	}
	u.tableWritten()
}

// InvalidateSession clears only the entries owned by session sess (end of
// one session's operation on a shared table).
func (u *IMU) InvalidateSession(sess uint8) {
	for i := range u.tlb {
		if u.tlb[i].Valid && u.tlb[i].Sess == sess {
			u.tlb[i] = TLBEntry{}
		}
	}
	u.tableWritten()
}

// ResetCounters zeroes the activity counters, global and per channel
// (between experiment runs).
func (u *IMU) ResetCounters() {
	u.Count = Counters{}
	for i := range u.ch {
		u.ch[i].Count = Counters{}
	}
}

// --- Register window encoding ------------------------------------------

func packLo(e TLBEntry) uint32 {
	v := uint32(0)
	if e.Valid {
		v |= 1
	}
	v |= uint32(e.Obj) << 1
	v |= (e.VPage & 0x7fff) << 9
	v |= uint32(e.Sess&0xf) << 24
	return v
}

func unpackLo(v uint32, e *TLBEntry) {
	e.Valid = v&1 != 0
	e.Obj = uint8(v >> 1)
	e.VPage = v >> 9 & 0x7fff
	e.Sess = uint8(v >> 24 & 0xf)
}

func packHi(e TLBEntry) uint32 {
	v := uint32(e.Frame)
	if e.Dirty {
		v |= 1 << 8
	}
	if e.Ref {
		v |= 1 << 9
	}
	return v
}

func unpackHi(v uint32, e *TLBEntry) {
	e.Frame = uint8(v)
	e.Dirty = v&(1<<8) != 0
	e.Ref = v&(1<<9) != 0
}

// RegRead implements the slave read path of the banked register window:
// byte offset = bank*RegWindow + register, where bank selects the channel.
func (u *IMU) RegRead(off uint32) (uint32, error) {
	bank := int(off / RegWindow)
	if bank >= len(u.ch) {
		return 0, fmt.Errorf("imu: read from bank %d of a %d-channel IMU", bank, len(u.ch))
	}
	c := &u.ch[bank]
	switch off % RegWindow {
	case RegSR:
		return c.sr, nil
	case RegAR:
		return c.ar, nil
	case RegTLBIdx:
		return uint32(u.tlbIdx), nil
	case RegTLBLo:
		return packLo(u.Entry(u.tlbIdx)), nil
	case RegTLBHi:
		return packHi(u.Entry(u.tlbIdx)), nil
	case RegTLBCount:
		return uint32(len(u.tlb)), nil
	case RegLastUse:
		return uint32(u.Entry(u.tlbIdx).LastUse), nil
	default:
		return 0, fmt.Errorf("imu: read from unmapped register %#x", off)
	}
}

// RegWrite implements the slave write path of the banked register window.
// Like every OS-side write it invalidates the published idle horizon.
func (u *IMU) RegWrite(off uint32, v uint32) error {
	bank := int(off / RegWindow)
	if bank >= len(u.ch) {
		return fmt.Errorf("imu: write to bank %d of a %d-channel IMU", bank, len(u.ch))
	}
	u.poke()
	switch off % RegWindow {
	case RegCR:
		if v&CRStart != 0 {
			u.StartCh(bank)
		}
		if v&CRRestart != 0 {
			u.RestartCh(bank)
		}
		if v&CRAckDone != 0 {
			u.AckDoneCh(bank)
		}
		if v&CRStop != 0 {
			u.StopCh(bank)
		}
		if v&CRClrPF != 0 {
			u.ClearParamFreeCh(bank)
		}
		return nil
	case RegTLBIdx:
		if int(v) >= len(u.tlb) {
			return fmt.Errorf("imu: TLB index %d out of range", v)
		}
		u.tlbIdx = int(v)
		return nil
	case RegTLBLo:
		e := u.Entry(u.tlbIdx)
		unpackLo(v, &e)
		return u.SetEntry(u.tlbIdx, e)
	case RegTLBHi:
		e := u.Entry(u.tlbIdx)
		unpackHi(v, &e)
		return u.SetEntry(u.tlbIdx, e)
	default:
		return fmt.Errorf("imu: write to unmapped register %#x", off)
	}
}

// Slave returns an AHB slave exposing the banked register window.
func (u *IMU) Slave() amba.Slave {
	return &amba.RegSlave{Label: "imu-regs", ReadFn: u.RegRead, WriteFn: u.RegWrite}
}
