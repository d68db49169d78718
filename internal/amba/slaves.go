package amba

import (
	"repro/internal/mem"
)

// DPRAMSlave adapts port B of the dual-port RAM to the AHB. On-chip RAM
// answers with a fixed (small) number of wait states.
type DPRAMSlave struct {
	RAM   *mem.DPRAM
	Waits int64 // wait states per beat (on-chip: 0 or 1)
}

// Name implements Slave.
func (s *DPRAMSlave) Name() string { return "dpram" }

// Access implements Slave.
func (s *DPRAMSlave) Access(b Beat) (uint32, int64, error) {
	if b.Write {
		return 0, s.Waits, s.RAM.WriteB(b.Addr, b.WData, b.BE)
	}
	v, err := s.RAM.ReadB(b.Addr)
	return v, s.Waits, err
}

// burst implements burster, counting every word as one port-B access.
func (s *DPRAMSlave) burst(off uint32, words []uint32, write bool) (int64, bool) {
	st := s.RAM.Store()
	if write {
		if st.WriteWords(off, words) != nil {
			return 0, false
		}
		s.RAM.WritesB += uint64(len(words))
	} else {
		if st.ReadWords(off, words) != nil {
			return 0, false
		}
		s.RAM.ReadsB += uint64(len(words))
	}
	return int64(len(words)) * s.Waits, true
}

// SDRAMSlave adapts the external SDRAM to the AHB. The first beat of a
// transaction pays the activation latency; sequential beats stream at the
// burst rate.
type SDRAMSlave struct {
	RAM *mem.SDRAM
}

// Name implements Slave.
func (s *SDRAMSlave) Name() string { return "sdram" }

// waits returns the wait states of a beat: the first of a transaction
// pays the activation latency, sequential ones the burst rate.
func (s *SDRAMSlave) waits(seq bool) int64 {
	t := s.RAM.Timing
	if seq {
		return max(t.NextWord-1, 0)
	}
	return max(t.FirstWord-1, 0)
}

// Access implements Slave.
func (s *SDRAMSlave) Access(b Beat) (uint32, int64, error) {
	waits := s.waits(b.Seq)
	if b.Write {
		return 0, waits, s.RAM.Store().Write32(b.Addr, b.WData, b.BE)
	}
	v, err := s.RAM.Store().Read32(b.Addr)
	return v, waits, err
}

// burst implements burster.
func (s *SDRAMSlave) burst(off uint32, words []uint32, write bool) (int64, bool) {
	st := s.RAM.Store()
	var err error
	if write {
		err = st.WriteWords(off, words)
	} else {
		err = st.ReadWords(off, words)
	}
	if err != nil {
		return 0, false
	}
	return s.waits(false) + int64(len(words)-1)*s.waits(true), true
}

// RegSlave adapts a register file (anything with word read/write callbacks)
// to the AHB; used for the IMU's AR/SR/CR/TLB window. Register accesses are
// single-cycle on-chip.
type RegSlave struct {
	Label   string
	ReadFn  func(off uint32) (uint32, error)
	WriteFn func(off uint32, v uint32) error
}

// Name implements Slave.
func (s *RegSlave) Name() string { return s.Label }

// Access implements Slave.
func (s *RegSlave) Access(b Beat) (uint32, int64, error) {
	if b.Write {
		if s.WriteFn == nil {
			return 0, 0, ErrSlave
		}
		return 0, 0, s.WriteFn(b.Addr, b.WData)
	}
	if s.ReadFn == nil {
		return 0, 0, ErrSlave
	}
	v, err := s.ReadFn(b.Addr)
	return v, 0, err
}
