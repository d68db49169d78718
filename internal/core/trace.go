package core

import (
	"io"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/trace"
)

// TraceSession attaches a waveform recorder to the session's coprocessor
// port: every IMU clock edge samples the CP_* bundle, the translation-hit
// line and the interrupt. Call after Load (the port exists once the PLD is
// configured) and before Execute; write the result with WriteVCD.
//
// The recorder's timescale is one IMU clock period.
func (s *Session) TraceSession() (*trace.Recorder, error) {
	if s.HW == nil {
		return nil, ErrNoBitstream
	}
	periodPs := int64(1e12 / float64(s.member.header.IMUClock))
	rec := trace.NewRecorder(periodPs)
	sClk := rec.Declare("clk", 1)
	sObj := rec.Declare("cp_obj", 8)
	sAddr := rec.Declare("cp_addr", 24)
	sAcc := rec.Declare("cp_access", 1)
	sWr := rec.Declare("cp_wr", 1)
	sDout := rec.Declare("cp_dout", 32)
	sHit := rec.Declare("cp_tlbhit", 1)
	sDin := rec.Declare("cp_din", 32)
	sStart := rec.Declare("cp_start", 1)
	sFin := rec.Declare("cp_fin", 1)
	sIrq := rec.Declare("irq_pld", 1)

	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	u := s.Board.IMU
	u.SetTrace(&imu.TraceHooks{OnEdge: func(cy uint64, cp copro.CPOut, out copro.IMUOut) {
		t := int64(cy)
		rec.Record(sClk, t, 1)
		rec.Record(sObj, t, uint64(cp.Obj))
		rec.Record(sAddr, t, uint64(cp.Addr))
		rec.Record(sAcc, t, b2u(cp.Access))
		rec.Record(sWr, t, b2u(cp.Wr))
		rec.Record(sDout, t, uint64(cp.DOut))
		rec.Record(sHit, t, b2u(out.TLBHit))
		rec.Record(sDin, t, uint64(out.DIn))
		rec.Record(sStart, t, b2u(out.Start))
		rec.Record(sFin, t, b2u(cp.Fin))
		rec.Record(sIrq, t, b2u(u.IRQ()))
	}})
	return rec, nil
}

// WriteVCD emits a recorded session waveform.
func WriteVCD(w io.Writer, rec *trace.Recorder) error {
	return rec.WriteVCD(w, "vim_session")
}
