package imu

import "repro/internal/copro"

// hitService is one channel's transaction-level face (copro.HitService):
// what a coprocessor's hit run asks of its channel instead of driving the
// translation FSM edge by edge. Everything it applies is the channel's
// own — its FSM, its bundle, its counters and its session's TLB entries —
// plus the DP RAM frames of that session and the global counters, so a
// run may be applied after the other channels have moved on: every stamp
// carries the edge of its access (see stamp).
type hitService struct {
	u *IMU
	c *channel
}

// HitService returns the hit service of channel i, for Port.ServeHits.
func (u *IMU) HitService(i int) copro.HitService { return &u.hits[i] }

// Edge implements copro.HitService.
func (s *hitService) Edge() int64 { return s.u.edge }

// Gen implements copro.HitService: the table generation of the channel's
// session, which every table write that may change one of its matches
// bumps (see sessionWritten). A hit, run or delivered, bumps none.
func (s *hitService) Gen() uint64 { return s.u.gen[s.c.sess] }

// Eval implements copro.HitService: the channel's FSM alone steps through
// IMU edge edge, with the idle fast path of IMU.Eval.
func (s *hitService) Eval(edge int64) {
	c := s.c
	cp := c.port.CPRef()
	c.noop = c.state == stIdle && c.ctl == 0 && !cp.Access && !cp.Fin && !cp.ParamInv
	if !c.noop {
		s.u.evalCh(c, cp, edge)
	}
}

// Update implements copro.HitService: the channel commits what its Eval
// scheduled.
func (s *hitService) Update() {
	if !s.c.noop {
		s.u.commitCh(s.c)
	}
}

// Ready implements copro.HitService: the channel is bound to p, no waveform
// is being recorded, and the channel is idle with no OS control bit set,
// CP_ACCESS, CP_FIN, CP_PINV and CP_TLBHIT low, and its outputs committed
// to p.
func (s *hitService) Ready(p *copro.Port) bool {
	c := s.c
	cp := p.CPRef()
	return s.u.trace == nil && c.port == p && c.state == stIdle && c.ctl == 0 &&
		!cp.Access && !cp.Fin && !cp.ParamInv && !c.out.TLBHit && *p.IMURef() == c.out
}

// Latency implements copro.HitService: a multi-cycle hit commits CP_TLBHIT
// at the fourth edge from the latch (latch, CAM, translation RAM, access),
// a pipelined one at the latch edge itself.
func (s *hitService) Latency() int64 {
	if s.u.cfg.Mode == Pipelined {
		return 1
	}
	return 4
}

// PageShift implements copro.HitService.
func (s *hitService) PageShift() uint { return s.u.cfg.PageShift }

// Hits implements copro.HitService through the channel's memoised CAM
// match. An entry whose frame lies outside the DP RAM counts as a miss:
// the edge FSM faults on it.
func (s *hitService) Hits(obj uint8, addr uint32) int {
	u := s.u
	i := u.camLookup(s.c, obj, addr>>u.cfg.PageShift)
	if i >= 0 && int(u.tlb[i].Frame) >= u.dp.Pages() {
		return -1
	}
	return i
}

// Access implements copro.HitService: what translate schedules at edge and
// Update commits for a hit — the latched request, the entry's Ref, LastUse
// and Dirty bits, the DP RAM word access with its byte enables, the read
// data on CP_DIN and the global and per-channel access and hit counters.
func (s *hitService) Access(edge int64, i int, obj uint8, addr uint32, size uint8, wr bool, v uint32) uint32 {
	u, c := s.u, s.c
	c.req = request{obj: obj, addr: addr, size: size, wr: wr, dout: v}
	e := &u.tlb[i]
	e.Ref = true
	e.LastUse = stamp(edge, c.sess)
	wordAddr, lane := u.locate(e, addr)
	if wr {
		e.Dirty = true
		if err := u.dp.WriteA(wordAddr, v<<(8*lane), byteEnables(size, lane)); err != nil {
			panic("imu: hit run stored outside the DP RAM: " + err.Error()) // Hits checked the frame
		}
		v = 0
	} else {
		word, err := u.dp.ReadA(wordAddr)
		if err != nil {
			panic("imu: hit run loaded outside the DP RAM: " + err.Error()) // Hits checked the frame
		}
		v = laneData(word, lane, size)
		c.out.DIn = v
	}
	u.Count.Accesses++
	u.Count.Hits++
	c.Count.Accesses++
	c.Count.Hits++
	return v
}

// Finish implements copro.HitService: the channel's committed bundle goes
// to the port, and everything the published horizon was computed on may
// have changed.
func (s *hitService) Finish() {
	s.c.port.SettleIMU(s.c.out)
	s.u.poke()
}
