package imu

import "repro/internal/copro"

// hitService is channel 0's transaction-level face (copro.HitService):
// what a coprocessor's hit run asks of its channel instead of driving the
// translation FSM edge by edge. A run is offered only on a single-channel
// IMU: with two active channels the order in which their accesses take the
// shared LastUse stamp depends on the edge interleaving.
type hitService struct{ u *IMU }

// HitService returns the hit service of channel 0, for Port.ServeHits.
func (u *IMU) HitService() copro.HitService { return hitService{u} }

// Eval implements sim.Ticker: one IMU edge.
func (s hitService) Eval() { s.u.Eval() }

// Update implements sim.Ticker.
func (s hitService) Update() { s.u.Update() }

// Ready implements copro.HitService: the IMU has one channel, bound to p,
// no waveform is being recorded, and the channel is idle with no OS control
// bit set, CP_ACCESS, CP_FIN, CP_PINV and CP_TLBHIT low, and its outputs
// committed to p.
func (s hitService) Ready(p *copro.Port) bool {
	u := s.u
	if len(u.ch) != 1 || u.trace != nil {
		return false
	}
	c := &u.ch[0]
	cp := p.CPRef()
	return c.port == p && c.state == stIdle && c.ctl == 0 &&
		!cp.Access && !cp.Fin && !cp.ParamInv && !c.out.TLBHit && *p.IMURef() == c.out
}

// Latency implements copro.HitService: a multi-cycle hit commits CP_TLBHIT
// at the fourth edge from the latch (latch, CAM, translation RAM, access),
// a pipelined one at the latch edge itself.
func (s hitService) Latency() int64 {
	if s.u.cfg.Mode == Pipelined {
		return 1
	}
	return 4
}

// PageShift implements copro.HitService.
func (s hitService) PageShift() uint { return s.u.cfg.PageShift }

// Hits implements copro.HitService through the channel's memoised CAM
// match. An entry whose frame lies outside the DP RAM counts as a miss:
// the edge FSM faults on it.
func (s hitService) Hits(obj uint8, addr uint32) int {
	u := s.u
	i := u.camLookup(&u.ch[0], obj, addr>>u.cfg.PageShift)
	if i >= 0 && int(u.tlb[i].Frame) >= u.dp.Pages() {
		return -1
	}
	return i
}

// Access implements copro.HitService: what translate schedules and Update
// commits for a hit — the latched request, the shared LastUse stamp, the
// entry's Ref, LastUse and Dirty bits, the DP RAM word access with its byte
// enables, the read data on CP_DIN and the global and per-channel access
// and hit counters.
func (s hitService) Access(i int, obj uint8, addr uint32, size uint8, wr bool, v uint32) uint32 {
	u := s.u
	c := &u.ch[0]
	c.req = request{obj: obj, addr: addr, size: size, wr: wr, dout: v}
	e := &u.tlb[i]
	u.stamp++
	e.Ref = true
	e.LastUse = u.stamp
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

// Finish implements copro.HitService: CP_TLBHIT is low and CP_DIN holds the
// last read's data, and everything the published horizon was computed on
// may have changed.
func (s hitService) Finish() {
	c := &s.u.ch[0]
	c.port.SettleIMU(c.out)
	s.u.poke()
}
