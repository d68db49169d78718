package imu

import (
	"repro/internal/copro"
	"repro/internal/mem"
)

// hitService is one channel's transaction-level face (copro.HitService):
// what a coprocessor's hit run asks of its channel instead of driving the
// translation FSM edge by edge. It hands out port A's view of a hit's DP
// RAM frame, which the run moves its words through, and applies the rest
// of what the FSM and its commit would, with final values: per TLB entry
// and page stay its Ref, Dirty and LastUse (Touch), per run the counters,
// the latched request and CP_DIN (Commit). Everything it applies is the
// channel's own — its FSM, its bundle, its counters and its session's TLB
// entries — plus the DP RAM frames of that session and the global
// counters, so a run may be applied after the other channels have moved
// on: every stamp carries the edge of its access (see stamp).
type hitService struct {
	u *IMU
	c *channel
}

// HitService returns the hit service of channel i, for Port.ServeHits.
func (u *IMU) HitService(i int) copro.HitService { return &u.hits[i] }

// Edge implements copro.HitService.
func (s *hitService) Edge() int64 { return s.u.edge }

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
// match. An entry whose frame port A has no view of counts as a miss: the
// edge FSM faults on a frame outside the DP RAM, and a frame across a
// backing page of its store (mem.DPRAM.FrameA) takes the edge path. The
// DP RAM has one frame per entry (New), so only a page larger than a
// backing page can have no view.
func (s *hitService) Hits(obj uint8, addr uint32) int {
	u := s.u
	i := u.camLookup(s.c, obj, addr>>u.cfg.PageShift)
	if i >= 0 && (int(u.tlb[i].Frame) >= len(u.tlb) || !u.framed) {
		return -1
	}
	return i
}

// Frame implements copro.HitService: port A's view of the DP RAM frame
// entry i maps (mem.DPRAM.FrameA), which Hits checked it has.
func (s *hitService) Frame(i int) mem.Frame {
	return s.u.dp.FrameA(int(s.u.tlb[i].Frame))
}

// Touch implements copro.HitService: what the translations of a page
// stay's accesses through entry i leave on it — Ref, Dirty for a write,
// and LastUse stamped with the last one's edge and the channel. Nothing
// reads the entry before the run's last touch: the OS runs only once the
// run has finished, and no other channel matches this session's entries.
func (s *hitService) Touch(i int, edge int64, wr bool) {
	e := &s.u.tlb[i]
	e.Ref = true
	if wr {
		e.Dirty = true
	}
	e.LastUse = stamp(edge, s.c.sess)
}

// Commit implements copro.HitService: the rest of what translate schedules
// and Update commits for each of a run's hits, with its final values — the
// global and per-channel access and hit counters, the DP RAM's port-A
// counters, the latched request of the last access and the last read's
// data on CP_DIN.
func (s *hitService) Commit(reads, writes uint64, last copro.CPOut, din uint32) {
	u, c := s.u, s.c
	n := reads + writes
	u.Count.Accesses += n
	u.Count.Hits += n
	c.Count.Accesses += n
	c.Count.Hits += n
	u.dp.ReadsA += reads
	u.dp.WritesA += writes
	r := &c.req
	r.obj, r.addr, r.size, r.wr, r.dout = last.Obj, last.Addr, last.Size, last.Wr, last.DOut
	c.out.DIn = din
}

// Finish implements copro.HitService: the channel's committed bundle goes
// to the port, and everything the published horizon was computed on may
// have changed.
func (s *hitService) Finish() {
	s.c.port.SettleIMU(s.c.out)
	s.u.poke()
}
