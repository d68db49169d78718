package vim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/copro"
	"repro/internal/imu"
	"repro/internal/stats"
)

// Session is one tenant of the Virtual Interface Manager: the per-loaded-
// coprocessor half of the subsystem. It owns the mapped-object table, the
// session-tagged slice of the IMU translation table, the home partition
// [lo, hi) of the frame pool, the replacement policy, and the per-session
// counters. All its timed register traffic goes through its own bank of
// the IMU register window, so faults arrive session-tagged.
type Session struct {
	m   *Manager
	id  uint8
	lo  int // home partition start (frame index); the parameter frame
	hi  int // home partition end (exclusive)
	cfg Config

	objects map[uint8]*Object
	seq     uint64

	// writtenBack records (obj, vpage) pairs whose partial contents have
	// been copied to user space by a dirty eviction. Load elision for
	// output objects is only sound on a page's *first* residency: once a
	// partially written page has been written back, a later fault must
	// reload it or the next flush would clobber the earlier writes with
	// frame garbage.
	writtenBack map[uint64]bool

	// Count is this session's activity (the manager aggregates across
	// sessions in Manager.Count).
	Count Counters
}

// ID returns the session index (== its IMU channel).
func (s *Session) ID() int { return int(s.id) }

// Partition returns the session's home partition [lo, hi) in frame
// indices.
func (s *Session) Partition() (lo, hi int) { return s.lo, s.hi }

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// Manager returns the owning manager.
func (s *Session) Manager() *Manager { return s.m }

// Objects returns the mapped objects in ascending ID order (tests,
// reports).
func (s *Session) Objects() []Object {
	out := make([]Object, 0, len(s.objects))
	for _, id := range s.sortedIDs() {
		out = append(out, *s.objects[id])
	}
	return out
}

// MapObject registers a user-space object for coprocessor use
// (FPGA_MAP_OBJECT). Object IDs must be unique per execution and below the
// parameter identifier.
func (s *Session) MapObject(id uint8, base, size uint32, dir Direction) error {
	if id == copro.ParamObj {
		return fmt.Errorf("%w: id %#x is reserved for the parameter page", ErrBadObject, id)
	}
	if _, dup := s.objects[id]; dup {
		return fmt.Errorf("%w: id %d already mapped", ErrBadObject, id)
	}
	if size == 0 {
		return fmt.Errorf("%w: object %d has zero size", ErrBadObject, id)
	}
	if base%4 != 0 {
		return fmt.Errorf("%w: object %d base %#x not word aligned", ErrBadObject, id, base)
	}
	s.objects[id] = &Object{ID: id, Base: base, Size: size, Dir: dir}
	return nil
}

// PrepareExecute performs the FPGA_EXECUTE setup of §3.1: it resets the
// session's translation state, writes the scalar parameters into the
// dedicated parameter page (the first frame of the home partition), and
// builds the initial mapping — input pages are preloaded in object order
// until the partition is full, then output pages are mapped (without data
// movement) into whatever frames remain. Datasets that do not fit are
// demand-paged later, which is exactly the paper's "not necessarily all of
// the datasets used by the coprocessor reside in the memory at the same
// time".
func (s *Session) PrepareExecute(params []uint32) error {
	m := s.m
	m.u.InvalidateSession(s.id)
	// A previous execution may have left the parameter-free status bit
	// set (the coprocessor releases the page mid-run); clear it so the
	// fresh parameter page is not immediately reclaimed.
	m.u.ClearParamFreeCh(int(s.id))
	for i := range m.frames {
		if m.frames[i].Sess == s.id {
			m.frames[i] = Frame{}
		}
	}
	s.seq = 0
	s.writtenBack = map[uint64]bool{}

	if int(m.pageSz/4) < len(params) {
		return fmt.Errorf("vim: %d parameter words exceed the parameter page", len(params))
	}

	// Under GlobalLRU a neighbour may have borrowed frames of this home
	// partition (including the parameter frame) while the session was
	// idle; reclaim the parameter frame before writing into it.
	if fr := &m.frames[s.lo]; fr.Occupied && fr.Sess != s.id {
		if err := m.sessions[fr.Sess].evict(s.lo); err != nil {
			return err
		}
	}

	// The partition's first frame carries the parameter page until the
	// coprocessor releases it.
	for i, w := range params {
		if err := m.k.BusWrite32(stats.SWIMU, m.frameAddr(s.lo)+uint32(i*4), w); err != nil {
			return err
		}
	}
	m.frames[s.lo] = Frame{Occupied: true, Pinned: true, Sess: s.id, Obj: copro.ParamObj, VPage: 0, LoadSeq: s.nextSeq()}
	if err := s.installEntry(s.lo, imu.TLBEntry{Valid: true, Obj: copro.ParamObj, VPage: 0, Frame: uint8(s.lo)}); err != nil {
		return err
	}

	// Initial mapping: inputs first (they are needed immediately), then
	// outputs while frames remain.
	ids := s.sortedIDs()
	for _, loadable := range []bool{true, false} {
		for _, id := range ids {
			o := s.objects[id]
			isInput := o.Dir != Out
			if isInput != loadable {
				continue
			}
			for vp := uint32(0); vp < o.Pages(m.pageSz); vp++ {
				f := s.freeFrame(false)
				if f < 0 {
					return nil // partition full; demand paging takes over
				}
				if err := s.mapPage(o, vp, f, loadable); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sortedIDs returns mapped object IDs in ascending order (deterministic
// initial mapping).
func (s *Session) sortedIDs() []uint8 {
	ids := make([]uint8, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s *Session) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// freeFrame returns a free frame index, reclaiming the parameter frame if
// the coprocessor has released it, or -1. The home partition is scanned
// first; under GlobalLRU the demand-paging path (demand true) may also
// borrow free frames anywhere in the pool, while the initial mapping
// (demand false) stays confined so one session's launch never swallows a
// neighbour's carve before it starts.
func (s *Session) freeFrame(demand bool) int {
	m := s.m
	if m.u.ParamFreeCh(int(s.id)) {
		if fr := &m.frames[s.lo]; fr.Pinned && fr.Sess == s.id && fr.Obj == copro.ParamObj {
			*fr = Frame{}
			m.u.ClearParamFreeCh(int(s.id))
			// The IMU already invalidated the TLB entry itself.
		}
	}
	for i := s.lo; i < s.hi; i++ {
		if !m.frames[i].Occupied {
			return i
		}
	}
	// Under GlobalLRU the whole pool is fair game for demand paging — free
	// foreign frames include partitions reclaimed by Detach. (A manager
	// built with New always arbitrates statically, so the paper's
	// single-session shape never reaches this scan.)
	if demand && m.arb == GlobalLRU {
		for i := range m.frames {
			if !m.frames[i].Occupied {
				return i
			}
		}
	}
	return -1
}

// mapPage binds (o, vpage) to frame f, loading data when load is true, and
// installs the TLB entry.
func (s *Session) mapPage(o *Object, vpage uint32, f int, load bool) error {
	m := s.m
	if load {
		if err := s.copyIn(o, vpage, f); err != nil {
			return err
		}
	} else {
		s.Count.LoadsElided++
		m.Count.LoadsElided++
	}
	m.k.ChargeCPU(stats.SWIMU, m.k.Costs.PageSetup)
	m.frames[f] = Frame{Occupied: true, Sess: s.id, Obj: o.ID, VPage: vpage, LoadSeq: s.nextSeq()}
	return s.installEntry(f, imu.TLBEntry{Valid: true, Obj: o.ID, VPage: vpage, Frame: uint8(f)})
}

// evict frees the victim frame, writing back its page if dirty, and
// invalidates its TLB entry. It must be called on the session that owns
// the frame (its object table drives the write-back).
func (s *Session) evict(f int) error {
	m := s.m
	fr := &m.frames[f]
	if !fr.Occupied || fr.Pinned || fr.Sess != s.id {
		return fmt.Errorf("vim: evicting unusable frame %d", f)
	}
	// Read the hardware entry (timed) to learn the dirty bit.
	if err := m.k.BusWrite32(stats.SWIMU, s.regAddr(imu.RegTLBIdx), uint32(f)); err != nil {
		return err
	}
	hi, err := m.k.BusRead32(stats.SWIMU, s.regAddr(imu.RegTLBHi))
	if err != nil {
		return err
	}
	dirty := hi&(1<<8) != 0
	if dirty {
		o, ok := s.objects[fr.Obj]
		if !ok {
			return fmt.Errorf("%w: frame %d owned by unknown object %d", ErrBadObject, f, fr.Obj)
		}
		if err := s.copyOut(o, fr.VPage, f); err != nil {
			return err
		}
		s.Count.Writebacks++
		m.Count.Writebacks++
		s.writtenBack[pageKey(fr.Obj, fr.VPage)] = true
	}
	if err := s.installEntry(f, imu.TLBEntry{}); err != nil {
		return err
	}
	m.frames[f] = Frame{}
	s.Count.Evictions++
	m.Count.Evictions++
	return nil
}

// HandleFault services one translation fault: it decodes the cause from
// the session's IMU register bank, validates the access, makes a frame
// available (free, param-reclaim, eviction, or — under GlobalLRU — a steal
// from another session), loads the page if the object direction needs it,
// optionally prefetches sequential successors, and restarts the IMU
// channel.
func (s *Session) HandleFault() error {
	m := s.m
	s.Count.Faults++
	m.Count.Faults++
	m.k.ChargeIRQ(stats.SWIMU)

	// Decode the fault cause (timed register reads: SR then AR).
	if _, err := m.k.BusRead32(stats.SWIMU, s.regAddr(imu.RegSR)); err != nil {
		return err
	}
	ar, err := m.k.BusRead32(stats.SWIMU, s.regAddr(imu.RegAR))
	if err != nil {
		return err
	}
	obj := uint8(ar >> 24)
	addr := ar & 0x00ffffff

	o, ok := s.objects[obj]
	if !ok {
		return fmt.Errorf("%w: coprocessor touched unmapped object %d (addr %#x)", ErrBadObject, obj, addr)
	}
	if addr >= o.Size {
		return fmt.Errorf("%w: object %d addr %#x size %#x", ErrOutOfBounds, obj, addr, o.Size)
	}
	vpage := addr / m.pageSz

	faultFrame, err := s.pageIn(o, vpage)
	if err != nil {
		return err
	}

	// Sequential prefetch (§3.3 "speculative actions as prefetching"):
	// while servicing the fault, also bring in the following pages of the
	// same object — each one turns a future fault (interrupt + decode +
	// restart) into a batched page load. The just-faulted page is pinned
	// so speculation can never displace it.
	if s.cfg.PrefetchPages > 0 {
		m.frames[faultFrame].Pinned = true
		for p := 1; p <= s.cfg.PrefetchPages; p++ {
			vp := vpage + uint32(p)
			if vp >= o.Pages(m.pageSz) || s.resident(o.ID, vp) {
				continue
			}
			if _, err := s.pageIn(o, vp); err != nil {
				if errors.Is(err, ErrNoFrames) {
					break
				}
				return err
			}
			s.Count.Prefetches++
			m.Count.Prefetches++
		}
		m.frames[faultFrame].Pinned = false
	}

	// Restart the stalled translation (timed CR write).
	return m.k.BusWrite32(stats.SWIMU, s.regAddr(imu.RegCR), imu.CRRestart)
}

// pageKey packs an (object, page) pair for the written-back set.
func pageKey(obj uint8, vpage uint32) uint64 {
	return uint64(obj)<<32 | uint64(vpage)
}

// needsLoad decides whether binding (o, vpage) requires a data copy from
// user space: always for readable objects; for output objects only once
// the page holds previously written-back partial results.
func (s *Session) needsLoad(o *Object, vpage uint32) bool {
	if o.Dir != Out {
		return true
	}
	return s.writtenBack[pageKey(o.ID, vpage)]
}

// pageIn makes (o, vpage) resident, evicting (or stealing) if necessary,
// and returns the frame used.
func (s *Session) pageIn(o *Object, vpage uint32) (int, error) {
	f := s.freeFrame(true)
	if f < 0 {
		victim, owner := s.m.victim(s)
		if victim < 0 {
			return -1, ErrNoFrames
		}
		if err := owner.evict(victim); err != nil {
			return -1, err
		}
		if owner != s {
			s.Count.Steals++
			s.m.Count.Steals++
		}
		f = victim
	}
	return f, s.mapPage(o, vpage, f, s.needsLoad(o, vpage))
}

// resident reports whether (obj, vpage) currently occupies one of the
// session's frames.
func (s *Session) resident(obj uint8, vpage uint32) bool {
	m := s.m
	for i := range m.frames {
		fr := &m.frames[i]
		if fr.Occupied && !fr.Pinned && fr.Sess == s.id && fr.Obj == obj && fr.VPage == vpage {
			return true
		}
	}
	return false
}

// Finish performs the end-of-operation service of §3.3: every dirty page
// the session still holds is copied back to user space, and its slice of
// the translation table is cleared for the next execution.
func (s *Session) Finish() error {
	m := s.m
	m.k.ChargeIRQ(stats.SWOS)
	for f := range m.frames {
		fr := &m.frames[f]
		if !fr.Occupied || fr.Pinned || fr.Sess != s.id {
			continue
		}
		if err := m.k.BusWrite32(stats.SWIMU, s.regAddr(imu.RegTLBIdx), uint32(f)); err != nil {
			return err
		}
		hi, err := m.k.BusRead32(stats.SWIMU, s.regAddr(imu.RegTLBHi))
		if err != nil {
			return err
		}
		if hi&(1<<8) != 0 { // dirty
			o, ok := s.objects[fr.Obj]
			if !ok {
				return fmt.Errorf("%w: frame %d owned by unknown object %d", ErrBadObject, f, fr.Obj)
			}
			if err := s.copyOut(o, fr.VPage, f); err != nil {
				return err
			}
			s.Count.PagesFlushed++
			m.Count.PagesFlushed++
		}
		m.frames[f] = Frame{}
	}
	m.u.InvalidateSession(s.id)
	m.k.ChargeCPU(stats.SWOS, m.k.Costs.WakeProcess)
	return nil
}

// pageSpan returns the user address and byte length (word-padded) of page
// vpage of object o.
func (s *Session) pageSpan(o *Object, vpage uint32) (uint32, int) {
	off := vpage * s.m.pageSz
	n := s.m.pageSz
	if off+n > o.Size {
		n = o.Size - off
	}
	// Word-pad: user buffers are allocated with 8-byte padding, so the
	// rounded copy stays in bounds.
	n = (n + 3) &^ 3
	return o.Base + off, int(n)
}

// copyIn moves one page of o from user space into frame f.
func (s *Session) copyIn(o *Object, vpage uint32, f int) error {
	m := s.m
	src, n := s.pageSpan(o, vpage)
	if n == 0 {
		return nil
	}
	if s.cfg.BounceBuffer {
		// The naive module staged every page through a kernel buffer:
		// two transfers per movement (§4.1).
		if err := m.k.BusCopy(stats.SWDP, m.bounce, src, n); err != nil {
			return err
		}
		src = m.bounce
	}
	if err := m.k.BusCopy(stats.SWDP, m.frameAddr(f), src, n); err != nil {
		return err
	}
	s.Count.PagesLoaded++
	m.Count.PagesLoaded++
	s.Count.BytesIn += uint64(n)
	m.Count.BytesIn += uint64(n)
	return nil
}

// copyOut moves frame f back to page vpage of o in user space.
func (s *Session) copyOut(o *Object, vpage uint32, f int) error {
	m := s.m
	dst, n := s.pageSpan(o, vpage)
	if n == 0 {
		return nil
	}
	src := m.frameAddr(f)
	if s.cfg.BounceBuffer {
		if err := m.k.BusCopy(stats.SWDP, m.bounce, src, n); err != nil {
			return err
		}
		src = m.bounce
	}
	if err := m.k.BusCopy(stats.SWDP, dst, src, n); err != nil {
		return err
	}
	s.Count.BytesOut += uint64(n)
	m.Count.BytesOut += uint64(n)
	return nil
}
