// Package vim implements the Virtual Interface Manager of §3.3 — the
// operating-system extension that manages the dual-port RAM as a pool of
// pages, keeps the IMU's translation table coherent with its allocation
// decisions, services translation faults (eviction, dirty write-back, page
// load), and flushes dirty data back to user space at end of operation.
//
// This is the paper's primary software contribution, reproduced in full:
// mapped-object bookkeeping (FPGA_MAP_OBJECT), the initial mapping performed
// by FPGA_EXECUTE with scalar parameters passed through a dedicated page,
// demand paging with pluggable replacement policies, the load-elision
// optimisation for output-only objects (the "flags used for optimisation
// purposes" of §3.1), optional sequential prefetch (§3.3 "speculative
// actions as prefetching could be used"), and the bounce-buffer transfer
// mode that reproduces the double-copy inefficiency the paper reports and
// was removing.
//
// # Sessions
//
// Beyond the paper, the manager is multi-tenant: a Manager owns the shared
// page pool (the frames of one dual-port RAM) and any number of Sessions,
// one per loaded coprocessor. Each session brings its own mapped-object
// table, its own slice of the IMU translation table (entries are
// session-tagged), its own replacement policy, a home partition of the page
// pool, and its own counters. How sessions compete for frames is decided by
// the manager-wide Arbitration policy: StaticPartition confines every
// session to its home partition, GlobalLRU lets a loaded session steal the
// globally least-recently-used frame from a neighbour. A manager whose
// only session, on IMU channel 0, spans the whole pool (core.Session's)
// reproduces the paper's original module bit for bit.
//
// Sessions are dynamic: Attach admits a new session on a named session
// slot, which is its IMU channel and must already be configured, while
// others are mid-execution (first-fit partition carve), and Detach reclaims
// a finished session's frames, translation-table slice and slot, so a
// gang of shell slots (package core) can load and unload coprocessors at
// runtime, under a live job stream (package rcsched) or side by side.
package vim

import (
	"errors"
	"fmt"

	"repro/internal/imu"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Direction declares how the coprocessor uses a mapped object.
type Direction int

const (
	// In objects are read by the coprocessor: pages are loaded from user
	// space on (pre)fault.
	In Direction = iota
	// Out objects are only written: page loads are elided.
	Out
	// InOut objects are both read and written.
	InOut
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Errors returned by the manager.
var (
	ErrBadObject   = errors.New("vim: invalid object")
	ErrOutOfBounds = errors.New("vim: coprocessor access beyond object bounds")
	ErrNoFrames    = errors.New("vim: no evictable frame")
	ErrPartition   = errors.New("vim: bad session partition")
)

// Object is one mapped data object (the FPGA_MAP_OBJECT contract).
type Object struct {
	ID   uint8
	Base uint32 // user-space address
	Size uint32 // bytes
	Dir  Direction
}

// Pages returns the number of pages the object spans.
func (o *Object) Pages(pageSize uint32) uint32 {
	return (o.Size + pageSize - 1) / pageSize
}

// Frame is the manager's view of one DP RAM page frame. Sess identifies the
// owning session while the frame is occupied; free frames belong to the
// home partition they sit in.
type Frame struct {
	Occupied bool
	Pinned   bool  // parameter page while still live
	Sess     uint8 // owning session while occupied
	Obj      uint8
	VPage    uint32
	LoadSeq  uint64
}

// Config tunes one session of the manager.
type Config struct {
	// Policy picks eviction victims among the session's own frames; nil
	// means FIFO.
	Policy Policy
	// BounceBuffer reproduces the paper's naive implementation that makes
	// two transfers per page movement (user <-> kernel buffer <-> DP RAM).
	BounceBuffer bool
	// PrefetchPages maps (and loads) up to this many sequential next pages
	// of the faulting object while servicing a fault, if free frames are
	// available. 0 disables prefetch.
	PrefetchPages int
}

// Counters aggregates manager activity. The manager keeps one aggregate set
// across all sessions plus one per session.
type Counters struct {
	Faults       uint64
	Evictions    uint64
	Writebacks   uint64 // dirty pages copied back (fault path)
	PagesLoaded  uint64
	PagesFlushed uint64 // dirty pages copied back at end of operation
	LoadsElided  uint64 // OUT pages mapped without a data copy
	Prefetches   uint64
	Steals       uint64 // frames evicted from another session (GlobalLRU)
	BytesIn      uint64 // user -> DP RAM
	BytesOut     uint64 // DP RAM -> user
}

// Arbitration decides how sessions compete for page frames.
type Arbitration int

const (
	// StaticPartition confines every session to its home partition: frames
	// are allocated and evicted strictly within [lo, hi).
	StaticPartition Arbitration = iota
	// GlobalLRU lets a session that has exhausted its partition take the
	// frame pool's globally least-recently-used frame: the owner of that
	// frame is chosen as the victim session, the owner's own replacement
	// policy picks which of its frames to give up, and the stealing
	// session takes it over.
	GlobalLRU
)

// String implements fmt.Stringer.
func (a Arbitration) String() string {
	if a == GlobalLRU {
		return "global-lru"
	}
	return "static"
}

// NewArbitration resolves an arbitration policy by name ("static",
// "global-lru").
func NewArbitration(name string) (Arbitration, bool) {
	switch name {
	case "", "static":
		return StaticPartition, true
	case "global-lru", "globallru", "lru":
		return GlobalLRU, true
	}
	return StaticPartition, false
}

// Manager is the Virtual Interface Manager: the shared half of the
// subsystem. It owns the frame pool, the arbitration policy, the bounce
// staging buffer and the aggregate counters; Sessions own everything
// per-tenant.
type Manager struct {
	k       *kernel.Kernel
	u       *imu.IMU
	arb     Arbitration
	dpBase  uint32 // AHB base address of the DP RAM
	regBase uint32 // AHB base address of the IMU register window
	pageSz  uint32

	frames []Frame
	// sessions is indexed by session identifier (== the session's IMU
	// channel); a nil hole is a detached slot awaiting reuse. live counts
	// the non-nil entries.
	sessions []*Session
	live     int

	// view is the reusable scratch slice scopedVictim hands to replacement
	// policies: a copy of frames with foreign sessions' frames blanked,
	// built on first use (a single session never needs it).
	view []Frame

	// bounce is the kernel-space staging buffer address (allocated once,
	// shared by all bounce-mode sessions; OS services are serialised).
	bounce uint32

	// Count aggregates activity across every session.
	Count Counters
}

// NewManager builds an empty multi-session manager over the kernel and IMU;
// dpBase and regBase are the AHB addresses of the DP RAM and the IMU
// register window. Partitions are carved by Attach.
func NewManager(k *kernel.Kernel, u *imu.IMU, dpBase, regBase uint32, pageSize int, arb Arbitration) (*Manager, error) {
	if k == nil || u == nil {
		return nil, fmt.Errorf("vim: nil kernel or IMU")
	}
	return &Manager{
		k:       k,
		u:       u,
		arb:     arb,
		dpBase:  dpBase,
		regBase: regBase,
		pageSz:  uint32(pageSize),
		frames:  make([]Frame, u.Entries()),
	}, nil
}

// Attach admits a new session: it claims session slot ch, which is also the
// session's IMU channel and so must name a configured channel, carves a
// first-fit contiguous run of nframes free frames into the new session's
// home partition, and returns the session. The parameter page occupies the
// partition's first frame, so a runnable session needs at least two
// frames. Attach may be called while other sessions are mid-execution — the
// carve only ever takes frames that belong to no live partition and hold no
// page, so neighbours keep translating undisturbed. Detach is the inverse.
func (m *Manager) Attach(cfg Config, nframes int, ch int) (*Session, error) {
	if ch < 0 || ch >= m.u.Channels() {
		return nil, fmt.Errorf("%w: session slot %d on a %d-channel IMU", ErrPartition, ch, m.u.Channels())
	}
	if ch < len(m.sessions) && m.sessions[ch] != nil {
		return nil, fmt.Errorf("%w: session slot %d already live", ErrPartition, ch)
	}
	if nframes < 2 {
		return nil, fmt.Errorf("%w: %d frames (the parameter page needs one, data at least one)", ErrPartition, nframes)
	}
	lo := m.findRun(nframes)
	if lo < 0 {
		return nil, fmt.Errorf("%w: no contiguous run of %d free frames in the pool", ErrPartition, nframes)
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	if cfg.BounceBuffer && m.bounce == 0 {
		addr, err := m.k.Alloc(int(m.pageSz))
		if err != nil {
			return nil, fmt.Errorf("vim: bounce buffer: %w", err)
		}
		m.bounce = addr
	}
	s := &Session{
		m:           m,
		id:          uint8(ch),
		lo:          lo,
		hi:          lo + nframes,
		cfg:         cfg,
		objects:     map[uint8]*Object{},
		writtenBack: map[uint64]bool{},
	}
	for ch >= len(m.sessions) {
		m.sessions = append(m.sessions, nil)
	}
	m.sessions[ch] = s
	m.live++
	return s, nil
}

// Detach tears a session down and reclaims its resources: every frame it
// owns is dropped (no write-back — flush results with Finish first), its
// slice of the IMU translation table is invalidated, its object table is
// cleared, and both its home partition and its session slot return to the
// pool for a later Attach. Surviving sessions keep translating throughout.
func (m *Manager) Detach(s *Session) error {
	if s == nil || int(s.id) >= len(m.sessions) || m.sessions[s.id] != s {
		return fmt.Errorf("%w: detaching a session the manager does not hold", ErrPartition)
	}
	for i := range m.frames {
		if m.frames[i].Occupied && m.frames[i].Sess == s.id {
			m.frames[i] = Frame{}
		}
	}
	m.u.InvalidateSession(s.id)
	m.u.ClearParamFreeCh(int(s.id))
	s.objects = map[uint8]*Object{}
	s.writtenBack = map[uint64]bool{}
	m.sessions[s.id] = nil
	m.live--
	return nil
}

// findRun locates the lowest first-fit contiguous run of n carveable frames:
// frames inside no live partition and holding no page (a neighbour may have
// borrowed an uncarved frame under GlobalLRU). It returns the start index,
// or -1.
func (m *Manager) findRun(n int) int {
	run := 0
	for i := range m.frames {
		if m.frames[i].Occupied || m.inPartition(i) {
			run = 0
			continue
		}
		run++
		if run == n {
			return i - n + 1
		}
	}
	return -1
}

// inPartition reports whether frame f lies inside a live session's home
// partition.
func (m *Manager) inPartition(f int) bool {
	for _, s := range m.sessions {
		if s != nil && f >= s.lo && f < s.hi {
			return true
		}
	}
	return false
}

// single reports whether the manager runs the paper's single-session shape
// (one live session), which uses the original unscoped fast paths.
func (m *Manager) single() bool { return m.live == 1 }

// Sessions returns the live sessions in slot order (experiments, tools).
func (m *Manager) Sessions() []*Session {
	out := make([]*Session, 0, m.live)
	for _, s := range m.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Arbitration returns the inter-session arbitration policy.
func (m *Manager) Arbitration() Arbitration { return m.arb }

// PageSize returns the page size in bytes.
func (m *Manager) PageSize() uint32 { return m.pageSz }

// Frames returns a copy of the shared frame table (tests, reports).
func (m *Manager) Frames() []Frame { return append([]Frame(nil), m.frames...) }

// ResetCounters zeroes the aggregate and every live session's counters.
func (m *Manager) ResetCounters() {
	m.Count = Counters{}
	for _, s := range m.sessions {
		if s != nil {
			s.Count = Counters{}
		}
	}
}

// frameAddr returns the AHB address of frame f.
func (m *Manager) frameAddr(f int) uint32 { return m.dpBase + uint32(f)*m.pageSz }

// scopedVictim asks the owner session's replacement policy for a victim
// among the owner's own frames: the shared pool is copied into the scratch
// view with every foreign (or free) frame blanked, so policies written for
// the single-session manager work unchanged on a partitioned pool.
func (m *Manager) scopedVictim(owner *Session) int {
	m.view = append(m.view[:0], m.frames...)
	for i := range m.view {
		if !(m.view[i].Occupied && m.view[i].Sess == owner.id) {
			m.view[i] = Frame{}
		}
	}
	return owner.cfg.Policy.Victim(m.view, m.u)
}

// lruOwner finds the session owning the globally least-recently-used
// evictable frame, or nil if nothing is evictable.
func (m *Manager) lruOwner() *Session {
	best, bestUse := -1, uint64(0)
	for i := range m.frames {
		f := &m.frames[i]
		if !f.Occupied || f.Pinned {
			continue
		}
		use := m.u.Entry(i).LastUse
		if best < 0 || use < bestUse {
			best, bestUse = i, use
		}
	}
	if best < 0 {
		return nil
	}
	return m.sessions[m.frames[best].Sess]
}

// victim selects an eviction victim on behalf of session s under the
// arbitration policy, returning the frame index and the session that owns
// it (and whose object table must drive the write-back), or (-1, nil).
func (m *Manager) victim(s *Session) (int, *Session) {
	if m.single() {
		// The paper's original path: the policy sees the raw pool.
		return s.cfg.Policy.Victim(m.frames, m.u), s
	}
	switch m.arb {
	case GlobalLRU:
		owner := m.lruOwner()
		if owner == nil {
			return -1, nil
		}
		return m.scopedVictim(owner), owner
	default: // StaticPartition
		return m.scopedVictim(s), s
	}
}

// installEntry programs TLB entry == frame index f (the manager's fixed
// convention) through timed register writes against session s's bank.
func (s *Session) installEntry(f int, e imu.TLBEntry) error {
	e.Sess = s.id
	if err := s.m.k.BusWrite32(stats.SWIMU, s.regAddr(imu.RegTLBIdx), uint32(f)); err != nil {
		return err
	}
	if err := s.m.k.BusWrite32(stats.SWIMU, s.regAddr(imu.RegTLBLo), packLo(e)); err != nil {
		return err
	}
	return s.m.k.BusWrite32(stats.SWIMU, s.regAddr(imu.RegTLBHi), packHi(e))
}

// packLo/packHi mirror the IMU register encoding (the VIM is the other side
// of that contract).
func packLo(e imu.TLBEntry) uint32 {
	v := uint32(0)
	if e.Valid {
		v |= 1
	}
	v |= uint32(e.Obj) << 1
	v |= (e.VPage & 0x7fff) << 9
	v |= uint32(e.Sess&0xf) << 24
	return v
}

func packHi(e imu.TLBEntry) uint32 {
	v := uint32(e.Frame)
	if e.Dirty {
		v |= 1 << 8
	}
	if e.Ref {
		v |= 1 << 9
	}
	return v
}

// regAddr returns the AHB address of register off in session s's bank.
func (s *Session) regAddr(off uint32) uint32 {
	return s.m.regBase + imu.RegBank(int(s.id)) + off
}
