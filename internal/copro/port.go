// Package copro defines the portable coprocessor interface of the paper's
// Figure 4 — the CP_* signal bundle between a standardised coprocessor and
// the Interface Management Unit — and the one access sequencer every
// coprocessor runs on.
//
// Everything on this side of the IMU is platform independent: a coprocessor
// names an object (CP_OBJ) and a byte offset within it (CP_ADDR) and never
// sees physical dual-port-RAM addresses, memory sizes, or allocation policy.
// Each Port carries exactly one coprocessor; a multi-session IMU simply
// binds several ports (one per channel) over the same dual-port memory, so
// cores need no changes to run as tenants of a shared shell.
//
// A core is a Program: the parameter words it reads at start-up, and its
// loop as a sequence of units (reads, compute cycles, writes) plus a kernel
// over each unit's data. Seq, Figure 5's FSM, runs any Program on a Port
// edge by edge through the request/acknowledge handshake of Mem. On a port
// wired to its IMU channel's HitService — every shell slot's — Seq also
// runs a TLB-resident stretch of units as one hit run, advertised and
// consumed through its own idle window, leaving exactly the state its edge
// path would.
package copro

import "repro/internal/sim"

// ParamObj is the reserved object identifier of the parameter-passing page
// (§3.2 of the paper: scalar parameters are read from a designated page at
// start-up, after which the coprocessor invalidates it).
const ParamObj = 0xff

// Access sizes in bytes carried on the control bundle.
const (
	Size8  = 1
	Size16 = 2
	Size32 = 4
)

// ByteEnables are the byte enables of a size-byte store at byte lane lane
// of a memory word: the lanes from lane on that the access covers. A
// store's data moves to its lane (v << 8·lane), and whatever passes the
// word's last lane is dropped: a Size16 store at lane 3 writes one byte.
func ByteEnables(size uint8, lane uint32) uint8 {
	switch size {
	case Size8:
		return 1 << lane
	case Size16:
		return 3 << lane
	}
	return 0xf
}

// LaneData extracts a size-byte load at byte lane lane from a memory word,
// lane-aligned to bit 0.
func LaneData(word, lane uint32, size uint8) uint32 {
	v := word >> (8 * lane)
	switch size {
	case Size8:
		v &= 0xff
	case Size16:
		v &= 0xffff
	}
	return v
}

// CPOut is the set of signals driven by the coprocessor, committed at the
// coprocessor's clock edge. The wide fields lead so the bundle packs into
// 16 bytes, which keeps a Port within its allocation size class.
type CPOut struct {
	Addr     uint32 // CP_ADDR: byte offset within the object
	DOut     uint32 // CP_DOUT: write data
	Obj      uint8  // CP_OBJ: object identifier
	Size     uint8  // access width in bytes (1, 2 or 4)
	Access   bool   // CP_ACCESS: request valid
	Wr       bool   // CP_WR: request is a write
	Fin      bool   // CP_FIN: operation complete
	ParamInv bool   // CP_PINV: parameter page consumed, invalidate it
}

// IMUOut is the set of signals driven by the IMU towards the coprocessor.
type IMUOut struct {
	Start  bool   // CP_START: begin operation
	TLBHit bool   // CP_TLBHIT: translation + memory access completed
	DIn    uint32 // CP_DIN: read data (sub-word values are lane-aligned)
}

// Port is the wire bundle between one coprocessor and one IMU. Each side
// owns one direction: it schedules its outputs during Eval (StageCP,
// SetIMU) and commits them in Update; it reads the opposite direction's
// committed values. This enforces the two-phase synchronous contract of
// package sim across the boundary.
//
// Each direction also carries a change notice for the consumer's published
// idle horizon (sim.Publisher): a commit that changes the bundle
// invalidates the horizon wired to it, and the IMU-side notice also sets
// the consumer's bit in a change mask, so a composite consumer (the shell)
// knows which of its sleeping cores to wake. Unwired notices do nothing.
type Port struct {
	cp  sim.Reg[CPOut]
	imu sim.Reg[IMUOut]

	cpSeen   *sim.Horizon
	imuSeen  *sim.Horizon
	imuMask  *uint32
	imuFlags uint32

	// hits wires the bound IMU channel's hit service (nil: the core never
	// takes a hit run).
	hits *HitWire
}

// HitWire is a port's wiring to its IMU channel's hit service: the service,
// the channel's IMU edges per core edge, and the phase at wiring time (the
// IMU edges since the last one on which a core edge could fall). Its owner
// keeps it (a shell slot reuses one across loads), so wiring a port
// allocates nothing.
type HitWire struct {
	svc   HitService
	ratio int64
	phase int64
}

// NewPort returns a quiescent port.
func NewPort() *Port { return &Port{} }

// CP returns the committed coprocessor-driven signals.
func (p *Port) CP() CPOut { return p.cp.Get() }

// CPRef returns a read-only view of the committed coprocessor-driven
// signals. The pointed-to value is stable for the duration of an Eval (only
// the coprocessor's Update commits it); callers must not write through it.
// Hot per-edge consumers (the IMU's idle check) use this to avoid copying
// the bundle on every edge.
func (p *Port) CPRef() *CPOut { return p.cp.Ref() }

// StageCP schedules the coprocessor-driven signals for editing in place
// (coprocessor Eval): it returns the bundle the next CommitCP commits,
// which starts from the committed bundle unless already staged this edge.
func (p *Port) StageCP() *CPOut { return p.cp.Stage() }

// CommitCP commits the coprocessor-driven signals (coprocessor Update).
func (p *Port) CommitCP() {
	if p.cp.Commit() {
		p.cpSeen.Invalidate()
	}
}

// IMU returns the committed IMU-driven signals.
func (p *Port) IMU() IMUOut { return p.imu.Get() }

// IMURef returns a read-only view of the committed IMU-driven signals,
// under the same contract as CPRef.
func (p *Port) IMURef() *IMUOut { return p.imu.Ref() }

// SetIMU schedules the IMU-driven signals (IMU Eval).
func (p *Port) SetIMU(v IMUOut) { p.imu.Set(v) }

// CommitIMU commits the IMU-driven signals (IMU Update).
func (p *Port) CommitIMU() {
	if p.imu.Commit() {
		p.imuChanged()
	}
}

func (p *Port) imuChanged() {
	p.imuSeen.Invalidate()
	if p.imuMask != nil {
		*p.imuMask |= p.imuFlags
	}
}

// SettleIMU commits v as the IMU-driven bundle outside a clock edge, as the
// edges of a hit run would have left it, posting the change notice if it
// differs from the committed one.
func (p *Port) SettleIMU(v IMUOut) {
	if *p.imu.Ref() != v {
		p.imu.Force(v)
		p.imuChanged()
	}
}

// ServeHits wires the hit service h of the IMU channel the port is bound
// to through w, for a core that ticks on every ratio-th IMU edge, the next
// of them ratio-phase edges after the IMU's current one. The core then
// takes hit runs (Seq.RunEdges) wherever the service is ready. A nil w or
// h, or a ratio below 1, unwires it, and a port left unwired runs its core
// on the edge path alone. Wire the port before binding the core
// (Seq.Bind), which reads the IMU's edge count and the phase through it.
func (p *Port) ServeHits(w *HitWire, h HitService, ratio, phase int64) {
	p.hits = nil
	if w != nil && h != nil && ratio > 0 {
		*w = HitWire{svc: h, ratio: ratio, phase: phase}
		p.hits = w
	}
}

// WatchCP wires the coprocessor-side change notice: every commit of a new
// coprocessor-driven bundle invalidates h (the IMU's horizon).
func (p *Port) WatchCP(h *sim.Horizon) { p.cpSeen = h }

// WatchIMU wires the IMU-side change notice: every commit of a new
// IMU-driven bundle invalidates h and sets flags in *mask.
func (p *Port) WatchIMU(h *sim.Horizon, mask *uint32, flags uint32) {
	p.imuSeen, p.imuMask, p.imuFlags = h, mask, flags
}

// Reset forces both directions to quiescent values (testbench use),
// posting both change notices.
func (p *Port) Reset() {
	p.cp.Force(CPOut{})
	p.imu.Force(IMUOut{})
	p.cpSeen.Invalidate()
	p.imuChanged()
}
