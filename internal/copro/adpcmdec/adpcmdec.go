// Package adpcmdec implements the adpcmdecode coprocessor of the paper's
// Figure 8: an IMA/DVI ADPCM decoder that reads packed 4-bit codes from
// object 0 and writes 16-bit PCM samples to object 1 — producing four times
// its input volume, which is what drives the dual-port RAM under pressure
// as the input grows.
//
// The decode data path mirrors the reference codec exactly (same ROMs, same
// clamping); each nibble costs one compute cycle between the translated
// memory accesses, matching the simple, non-pipelined core the paper runs
// at 40 MHz.
package adpcmdec

import (
	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/ref"
	"repro/internal/sim"
)

// CoreName is the identity carried in bitstream images.
const CoreName = "adpcmdec"

// Object identifiers of the software/hardware contract.
const (
	ObjIn  = 0 // packed ADPCM codes, byte stream
	ObjOut = 1 // decoded PCM samples, int16 stream
)

// DecodeCycles is the core-clock cost of decoding one nibble. The paper's
// decoder is a simple, area-minimal core (40 MHz, ~1.5x over the 133 MHz
// ARM): the step-size lookup comes from block RAM and the difference
// accumulation and clamping run serially on a shared adder, so one code
// takes many cycles rather than one.
const DecodeCycles = 16

type state uint8

const (
	stWaitStart state = iota
	stParamIssue
	stParamWait
	stReadIssue
	stReadWait
	stDecodeHi
	stWriteHiIssue
	stWriteHiWait
	stDecodeLo
	stWriteLoIssue
	stWriteLoWait
	stDone
)

// Core is the ADPCM decoder coprocessor model.
type Core struct {
	port *copro.Port
	mem  *copro.Mem

	st      state
	nbytes  uint32 // input bytes to decode
	i       uint32 // current input byte
	sample  uint32 // output sample index
	current byte   // latched input byte
	dec     ref.ADPCMState
	out     int16
	wait    uint32 // remaining serial decode cycles
}

// New returns a reset core.
func New() *Core { return &Core{} }

// Name implements copro.Coprocessor.
func (c *Core) Name() string { return CoreName }

// Bind implements copro.Coprocessor.
func (c *Core) Bind(p *copro.Port) {
	c.port = p
	c.mem = copro.NewMem(p)
}

// ResetCore implements copro.Coprocessor.
func (c *Core) ResetCore() {
	c.st = stWaitStart
	c.nbytes, c.i, c.sample = 0, 0, 0
	c.current = 0
	c.wait = 0
	c.dec = ref.ADPCMState{}
	if c.mem != nil {
		c.mem.ResetMem()
	}
}

// IdleEdges implements sim.BulkIdler. At the top of its loop the core
// advertises a hit run over the input bytes whose accesses all hit
// (copro.Mem.RunEdges). The serial decode states are pure
// countdowns: from a committed wait of 0 the next edge arms the counter at
// DecodeCycles and the following DecodeCycles-1 edges only decrement it, so
// all but the final edge (which performs the nibble decode and must be
// delivered) are inert. Waiting for CP_START, holding CP_FIN and the states
// gated on a stalled access handshake are open-ended idle windows ended
// only by an IMU commit.
func (c *Core) IdleEdges() int64 {
	if c.st == stReadIssue {
		if w := c.mem.RunEdges(c); w > 0 {
			return w
		}
	}
	switch c.st {
	case stParamWait, stReadIssue, stReadWait, stWriteHiIssue, stWriteHiWait, stWriteLoIssue, stWriteLoWait:
		if c.port.IMURef().Start && c.mem.Stalled() {
			return sim.IdleForever
		}
	case stWaitStart:
		if !c.port.IMURef().Start && c.mem.Quiet() {
			return sim.IdleForever
		}
	case stDecodeHi, stDecodeLo:
		if c.port.IMURef().Start && c.mem.Quiet() {
			if c.wait == 0 {
				return DecodeCycles - 1
			}
			if c.wait > 1 {
				return int64(c.wait) - 1
			}
		}
	case stDone:
		if c.port.IMURef().Start && c.mem.Quiet() && c.port.CPRef().Fin {
			return sim.IdleForever
		}
	}
	return 0
}

// SkipEdges implements sim.BulkIdler: a hit run executes its input bytes,
// a skipped decode edge arms the countdown if this is the first edge of the
// window and decrements it otherwise, and a skipped stall edge counts a
// wait cycle, exactly as the delivered edges would have.
func (c *Core) SkipEdges(k int64) {
	if c.st == stReadIssue && c.mem.SkipRun(k, c) {
		return
	}
	c.mem.SkipEdges(k)
	if c.st == stDecodeHi || c.st == stDecodeLo {
		if c.wait == 0 {
			c.wait = DecodeCycles
		}
		c.wait -= uint32(k)
	}
}

// Unit implements copro.Program: input byte i is read, and its high and
// then its low nibble are decoded serially and written as two samples. The
// last byte raises CP_FIN.
func (c *Core) Unit(k int, u *copro.Unit) bool {
	i := c.i + uint32(k)
	if i+1 >= c.nbytes {
		return false
	}
	s := c.sample + 2*uint32(k)
	u.Read(ObjIn, i, copro.Size8)
	u.Compute(DecodeCycles)
	u.Write(ObjOut, s*2, copro.Size16)
	u.Compute(DecodeCycles)
	u.Write(ObjOut, s*2+2, copro.Size16)
	return true
}

// Kernel implements copro.Program: both nibbles of one input byte.
func (c *Core) Kernel(u *copro.Unit) {
	c.current = byte(u.Steps[0].Val)
	hi := ref.ADPCMDecodeNibble(&c.dec, c.current>>4)
	c.out = ref.ADPCMDecodeNibble(&c.dec, c.current&0xf)
	u.Steps[2].Val = uint32(uint16(hi))
	u.Steps[4].Val = uint32(uint16(c.out))
	c.sample += 2
	c.i++
}

// Eval implements sim.Ticker.
func (c *Core) Eval() {
	in := c.port.IMU()
	c.mem.Step()
	pinv := false

	if !in.Start && c.st != stWaitStart {
		c.ResetCore()
	}

	switch c.st {
	case stWaitStart:
		if in.Start {
			c.st = stParamIssue
		}
	case stParamIssue:
		c.mem.Read(copro.ParamObj, 0, copro.Size32)
		c.st = stParamWait
	case stParamWait:
		if c.mem.Completed() {
			c.nbytes = c.mem.Data()
			pinv = true
			c.i, c.sample = 0, 0
			c.dec = ref.ADPCMState{}
			if c.nbytes == 0 {
				c.st = stDone
			} else {
				c.st = stReadIssue
			}
		}
	case stReadIssue:
		if c.mem.Ready() {
			c.mem.Read(ObjIn, c.i, copro.Size8)
			c.st = stReadWait
		}
	case stReadWait:
		if c.mem.Completed() {
			c.current = byte(c.mem.Data())
			c.st = stDecodeHi
		}
	case stDecodeHi:
		// Serial decode: block-RAM step lookup plus shared-adder
		// difference accumulation and clamping.
		if c.wait == 0 {
			c.wait = DecodeCycles
		}
		c.wait--
		if c.wait == 0 {
			c.out = ref.ADPCMDecodeNibble(&c.dec, c.current>>4)
			c.st = stWriteHiIssue
		}
	case stWriteHiIssue:
		if c.mem.Ready() {
			c.mem.Write(ObjOut, c.sample*2, copro.Size16, uint32(uint16(c.out)))
			c.st = stWriteHiWait
		}
	case stWriteHiWait:
		if c.mem.Completed() {
			c.sample++
			c.st = stDecodeLo
		}
	case stDecodeLo:
		if c.wait == 0 {
			c.wait = DecodeCycles
		}
		c.wait--
		if c.wait == 0 {
			c.out = ref.ADPCMDecodeNibble(&c.dec, c.current&0xf)
			c.st = stWriteLoIssue
		}
	case stWriteLoIssue:
		if c.mem.Ready() {
			c.mem.Write(ObjOut, c.sample*2, copro.Size16, uint32(uint16(c.out)))
			c.st = stWriteLoWait
		}
	case stWriteLoWait:
		if c.mem.Completed() {
			c.sample++
			c.i++
			if c.i >= c.nbytes {
				c.st = stDone
			} else {
				c.st = stReadIssue
			}
		}
	case stDone:
	}

	c.mem.Drive(c.st == stDone, pinv)
}

// Update implements sim.Ticker.
func (c *Core) Update() { c.mem.Commit() }

// Mem exposes the access helper for reports and tests.
func (c *Core) Mem() *copro.Mem { return c.mem }

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (any, error) {
		return New(), nil
	})
}
