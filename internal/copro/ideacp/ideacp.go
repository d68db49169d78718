// Package ideacp implements the IDEA coprocessor of the paper's Figure 9: a
// 3-stage-pipelined cipher core clocked at 6 MHz behind an IMU and memory
// subsystem at 24 MHz, synchronised by the CP_TLBHIT stall mechanism.
//
// Object 0 is the input stream and object 1 the output stream (both
// processed as 64-bit ECB blocks). The parameter page carries the block
// count and the 52 pre-expanded 16-bit subkeys — the key schedule runs in
// software, as in the paper's port where only the critical kernel moved to
// hardware. With its 3-stage round pipeline the core sustains roughly one
// round per cycle once full; ComputeCycles models the per-block occupancy
// (8 rounds + output transform + pipeline fill).
package ideacp

import (
	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/ref"
	"repro/internal/sim"
)

// CoreName is the identity carried in bitstream images.
const CoreName = "idea"

// Object identifiers of the software/hardware contract.
const (
	ObjIn  = 0
	ObjOut = 1
)

// ComputeCycles is the core-clock occupancy of one block in the 3-stage
// round pipeline: 8 rounds at one cycle each in steady state, plus the
// output transform and pipeline fill.
const ComputeCycles = 12

// Parameter-page layout (byte offsets).
const (
	ParamCount   = 0 // u32: number of 8-byte blocks
	ParamSubkeys = 4 // 26 u32 words, two little-endian subkeys per word
)

type state uint8

const (
	stWaitStart state = iota
	stParamCountIssue
	stParamCountWait
	stParamKeyIssue
	stParamKeyWait
	stReadLoIssue
	stReadLoWait
	stReadHiIssue
	stReadHiWait
	stCompute
	stWriteLoIssue
	stWriteLoWait
	stWriteHiIssue
	stWriteHiWait
	stDone
)

// Core is the IDEA coprocessor model.
type Core struct {
	port *copro.Port
	mem  *copro.Mem

	st      state
	blocks  uint32
	blk     uint32
	keyIdx  uint32
	keys    [ref.IDEASubkeys]uint16
	wLo     uint32 // first input word of the current block
	wHi     uint32
	yLo     uint32 // first output word
	yHi     uint32
	compute uint32 // remaining compute cycles
	pinv    bool
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
	c.blocks, c.blk, c.keyIdx = 0, 0, 0
	c.compute = 0
	if c.mem != nil {
		c.mem.ResetMem()
	}
}

// be16Pair splits a little-endian memory word into the two big-endian
// 16-bit cipher words it contains.
func be16Pair(w uint32) (uint16, uint16) {
	x1 := uint16(w&0xff)<<8 | uint16(w>>8&0xff)
	x2 := uint16(w>>16&0xff)<<8 | uint16(w>>24&0xff)
	return x1, x2
}

// le32FromBE packs two big-endian 16-bit cipher words back into a
// little-endian memory word.
func le32FromBE(x1, x2 uint16) uint32 {
	return uint32(x1>>8) | uint32(x1&0xff)<<8 | uint32(x2>>8)<<16 | uint32(x2&0xff)<<24
}

// IdleEdges implements sim.BulkIdler: at the top of its loop the core
// advertises a hit run over the blocks whose accesses all hit
// (copro.Mem.RunEdges); otherwise it advertises the edges Eval would
// provably no-op (or purely count down) so the engine can bulk-skip them.
// Four windows qualify: waiting for CP_START before an operation,
// the multi-cycle cipher compute between the block read and the block
// write (the decrement edges are inert; the edge that drains the pipeline
// and latches the ciphertext must be delivered), the states gated on a
// stalled access handshake, and holding CP_FIN after completion until the
// OS acknowledges. Each window ends only through an IMU-domain commit
// (Start or CP_TLBHIT toggling) or the core's own advertised countdown,
// which is exactly the contract sim.BulkIdler requires.
func (c *Core) IdleEdges() int64 {
	if c.st == stReadLoIssue {
		if w := c.mem.RunEdges(c); w > 0 {
			return w
		}
	}
	switch c.st {
	case stParamCountWait, stParamKeyIssue, stParamKeyWait, stReadLoIssue, stReadLoWait,
		stReadHiIssue, stReadHiWait, stWriteLoIssue, stWriteLoWait, stWriteHiIssue, stWriteHiWait:
		if c.port.IMURef().Start && c.mem.Stalled() {
			return sim.IdleForever
		}
	case stWaitStart:
		if !c.port.IMURef().Start && c.mem.Quiet() {
			return sim.IdleForever
		}
	case stCompute:
		if c.compute > 1 && c.port.IMURef().Start && c.mem.Quiet() {
			return int64(c.compute) - 1
		}
	case stDone:
		if c.port.IMURef().Start && c.mem.Quiet() && c.port.CPRef().Fin {
			return sim.IdleForever
		}
	}
	return 0
}

// SkipEdges implements sim.BulkIdler: a hit run executes its blocks,
// skipped compute edges decrement the pipeline-occupancy countdown and
// skipped stall edges count wait cycles, exactly as delivered edges would.
// The other windows carry no per-edge state.
func (c *Core) SkipEdges(k int64) {
	if c.st == stReadLoIssue && c.mem.SkipRun(k, c) {
		return
	}
	c.mem.SkipEdges(k)
	if c.st == stCompute {
		c.compute -= uint32(k)
	}
}

// Unit implements copro.Program: block b reads its two input words, runs
// the cipher pipeline and writes its two output words. The last block
// raises CP_FIN.
func (c *Core) Unit(k int, u *copro.Unit) bool {
	b := c.blk + uint32(k)
	if b+1 >= c.blocks {
		return false
	}
	u.Read(ObjIn, b*8, copro.Size32)
	u.Read(ObjIn, b*8+4, copro.Size32)
	u.Compute(ComputeCycles)
	u.Write(ObjOut, b*8, copro.Size32)
	u.Write(ObjOut, b*8+4, copro.Size32)
	return true
}

// Kernel implements copro.Program: one IDEA block.
func (c *Core) Kernel(u *copro.Unit) {
	c.wLo, c.wHi = u.Steps[0].Val, u.Steps[1].Val
	c.cryptBlock()
	u.Steps[3].Val, u.Steps[4].Val = c.yLo, c.yHi
	c.blk++
}

// cryptBlock enciphers the latched input block into the output registers.
func (c *Core) cryptBlock() {
	x1, x2 := be16Pair(c.wLo)
	x3, x4 := be16Pair(c.wHi)
	y1, y2, y3, y4 := ref.IDEACryptBlock(&c.keys, x1, x2, x3, x4)
	c.yLo = le32FromBE(y1, y2)
	c.yHi = le32FromBE(y3, y4)
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
			c.st = stParamCountIssue
		}
	case stParamCountIssue:
		c.mem.Read(copro.ParamObj, ParamCount, copro.Size32)
		c.st = stParamCountWait
	case stParamCountWait:
		if c.mem.Completed() {
			c.blocks = c.mem.Data()
			c.keyIdx = 0
			c.st = stParamKeyIssue
		}
	case stParamKeyIssue:
		if c.mem.Ready() {
			c.mem.Read(copro.ParamObj, ParamSubkeys+c.keyIdx*4, copro.Size32)
			c.st = stParamKeyWait
		}
	case stParamKeyWait:
		if c.mem.Completed() {
			w := c.mem.Data()
			c.keys[2*c.keyIdx] = uint16(w)
			c.keys[2*c.keyIdx+1] = uint16(w >> 16)
			c.keyIdx++
			if int(c.keyIdx) >= ref.IDEASubkeys/2 {
				pinv = true
				c.blk = 0
				if c.blocks == 0 {
					c.st = stDone
				} else {
					c.st = stReadLoIssue
				}
			} else {
				c.st = stParamKeyIssue
			}
		}
	case stReadLoIssue:
		if c.mem.Ready() {
			c.mem.Read(ObjIn, c.blk*8, copro.Size32)
			c.st = stReadLoWait
		}
	case stReadLoWait:
		if c.mem.Completed() {
			c.wLo = c.mem.Data()
			c.st = stReadHiIssue
		}
	case stReadHiIssue:
		if c.mem.Ready() {
			c.mem.Read(ObjIn, c.blk*8+4, copro.Size32)
			c.st = stReadHiWait
		}
	case stReadHiWait:
		if c.mem.Completed() {
			c.wHi = c.mem.Data()
			c.compute = ComputeCycles
			c.st = stCompute
		}
	case stCompute:
		c.compute--
		if c.compute == 0 {
			c.cryptBlock()
			c.st = stWriteLoIssue
		}
	case stWriteLoIssue:
		if c.mem.Ready() {
			c.mem.Write(ObjOut, c.blk*8, copro.Size32, c.yLo)
			c.st = stWriteLoWait
		}
	case stWriteLoWait:
		if c.mem.Completed() {
			c.st = stWriteHiIssue
		}
	case stWriteHiIssue:
		if c.mem.Ready() {
			c.mem.Write(ObjOut, c.blk*8+4, copro.Size32, c.yHi)
			c.st = stWriteHiWait
		}
	case stWriteHiWait:
		if c.mem.Completed() {
			c.blk++
			if c.blk >= c.blocks {
				c.st = stDone
			} else {
				c.st = stReadLoIssue
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

// PackSubkeys lays out 52 subkeys as the 26 parameter words the core
// expects (two little-endian subkeys per word). The application side uses
// this when filling the parameter page.
func PackSubkeys(keys [ref.IDEASubkeys]uint16) [ref.IDEASubkeys / 2]uint32 {
	var out [ref.IDEASubkeys / 2]uint32
	for i := range out {
		out[i] = uint32(keys[2*i]) | uint32(keys[2*i+1])<<16
	}
	return out
}

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (any, error) {
		return New(), nil
	})
}
