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
// (8 rounds + output transform + pipeline fill). The core is a
// copro.Program run by copro.Seq: one unit per block, which reads the
// block's two words, computes for ComputeCycles and writes two words.
package ideacp

import (
	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/ref"
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

// Core is the IDEA Program.
type Core struct {
	blocks uint32
	keys   [ref.IDEASubkeys]uint16
}

// New returns a reset core on its sequencer.
func New() *copro.Seq { return copro.NewSeq(&Core{}) }

// Name implements copro.Program.
func (c *Core) Name() string { return CoreName }

// Param implements copro.Program: word 0 is the number of 8-byte blocks,
// words 1..26 the subkeys, two little-endian subkeys per word
// (PackSubkeys).
func (c *Core) Param(i int, w uint32) bool {
	if i == 0 {
		c.blocks = w
		return true
	}
	c.keys[2*i-2] = uint16(w)
	c.keys[2*i-1] = uint16(w >> 16)
	return i < ref.IDEASubkeys/2
}

// Units implements copro.Program: one unit per block.
func (c *Core) Units() int { return int(c.blocks) }

// Unit implements copro.Program: block i reads its two input words, runs
// the cipher pipeline and writes its two output words. Every later block
// repeats it 8 bytes on.
func (c *Core) Unit(i int, u *copro.Unit) int {
	a := uint32(i) * 8
	u.Read(ObjIn, a, copro.Size32, 8)
	u.Read(ObjIn, a+4, copro.Size32, 8)
	u.Compute(ComputeCycles)
	u.Write(ObjOut, a, copro.Size32, 8)
	u.Write(ObjOut, a+4, copro.Size32, 8)
	return c.Units() - i
}

// Kernel implements copro.Program: one IDEA block.
func (c *Core) Kernel(i int, u *copro.Unit) {
	x1, x2 := be16Pair(u.Steps[0].Val)
	x3, x4 := be16Pair(u.Steps[1].Val)
	y1, y2, y3, y4 := ref.IDEACryptBlock(&c.keys, x1, x2, x3, x4)
	u.Steps[3].Val = le32FromBE(y1, y2)
	u.Steps[4].Val = le32FromBE(y3, y4)
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
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (*copro.Seq, error) {
		return New(), nil
	})
}
