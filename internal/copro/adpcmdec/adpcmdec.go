// Package adpcmdec implements the adpcmdecode coprocessor of the paper's
// Figure 8: an IMA/DVI ADPCM decoder that reads packed 4-bit codes from
// object 0 and writes 16-bit PCM samples to object 1 — producing four times
// its input volume, which is what drives the dual-port RAM under pressure
// as the input grows.
//
// The decode data path mirrors the reference codec exactly (same ROMs, same
// clamping). The core is a copro.Program run by copro.Seq: one unit per
// input byte, which reads the byte, then decodes and writes its high and
// its low nibble, each decode costing DecodeCycles of compute — the simple,
// non-pipelined core the paper runs at 40 MHz.
package adpcmdec

import (
	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/ref"
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

// Core is the ADPCM decoder Program.
type Core struct {
	nbytes uint32 // input bytes to decode
	dec    ref.ADPCMState
}

// New returns a reset core on its sequencer.
func New() *copro.Seq { return copro.NewSeq(&Core{}) }

// Name implements copro.Program.
func (c *Core) Name() string { return CoreName }

// ParamResume, set in the count word, announces a second parameter word
// (StateWord) holding the codec state to start from; without it an
// operation starts from the codec's initial state. A run split into
// several FPGA_EXECUTEs carries the state across them this way.
const ParamResume = 1 << 31

// StateWord packs a codec state as the resume parameter word: the
// predictor in the low 16 bits, the step-size index in the next 8.
func StateWord(st ref.ADPCMState) uint32 {
	return uint32(uint16(st.Valprev)) | uint32(uint8(st.Index))<<16
}

// Param implements copro.Program: word 0 is the input byte count, with
// ParamResume set if word 1 is a StateWord. An index beyond the step table
// saturates at its last entry.
func (c *Core) Param(i int, w uint32) bool {
	if i == 0 {
		c.nbytes = w &^ ParamResume
		c.dec = ref.ADPCMState{}
		return w&ParamResume != 0
	}
	c.dec = ref.ADPCMState{Valprev: int16(w), Index: int8(min(w>>16&0xff, uint32(ref.ADPCMMaxIndex)))}
	return false
}

// Units implements copro.Program: one unit per input byte.
func (c *Core) Units() int { return int(c.nbytes) }

// Unit implements copro.Program: input byte i is read, and its high and
// then its low nibble are decoded serially and written as samples 2i and
// 2i+1. Every later byte repeats it, one input byte and two samples on.
func (c *Core) Unit(i int, u *copro.Unit) int {
	s := uint32(i) * 4
	u.Read(ObjIn, uint32(i), copro.Size8, 1)
	u.Compute(DecodeCycles)
	u.Write(ObjOut, s, copro.Size16, 4)
	u.Compute(DecodeCycles)
	u.Write(ObjOut, s+2, copro.Size16, 4)
	return c.Units() - i
}

// Kernel implements copro.Program: both nibbles of one input byte.
func (c *Core) Kernel(i int, u *copro.Unit) {
	b := byte(u.Steps[0].Val)
	u.Steps[2].Val = uint32(uint16(ref.ADPCMDecodeNibble(&c.dec, b>>4)))
	u.Steps[4].Val = uint32(uint16(ref.ADPCMDecodeNibble(&c.dec, b&0xf)))
}

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (*copro.Seq, error) {
		return New(), nil
	})
}
