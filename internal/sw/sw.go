// Package sw contains the pure-software versions of the paper's benchmark
// kernels, written against the timed CPU model: every memory access,
// arithmetic operation and branch both computes the real result on the
// simulated SDRAM and charges cycles, so the "pure SW" bars of Figures 8
// and 9 are produced by actually running the algorithms on the ARM-stripe
// model.
//
// The per-statement accounting mirrors the unoptimised C the paper's port
// used (operands bounce through the stack; the IDEA modular multiplication
// calls the software division library). IDEAApply charges it a block at a
// time through cpu.Ctx's bulk accessors, which account exactly as the
// per-statement calls would because each block keeps its access order.
// ADPCMDecode and VecAdd alternate between tables or arrays that can
// conflict in the direct-mapped cache, so they stay per-access.
//
// SpillALU is the single calibration knob documented in
// docs/ARCHITECTURE.md (Calibration): it models the residual per-iteration
// stack traffic of the -O0 build and is fixed by matching the paper's
// published pure-software times.
package sw

import (
	"repro/internal/cpu"
	"repro/internal/ref"
)

// SpillALU is the calibrated per-sample/per-operation stack-spill factor
// (ALU-cost units) of the unoptimised compile; see docs/ARCHITECTURE.md.
const SpillALU = 43

// Tables holds the SDRAM addresses of the ADPCM codec ROMs; the software
// decoder loads them like the C original loads its const arrays.
type Tables struct {
	Index uint32 // 16 int32 entries
	Step  uint32 // 89 int32 entries
}

// WriteTables materialises the codec tables at addr (190 words) and returns
// their layout. Alloc 512 bytes.
func WriteTables(write func(addr uint32, v uint32), base uint32) Tables {
	idx := ref.ADPCMIndexTable()
	for i, v := range idx {
		write(base+uint32(4*i), uint32(int32(v)))
	}
	stepBase := base + 64
	st := ref.ADPCMStepTable()
	for i, v := range st {
		write(stepBase+uint32(4*i), uint32(int32(v)))
	}
	return Tables{Index: base, Step: stepBase}
}

// VecAdd is the software version of the motivating example: C[i]=A[i]+B[i]
// over n 32-bit elements.
func VecAdd(x *cpu.Ctx, a, b, c uint32, n uint32) {
	x.Call()
	for i := uint32(0); i < n; i++ {
		x.Branch(true)
		av := x.Load32(a + 4*i)
		bv := x.Load32(b + 4*i)
		x.ALU(4) // index arithmetic + add
		x.Store32(c+4*i, av+bv)
	}
	x.Branch(false)
}

// adpcmStep decodes one 4-bit code, charging the cost of the C decoder's
// body: table lookups, conditional difference accumulation, clamping, and
// the stack traffic of the unoptimised build.
func adpcmStep(x *cpu.Ctx, tb Tables, valprev *int32, index *int32, delta uint32) int16 {
	step := int32(x.Load32(tb.Step + uint32(*index)*4))

	*index += int32(x.Load32(tb.Index + (delta&0xf)*4))
	x.ALU(2)
	if *index < 0 {
		x.Branch(true)
		*index = 0
	} else {
		x.Branch(false)
	}
	if *index > 88 {
		x.Branch(true)
		*index = 88
	} else {
		x.Branch(false)
	}

	sign := delta & 8
	mag := int32(delta & 7)
	x.ALU(2)

	vpdiff := step >> 3
	x.ALU(1)
	if mag&4 != 0 {
		x.Branch(true)
		vpdiff += step
		x.ALU(1)
	} else {
		x.Branch(false)
	}
	if mag&2 != 0 {
		x.Branch(true)
		vpdiff += step >> 1
		x.ALU(2)
	} else {
		x.Branch(false)
	}
	if mag&1 != 0 {
		x.Branch(true)
		vpdiff += step >> 2
		x.ALU(2)
	} else {
		x.Branch(false)
	}

	if sign != 0 {
		x.Branch(true)
		*valprev -= vpdiff
	} else {
		x.Branch(false)
		*valprev += vpdiff
	}
	x.ALU(1)
	if *valprev > 32767 {
		x.Branch(true)
		*valprev = 32767
	} else {
		x.Branch(false)
	}
	if *valprev < -32768 {
		x.Branch(true)
		*valprev = -32768
	} else {
		x.Branch(false)
	}
	x.ALU(SpillALU) // stack spill/reload of the unoptimised build
	return int16(*valprev)
}

// ADPCMDecode decodes nbytes of packed codes at in (high nibble first) into
// 16-bit samples at out, exactly as ref.ADPCMDecode does, while charging
// the ARM cost model.
func ADPCMDecode(x *cpu.Ctx, tb Tables, in, out uint32, nbytes uint32) {
	x.Call()
	var valprev, index int32
	sample := uint32(0)
	for i := uint32(0); i < nbytes; i++ {
		x.Branch(true)
		b := uint32(x.Load8(in + i))
		x.ALU(3) // unpack both nibbles
		s := adpcmStep(x, tb, &valprev, &index, b>>4)
		x.Store16(out+sample*2, uint16(s))
		sample++
		s = adpcmStep(x, tb, &valprev, &index, b&0xf)
		x.Store16(out+sample*2, uint16(s))
		sample++
		x.ALU(2) // loop/index bookkeeping
	}
	x.Branch(false)
}

// mulMod is the software modular multiplication, adding its charges to
// ch: the C original computes (a*b) % 0x10001 through the division
// library, which dominates the IDEA software profile on the divider-less
// ARM9. A zero operand takes an early return instead.
func mulMod(ch *cpu.Charges, a, b uint16) uint16 {
	ch.Calls++
	ch.ALU += 2
	if a == 0 {
		ch.Taken++
		ch.ALU++
		return uint16(1 - int32(b))
	}
	ch.NotTaken++
	if b == 0 {
		ch.Taken++
		ch.ALU++
		return uint16(1 - int32(a))
	}
	ch.NotTaken++
	ch.Mul++
	ch.Div++ // % 0x10001 via __aeabi_uidivmod
	ch.ALU += 3
	return ref.IdeaMul(a, b)
}

// IDEAApply processes nblocks 8-byte blocks from in to out using the 52
// subkeys stored little-endian at keys (as 16-bit halfwords), charging the
// ARM cost model. The transformation matches ref.IDEAApply bit for bit.
//
// Each block makes the C code's memory accesses in its order (8 input byte
// loads, 52 subkey loads, 8 output byte stores) through the bulk
// accessors, and its arithmetic and branch charges at once, so every
// counter, the cycle count and the cache state equal a statement-by-
// statement run's. The subkeys are re-read every block, as the C code
// does: the output may overlap them.
func IDEAApply(x *cpu.Ctx, in, out, keys uint32, nblocks uint32) {
	x.Call()
	var b [ref.IDEABlockBytes]byte
	var k [ref.IDEASubkeys]uint16
	for blk := uint32(0); blk < nblocks; blk++ {
		x.LoadBytes(in+blk*8, b[:])
		x.Load16s(keys, k[:])
		// The loop branch, and the big-endian assembly of the four words.
		ch := cpu.Charges{Taken: 1, ALU: 8}
		x1 := uint16(b[0])<<8 | uint16(b[1])
		x2 := uint16(b[2])<<8 | uint16(b[3])
		x3 := uint16(b[4])<<8 | uint16(b[5])
		x4 := uint16(b[6])<<8 | uint16(b[7])
		for r := 0; r < ref.IDEARounds; r++ {
			kr := k[6*r : 6*r+6]
			ch.Taken++
			x1 = mulMod(&ch, x1, kr[0])
			x2 += kr[1]
			x3 += kr[2]
			x4 = mulMod(&ch, x4, kr[3])

			s3 := x3
			x3 = mulMod(&ch, x1^x3, kr[4])
			s2 := x2
			x2 = mulMod(&ch, (x2^x4)+x3, kr[5])
			x3 += x2

			x1 ^= x2
			x4 ^= x3
			x2 ^= s3
			x3 ^= s2
			// Six subkey steps at 1, four additions at 2, six XORs at 1,
			// and the per-round stack traffic.
			ch.ALU += 6 + 4*2 + 6 + SpillALU
		}
		kf := k[6*ref.IDEARounds:]
		y1 := mulMod(&ch, x1, kf[0])
		y2 := x3 + kf[1]
		y3 := x2 + kf[2]
		y4 := mulMod(&ch, x4, kf[3])
		ch.ALU += 4 + 2*2 + 6 // four subkey steps, two additions, loop/index bookkeeping

		b = [ref.IDEABlockBytes]byte{
			byte(y1 >> 8), byte(y1), byte(y2 >> 8), byte(y2),
			byte(y3 >> 8), byte(y3), byte(y4 >> 8), byte(y4),
		}
		x.StoreBytes(out+blk*8, b[:])
		x.Charge(ch)
	}
	x.Branch(false)
}

// WriteSubkeys stores 52 subkeys as little-endian halfwords at base
// (104 bytes) for IDEAApply.
func WriteSubkeys(write func(addr uint32, v uint32), base uint32, keys [ref.IDEASubkeys]uint16) {
	for i := 0; i < len(keys); i += 2 {
		w := uint32(keys[i]) | uint32(keys[i+1])<<16
		write(base+uint32(i*2), w)
	}
}
