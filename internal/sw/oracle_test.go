package sw

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/ref"
)

// ideaMul is the software modular multiplication: the C original computes
// (a*b) % 0x10001 through the division library, which dominates the IDEA
// software profile on the divider-less ARM9.
func ideaMul(x *cpu.Ctx, a, b uint16) uint16 {
	x.Call()
	x.ALU(2)
	if a == 0 {
		x.Branch(true)
		x.ALU(1)
		return uint16(1 - int32(b))
	}
	x.Branch(false)
	if b == 0 {
		x.Branch(true)
		x.ALU(1)
		return uint16(1 - int32(a))
	}
	x.Branch(false)
	x.Mul()
	x.Div() // % 0x10001 via __aeabi_uidivmod
	x.ALU(3)
	return ref.IdeaMul(a, b)
}

// ideaAdd charges a 16-bit modular addition.
func ideaAdd(x *cpu.Ctx, a, b uint16) uint16 {
	x.ALU(2)
	return a + b
}

// ideaXor charges a XOR.
func ideaXor(x *cpu.Ctx, a, b uint16) uint16 {
	x.ALU(1)
	return a ^ b
}

// ideaApplyPerAccess is IDEAApply written statement by statement, one
// Ctx call per memory access, operation and branch, as the C original
// executes them. It is the oracle the block-at-a-time IDEAApply must
// match in every counter, the cycle count, the cache state and memory.
func ideaApplyPerAccess(x *cpu.Ctx, in, out, keys uint32, nblocks uint32) {
	x.Call()
	for blk := uint32(0); blk < nblocks; blk++ {
		x.Branch(true)
		base := in + blk*8
		// Big-endian 16-bit loads, as the C code assembles them.
		x1 := uint16(x.Load8(base))<<8 | uint16(x.Load8(base+1))
		x2 := uint16(x.Load8(base+2))<<8 | uint16(x.Load8(base+3))
		x3 := uint16(x.Load8(base+4))<<8 | uint16(x.Load8(base+5))
		x4 := uint16(x.Load8(base+6))<<8 | uint16(x.Load8(base+7))
		x.ALU(8)

		ki := uint32(0)
		next := func() uint16 {
			v := x.Load16(keys + ki*2)
			ki++
			x.ALU(1)
			return v
		}
		for r := 0; r < ref.IDEARounds; r++ {
			x.Branch(true)
			x1 = ideaMul(x, x1, next())
			x2 = ideaAdd(x, x2, next())
			x3 = ideaAdd(x, x3, next())
			x4 = ideaMul(x, x4, next())

			s3 := x3
			x3 = ideaMul(x, ideaXor(x, x1, x3), next())
			s2 := x2
			x2 = ideaMul(x, ideaAdd(x, ideaXor(x, x2, x4), x3), next())
			x3 = ideaAdd(x, x3, x2)

			x1 = ideaXor(x, x1, x2)
			x4 = ideaXor(x, x4, x3)
			x2 = ideaXor(x, x2, s3)
			x3 = ideaXor(x, x3, s2)
			x.ALU(SpillALU) // per-round stack traffic
		}
		y1 := ideaMul(x, x1, next())
		y2 := ideaAdd(x, x3, next())
		y3 := ideaAdd(x, x2, next())
		y4 := ideaMul(x, x4, next())

		ob := out + blk*8
		x.Store8(ob, byte(y1>>8))
		x.Store8(ob+1, byte(y1))
		x.Store8(ob+2, byte(y2>>8))
		x.Store8(ob+3, byte(y2))
		x.Store8(ob+4, byte(y3>>8))
		x.Store8(ob+5, byte(y3))
		x.Store8(ob+6, byte(y4>>8))
		x.Store8(ob+7, byte(y4))
		x.ALU(6) // loop/index bookkeeping
	}
	x.Branch(false)
}

// diffStoreSize spans four 64 KiB store pages.
const diffStoreSize = 1 << 18

// twinCore builds a cold core over an SDRAM holding data.
func twinCore(t *testing.T, data []byte) *cpu.Ctx {
	t.Helper()
	sd := mem.NewSDRAM(len(data), mem.DefaultSDRAMTiming())
	if err := sd.Store().WriteBytes(0, data); err != nil {
		t.Fatal(err)
	}
	core, err := cpu.NewCore(133_000_000, cpu.DefaultCostModel(), cpu.DefaultCacheConfig(), sd)
	if err != nil {
		t.Fatal(err)
	}
	return cpu.NewCtx(core)
}

// ideaLayout places one IDEAApply call in the SDRAM.
type ideaLayout struct {
	kind               string
	in, out, keys, nbl uint32
}

// randomLayout draws a layout of the given kind with nbl blocks: any
// addresses (odd ones included), out equal to in, out on in's cache lines
// one or more cache sizes away, out overlapping the subkeys, or out a few
// bytes past in.
func randomLayout(rng *rand.Rand, kind int, nbl uint32) ideaLayout {
	span := int(8 * nbl)
	anywhere := func() uint32 { return uint32(rng.Intn(diffStoreSize - 4*8192 - span)) }
	l := ideaLayout{in: anywhere(), keys: uint32(rng.Intn(diffStoreSize - 104)), nbl: nbl}
	switch kind {
	case 0:
		l.kind, l.out = "disjoint", anywhere()
	case 1:
		l.kind, l.out = "in-place", l.in
	case 2:
		l.kind, l.out = "cache-alias", l.in+uint32(8192*(1+rng.Intn(3)))
	case 3:
		// [out, out+span) meets [keys, keys+104).
		l.kind = "over-subkeys"
		l.keys = uint32(span + rng.Intn(diffStoreSize-2*span-104))
		l.out = l.keys - uint32(rng.Intn(span+1)) + uint32(rng.Intn(104))
	default:
		l.kind, l.out = "shifted", l.in+uint32(1+rng.Intn(15))
	}
	return l
}

// TestIDEABatchedMatchesPerAccess runs the block-at-a-time IDEAApply and
// the per-access oracle on twin cores over a sequence of random layouts,
// without resetting between them, and requires every counter, the cycle
// count and the whole SDRAM to agree after each call. Some layouts zero
// subkeys and whole input blocks, so both of the modular multiplication's
// zero-operand branches are taken.
func TestIDEABatchedMatchesPerAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	data := make([]byte, diffStoreSize)
	rng.Read(data)
	batched, perAccess := twinCore(t, data), twinCore(t, data)
	got, want := make([]byte, diffStoreSize), make([]byte, diffStoreSize)
	for trial := range 250 {
		nbl := []uint32{0, 1, uint32(2 + rng.Intn(40)), uint32(100 + rng.Intn(200))}[trial%4]
		l := randomLayout(rng, trial%5, nbl)
		if rng.Intn(2) == 0 {
			// Zero operands: a few subkeys, and an input block.
			for range 1 + rng.Intn(4) {
				poke(t, []*cpu.Ctx{batched, perAccess}, l.keys+uint32(2*rng.Intn(ref.IDEASubkeys)), make([]byte, 2))
			}
			if nbl > 0 {
				poke(t, []*cpu.Ctx{batched, perAccess}, l.in+8*uint32(rng.Intn(int(nbl))), make([]byte, 8))
			}
		}
		name := fmt.Sprintf("trial %d: %s in=%#x out=%#x keys=%#x nblocks=%d", trial, l.kind, l.in, l.out, l.keys, l.nbl)
		IDEAApply(batched, l.in, l.out, l.keys, l.nbl)
		ideaApplyPerAccess(perAccess, l.in, l.out, l.keys, l.nbl)
		if g, w := coreCounters(batched.Core()), coreCounters(perAccess.Core()); g != w {
			t.Fatalf("%s: counters differ\n batched    %+v\n per-access %+v", name, g, w)
		}
		_ = batched.Core().SDRAM.Store().ReadInto(0, got)
		_ = perAccess.Core().SDRAM.Store().ReadInto(0, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: SDRAM contents differ", name)
		}
	}
}

// poke writes p at addr in every context's SDRAM, untimed.
func poke(t *testing.T, xs []*cpu.Ctx, addr uint32, p []byte) {
	t.Helper()
	for _, x := range xs {
		if err := x.Core().SDRAM.Store().WriteBytes(addr, p); err != nil {
			t.Fatal(err)
		}
	}
}

// cpuCounters is everything a core counts.
type cpuCounters struct {
	Cycles                       int64
	Loads, Stores, Ops, Branches uint64
	Misses, Writebacks           uint64
}

func coreCounters(c *cpu.Core) cpuCounters {
	return cpuCounters{c.Cycles(), c.Loads, c.Stores, c.Ops, c.Branches, c.Misses, c.Writebacks}
}
