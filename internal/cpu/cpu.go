// Package cpu provides a timed functional model of the Excalibur's ARM
// stripe (an ARM922T-class core at 133 MHz running Linux).
//
// The model is not an ISA interpreter: software kernels are written in Go
// against a Ctx whose operations both perform the computation on the
// simulated SDRAM and charge cycles according to a CostModel, through a
// direct-mapped write-back D-cache. This "host-compiled, timed functional"
// style is standard practice in system-level simulation; the Calibration section of
// docs/ARCHITECTURE.md documents how the cost model is calibrated against the paper's published
// pure-software execution times.
package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// CostModel holds per-operation cycle costs for the core.
type CostModel struct {
	ALU         int64 // arithmetic/logic register op
	Mul         int64 // 32x32 multiply
	Div         int64 // software division/modulo (library call, ARM9 has no divider)
	BranchTaken int64 // taken branch (pipeline refill)
	BranchNot   int64 // not-taken branch
	LoadHit     int64 // load hitting the D-cache
	StoreHit    int64 // store hitting the D-cache
	Call        int64 // function call+return overhead (prologue/epilogue)
	MissPenalty int64 // D-cache line refill from SDRAM
	WBPenalty   int64 // dirty-line write-back to SDRAM
}

// DefaultCostModel returns the calibrated cost model described in
// docs/ARCHITECTURE.md (Calibration). The values are ARM9-class and tuned so the pure-software adpcmdecode
// and IDEA kernels land on the paper's published times (≈146 cycles/sample
// and ≈6.6k cycles/block at 133 MHz).
func DefaultCostModel() CostModel {
	return CostModel{
		ALU:         2, // -O0-style codegen keeps operands on the stack
		Mul:         7,
		Div:         120, // __aeabi_uidivmod library call incl. -O0 argument marshalling
		BranchTaken: 4,
		BranchNot:   2,
		LoadHit:     3,
		StoreHit:    2,
		Call:        12,
		MissPenalty: 40, // 8-word line from SDRAM incl. bus crossing
		WBPenalty:   24,
	}
}

// CacheConfig describes the direct-mapped write-back D-cache.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size
}

// DefaultCacheConfig matches the ARM922T: 8 KB D-cache, 32-byte lines.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{SizeBytes: 8 * 1024, LineBytes: 32}
}

// Core is the timed processor model.
type Core struct {
	FreqHz int64
	Cost   CostModel
	SDRAM  *mem.SDRAM

	cache  *dcache
	cycles int64

	// Statistics.
	Loads, Stores, Ops, Branches uint64
	Misses, Writebacks           uint64
}

// NewCore builds a core clocked at freqHz over the given SDRAM.
func NewCore(freqHz int64, cost CostModel, cc CacheConfig, sdram *mem.SDRAM) (*Core, error) {
	if freqHz <= 0 {
		return nil, fmt.Errorf("cpu: frequency %d must be positive", freqHz)
	}
	if sdram == nil {
		return nil, fmt.Errorf("cpu: nil SDRAM")
	}
	c, err := newDCache(cc)
	if err != nil {
		return nil, err
	}
	return &Core{FreqHz: freqHz, Cost: cost, SDRAM: sdram, cache: c}, nil
}

// Cycles returns the cycles consumed so far.
func (c *Core) Cycles() int64 { return c.cycles }

// AddCycles charges raw cycles (used by the kernel model for syscall entry
// costs and similar fixed overheads).
func (c *Core) AddCycles(n int64) { c.cycles += n }

// ResetStats zeroes counters and the cycle count but keeps cache contents.
func (c *Core) ResetStats() {
	c.cycles = 0
	c.Loads, c.Stores, c.Ops, c.Branches = 0, 0, 0, 0
	c.Misses, c.Writebacks = 0, 0
}

// InvalidateCache drops all cache lines without write-back (used between
// runs for cold-cache measurements).
func (c *Core) InvalidateCache() { c.cache.invalidate() }

// PsPerCycle returns the clock period in picoseconds (reporting only).
func (c *Core) PsPerCycle() float64 { return 1e12 / float64(c.FreqHz) }

// touch charges the cache/SDRAM cost of accessing addr.
func (c *Core) touch(addr uint32, write bool) {
	hit, wb := c.cache.access(addr, write)
	if !hit {
		c.Misses++
		c.cycles += c.Cost.MissPenalty
	}
	if wb {
		c.Writebacks++
		c.cycles += c.Cost.WBPenalty
	}
}

// touchRun charges the cache/SDRAM cost of n accesses at addr, addr+stride,
// addr+2*stride, ..., in that order. Only the first access of each run that
// starts in the same cache line is looked up: the rest of the run hit the
// line that access left valid (and dirty, for a write), so they change no
// cache state and cost nothing beyond their hit charge.
func (c *Core) touchRun(addr uint32, n int, stride uint32, write bool) {
	lb := uint32(c.cache.lineBytes)
	for i := 0; i < n; {
		a := addr + uint32(i)*stride
		c.touch(a, write)
		i += int((lb - a%lb + stride - 1) / stride) // accesses left in a's line
	}
}

// Ctx is the execution context handed to software kernels. It is a thin
// view of the core; kernels use it for every memory access, arithmetic
// operation and branch so that timing is accounted faithfully.
type Ctx struct {
	core *Core
}

// NewCtx returns a context for the core.
func NewCtx(core *Core) *Ctx { return &Ctx{core: core} }

// Core returns the underlying core (for reports).
func (x *Ctx) Core() *Core { return x.core }

// Load8 reads a byte from SDRAM.
func (x *Ctx) Load8(addr uint32) byte {
	x.core.Loads++
	x.core.cycles += x.core.Cost.LoadHit
	x.core.touch(addr, false)
	b, err := x.core.SDRAM.Store().Byte(addr)
	if err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
	return b
}

// Load16 reads a little-endian halfword from SDRAM.
func (x *Ctx) Load16(addr uint32) uint16 {
	lo := uint16(x.Load8Silent(addr))
	hi := uint16(x.Load8Silent(addr + 1))
	x.core.Loads++
	x.core.cycles += x.core.Cost.LoadHit
	x.core.touch(addr, false)
	return lo | hi<<8
}

// Load8Silent reads a byte without charging (helper for multi-byte ops that
// charge once).
func (x *Ctx) Load8Silent(addr uint32) byte {
	b, err := x.core.SDRAM.Store().Byte(addr)
	if err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
	return b
}

// Load32 reads a little-endian word from SDRAM.
func (x *Ctx) Load32(addr uint32) uint32 {
	x.core.Loads++
	x.core.cycles += x.core.Cost.LoadHit
	x.core.touch(addr, false)
	v, err := x.core.SDRAM.Store().Read32(addr)
	if err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
	return v
}

// Store8 writes a byte to SDRAM.
func (x *Ctx) Store8(addr uint32, v byte) {
	x.core.Stores++
	x.core.cycles += x.core.Cost.StoreHit
	x.core.touch(addr, true)
	if err := x.core.SDRAM.Store().SetByte(addr, v); err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
}

// Store16 writes a little-endian halfword to SDRAM.
func (x *Ctx) Store16(addr uint32, v uint16) {
	x.core.Stores++
	x.core.cycles += x.core.Cost.StoreHit
	x.core.touch(addr, true)
	st := x.core.SDRAM.Store()
	if err := st.SetByte(addr, byte(v)); err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
	if err := st.SetByte(addr+1, byte(v>>8)); err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
}

// Store32 writes a little-endian word to SDRAM.
func (x *Ctx) Store32(addr uint32, v uint32) {
	x.core.Stores++
	x.core.cycles += x.core.Cost.StoreHit
	x.core.touch(addr, true)
	if err := x.core.SDRAM.Store().Write32(addr, v, 0xf); err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
}

// The bulk accessors below charge exactly what len separate single-access
// calls at successive addresses would (counters, cycles and cache state),
// with one range check and one cache lookup per cache line touched. An
// out-of-range span panics before charging anything.

// LoadBytes fills dst from SDRAM at addr, as len(dst) Load8 calls at
// addr, addr+1, ... would.
func (x *Ctx) LoadBytes(addr uint32, dst []byte) {
	if err := x.core.SDRAM.Store().ReadInto(addr, dst); err != nil {
		panic(fmt.Sprintf("cpu: %v", err))
	}
	x.core.Loads += uint64(len(dst))
	x.core.cycles += int64(len(dst)) * x.core.Cost.LoadHit
	x.core.touchRun(addr, len(dst), 1, false)
}

// Load16s fills dst with the little-endian halfwords at addr, as len(dst)
// Load16 calls at addr, addr+2, ... would (each looks up the line of its
// first byte only).
func (x *Ctx) Load16s(addr uint32, dst []uint16) {
	st := x.core.SDRAM.Store()
	if !st.InRange(addr, 2*len(dst)) {
		panic(fmt.Sprintf("cpu: %v: halfword block read at %#x+%#x", mem.ErrOutOfRange, addr, 2*len(dst)))
	}
	x.core.Loads += uint64(len(dst))
	x.core.cycles += int64(len(dst)) * x.core.Cost.LoadHit
	x.core.touchRun(addr, len(dst), 2, false)
	var buf [64]byte
	for len(dst) > 0 {
		k := min(len(dst), len(buf)/2)
		_ = st.ReadInto(addr, buf[:2*k]) // in range: checked above
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint16(buf[2*i:])
		}
		addr += uint32(2 * k)
		dst = dst[k:]
	}
}

// StoreBytes writes src to SDRAM at addr, as len(src) Store8 calls at
// addr, addr+1, ... would.
func (x *Ctx) StoreBytes(addr uint32, src []byte) {
	st := x.core.SDRAM.Store()
	if !st.InRange(addr, len(src)) {
		panic(fmt.Sprintf("cpu: %v: block write at %#x+%#x", mem.ErrOutOfRange, addr, len(src)))
	}
	x.core.Stores += uint64(len(src))
	x.core.cycles += int64(len(src)) * x.core.Cost.StoreHit
	x.core.touchRun(addr, len(src), 1, true)
	_ = st.WriteBytes(addr, src) // in range: checked above
}

// Charges sums the ALU, multiply, divide, branch and call charges of a
// stretch of code, for Charge to apply at once.
type Charges struct {
	ALU, Mul, Div   int
	Taken, NotTaken int // conditional branches
	Calls           int
}

// Charge applies c, as the equivalent ALU, Mul, Div, Branch and Call calls
// would.
func (x *Ctx) Charge(c Charges) {
	cm := &x.core.Cost
	x.core.Ops += uint64(c.ALU + c.Mul + c.Div)
	x.core.Branches += uint64(c.Taken + c.NotTaken)
	x.core.cycles += int64(c.ALU)*cm.ALU + int64(c.Mul)*cm.Mul + int64(c.Div)*cm.Div +
		int64(c.Taken)*cm.BranchTaken + int64(c.NotTaken)*cm.BranchNot + int64(c.Calls)*cm.Call
}

// ALU charges n arithmetic/logic operations.
func (x *Ctx) ALU(n int) {
	x.core.Ops += uint64(n)
	x.core.cycles += int64(n) * x.core.Cost.ALU
}

// Mul charges one multiply.
func (x *Ctx) Mul() {
	x.core.Ops++
	x.core.cycles += x.core.Cost.Mul
}

// Div charges one division or modulo (software library call).
func (x *Ctx) Div() {
	x.core.Ops++
	x.core.cycles += x.core.Cost.Div
}

// Branch charges one conditional branch.
func (x *Ctx) Branch(taken bool) {
	x.core.Branches++
	if taken {
		x.core.cycles += x.core.Cost.BranchTaken
	} else {
		x.core.cycles += x.core.Cost.BranchNot
	}
}

// Call charges one function call/return pair.
func (x *Ctx) Call() { x.core.cycles += x.core.Cost.Call }
