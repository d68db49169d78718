package cpu

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
)

// bulkStoreSize spans three 64 KiB store pages plus a ragged tail, so runs
// can cross store pages as well as cache lines.
const bulkStoreSize = 3<<16 + 1000

// twinCores returns two cores over separate SDRAMs, brought to the same
// memory contents and cache state (valid, clean and dirty lines) by one
// random sequence of single accesses.
func twinCores(t *testing.T, rng *rand.Rand) (*Core, *Core) {
	t.Helper()
	cores := [2]*Core{coreOver(t, bulkStoreSize), coreOver(t, bulkStoreSize)}
	seed := rng.Int63()
	for _, c := range cores {
		r := rand.New(rand.NewSource(seed))
		x := NewCtx(c)
		for range 2000 {
			addr := uint32(r.Intn(bulkStoreSize - 1))
			if r.Intn(2) == 0 {
				x.Store8(addr, byte(r.Intn(256)))
			} else {
				x.Load8(addr)
			}
		}
	}
	return cores[0], cores[1]
}

// requireSameState fails unless the two cores agree on every counter, the
// cycle count and the cache state.
func requireSameState(t *testing.T, what string, got, want *Core) {
	t.Helper()
	type counters struct {
		Cycles                       int64
		Loads, Stores, Ops, Branches uint64
		Misses, Writebacks           uint64
	}
	g := counters{got.cycles, got.Loads, got.Stores, got.Ops, got.Branches, got.Misses, got.Writebacks}
	w := counters{want.cycles, want.Loads, want.Stores, want.Ops, want.Branches, want.Misses, want.Writebacks}
	if g != w {
		t.Fatalf("%s: counters differ\n bulk    %+v\n singles %+v", what, g, w)
	}
	if !reflect.DeepEqual(got.cache, want.cache) {
		t.Fatalf("%s: cache state differs", what)
	}
}

// bulkAddr picks an address for an n-byte span: anywhere, or starting just
// before a cache-line or 64 KiB store-page boundary, odd or even.
func bulkAddr(rng *rand.Rand, n int) uint32 {
	switch rng.Intn(3) {
	case 0:
		return uint32(rng.Intn(bulkStoreSize - n))
	case 1:
		return uint32(32*(1+rng.Intn((bulkStoreSize-256)/32)) - 1 - rng.Intn(8))
	default:
		return uint32((1+rng.Intn(2))<<16 - 1 - rng.Intn(40))
	}
}

// TestBulkAccessorsMatchSingles runs each bulk accessor on one core and the
// equivalent single calls on its twin, over runs that start anywhere in a
// line, span several lines and cross store pages, and requires the same
// data, counters, cycles, cache state and memory.
func TestBulkAccessorsMatchSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := twinCores(t, rng)
	xa, xb := NewCtx(a), NewCtx(b)
	for trial := range 600 {
		n := rng.Intn(100)
		addr := bulkAddr(rng, 2*n)
		switch trial % 3 {
		case 0:
			got := make([]byte, n)
			xa.LoadBytes(addr, got)
			want := make([]byte, n)
			for i := range want {
				want[i] = xb.Load8(addr + uint32(i))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("LoadBytes(%#x, %d) = %x, Load8 reads %x", addr, n, got, want)
			}
			requireSameState(t, "LoadBytes", a, b)
		case 1:
			got := make([]uint16, n)
			xa.Load16s(addr, got)
			want := make([]uint16, n)
			for i := range want {
				want[i] = xb.Load16(addr + uint32(2*i))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Load16s(%#x, %d) = %x, Load16 reads %x", addr, n, got, want)
			}
			requireSameState(t, "Load16s", a, b)
		case 2:
			src := make([]byte, n)
			rng.Read(src)
			xa.StoreBytes(addr, src)
			for i, v := range src {
				xb.Store8(addr+uint32(i), v)
			}
			requireSameState(t, "StoreBytes", a, b)
		}
	}
	ma, _ := a.SDRAM.Store().ReadBytes(0, bulkStoreSize)
	mb, _ := b.SDRAM.Store().ReadBytes(0, bulkStoreSize)
	if !bytes.Equal(ma, mb) {
		t.Fatal("memory contents differ")
	}
}

// TestChargeMatchesSingles applies random charge sums at once on one core
// and as single ALU, Mul, Div, Branch and Call calls on its twin.
func TestChargeMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := twinCores(t, rng)
	xa, xb := NewCtx(a), NewCtx(b)
	for range 50 {
		c := Charges{
			ALU: rng.Intn(600), Mul: rng.Intn(40), Div: rng.Intn(40),
			Taken: rng.Intn(40), NotTaken: rng.Intn(70), Calls: rng.Intn(40),
		}
		xa.Charge(c)
		xb.ALU(c.ALU)
		for range c.Mul {
			xb.Mul()
		}
		for range c.Div {
			xb.Div()
		}
		for range c.Taken {
			xb.Branch(true)
		}
		for range c.NotTaken {
			xb.Branch(false)
		}
		for range c.Calls {
			xb.Call()
		}
		requireSameState(t, "Charge", a, b)
	}
}

// TestBulkAccessorsOutOfRange requires each bulk accessor to panic on a
// span that leaves the SDRAM, and to charge nothing first.
func TestBulkAccessorsOutOfRange(t *testing.T) {
	for _, addr := range []uint32{bulkStoreSize - 3, bulkStoreSize, 0xffffffff} {
		for _, op := range []struct {
			name string
			run  func(x *Ctx)
		}{
			{"LoadBytes", func(x *Ctx) { x.LoadBytes(addr, make([]byte, 4)) }},
			{"Load16s", func(x *Ctx) { x.Load16s(addr, make([]uint16, 2)) }},
			{"StoreBytes", func(x *Ctx) { x.StoreBytes(addr, make([]byte, 4)) }},
		} {
			c := coreOver(t, bulkStoreSize)
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				op.run(NewCtx(c))
				return false
			}()
			if !panicked {
				t.Errorf("%s at %#x did not panic", op.name, addr)
			}
			if c.cycles != 0 || c.Loads != 0 || c.Stores != 0 || c.Misses != 0 {
				t.Errorf("%s at %#x charged before panicking", op.name, addr)
			}
		}
	}
}

// coreOver builds a cold core over an SDRAM of the given size.
func coreOver(t *testing.T, size int) *Core {
	t.Helper()
	c, err := NewCore(133_000_000, DefaultCostModel(), DefaultCacheConfig(),
		mem.NewSDRAM(size, mem.DefaultSDRAMTiming()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}
