package kernel

import (
	"testing"

	"repro/internal/amba"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/stats"
)

func testKernel(t *testing.T) *Kernel {
	t.Helper()
	sd := mem.NewSDRAM(1<<20, mem.DefaultSDRAMTiming())
	core, err := cpu.NewCore(133_000_000, cpu.DefaultCostModel(), cpu.DefaultCacheConfig(), sd)
	if err != nil {
		t.Fatal(err)
	}
	bus := amba.NewBus()
	if err := bus.Map(0, uint32(sd.Size()), &amba.SDRAMSlave{RAM: sd}); err != nil {
		t.Fatal(err)
	}
	k, err := New(core, bus, DefaultCosts(), 2, 0x1000, uint32(sd.Size()))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewValidation(t *testing.T) {
	sd := mem.NewSDRAM(1<<16, mem.DefaultSDRAMTiming())
	core, _ := cpu.NewCore(1000, cpu.DefaultCostModel(), cpu.DefaultCacheConfig(), sd)
	bus := amba.NewBus()
	if _, err := New(nil, bus, DefaultCosts(), 1, 0, 100); err == nil {
		t.Fatal("nil CPU accepted")
	}
	if _, err := New(core, nil, DefaultCosts(), 1, 0, 100); err == nil {
		t.Fatal("nil bus accepted")
	}
	if _, err := New(core, bus, DefaultCosts(), 0, 0, 100); err == nil {
		t.Fatal("zero bus divisor accepted")
	}
	if _, err := New(core, bus, DefaultCosts(), 1, 100, 100); err == nil {
		t.Fatal("empty user region accepted")
	}
}

func TestAllocBumpsAndAligns(t *testing.T) {
	k := testKernel(t)
	a, err := k.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("allocations not 8-byte aligned: %#x %#x", a, b)
	}
	if b-a < 8 {
		t.Fatalf("allocation overlap: %#x then %#x", a, b)
	}
	if _, err := k.Alloc(0); err == nil {
		t.Fatal("zero-byte alloc accepted")
	}
	if _, err := k.Alloc(1 << 30); err == nil {
		t.Fatal("oversized alloc accepted")
	}
}

func TestChargesLandInComponents(t *testing.T) {
	k := testKernel(t)
	k.ChargeSyscall()
	if k.TL.Ps(stats.SWOS) <= 0 {
		t.Fatal("syscall charge missing")
	}
	before := k.TL.Ps(stats.SWIMU)
	k.ChargeIRQ(stats.SWIMU)
	if k.TL.Ps(stats.SWIMU) <= before {
		t.Fatal("IRQ charge missing")
	}
	if k.CPU.Cycles() == 0 {
		t.Fatal("CPU cycles not advanced")
	}
}

func TestBusOpsChargeTimeAndWork(t *testing.T) {
	k := testKernel(t)
	if err := k.BusWrite32(stats.SWIMU, 0x2000, 0xfeed); err != nil {
		t.Fatal(err)
	}
	v, err := k.BusRead32(stats.SWIMU, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xfeed {
		t.Fatalf("read back %#x", v)
	}
	if k.TL.Ps(stats.SWIMU) <= 0 {
		t.Fatal("bus ops did not charge SWIMU")
	}
	// Bus cycles multiply by the divisor into CPU cycles.
	cy := k.CPU.Cycles()
	if cy < k.Bus.Cycles*k.BusDiv {
		t.Fatalf("CPU cycles %d < bus %d x div %d", cy, k.Bus.Cycles, k.BusDiv)
	}
}

func TestBusCopyMovesBytes(t *testing.T) {
	k := testKernel(t)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := k.WriteUser(0x3000, data); err != nil {
		t.Fatal(err)
	}
	if err := k.BusCopy(stats.SWDP, 0x4000, 0x3000, len(data)); err != nil {
		t.Fatal(err)
	}
	got, err := k.ReadUser(0x4000, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
	if k.TL.Ps(stats.SWDP) <= 0 {
		t.Fatal("copy did not charge SWDP")
	}
	// Zero-length copies are free.
	before := k.TL.Ps(stats.SWDP)
	if err := k.BusCopy(stats.SWDP, 0x4000, 0x3000, 0); err != nil {
		t.Fatal(err)
	}
	if k.TL.Ps(stats.SWDP) != before {
		t.Fatal("zero-length copy charged time")
	}
}

func TestProcessIdentity(t *testing.T) {
	k := testKernel(t)
	p1 := k.NewProcess("a")
	p2 := k.NewProcess("b")
	if p1.PID == p2.PID {
		t.Fatal("duplicate PIDs")
	}
	if p1.Kernel() != k {
		t.Fatal("process lost its kernel")
	}
	if _, err := p1.Alloc(64); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchUser(t *testing.T) {
	k := testKernel(t)
	data := []byte{9, 8, 7, 6}
	if err := k.WriteUser(0x3000, data); err != nil {
		t.Fatal(err)
	}
	if i, err := k.MismatchUser(0x3000, data); err != nil || i != -1 {
		t.Fatalf("matching user memory: MismatchUser = %d, %v; want -1, nil", i, err)
	}
	if i, err := k.MismatchUser(0x3000, []byte{9, 8, 0, 6}); err != nil || i != 2 {
		t.Fatalf("MismatchUser = %d, %v; want 2, nil", i, err)
	}
}
