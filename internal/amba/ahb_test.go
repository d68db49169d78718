package amba

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func testBus(t testing.TB) (*Bus, *mem.DPRAM, *mem.SDRAM) {
	t.Helper()
	b := NewBus()
	dp, err := mem.NewDPRAM(16*1024, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	sd := mem.NewSDRAM(1<<20, mem.DefaultSDRAMTiming())
	if err := b.Map(0x0800_0000, uint32(dp.Size()), &DPRAMSlave{RAM: dp}); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x0000_0000, uint32(sd.Size()), &SDRAMSlave{RAM: sd}); err != nil {
		t.Fatal(err)
	}
	return b, dp, sd
}

func TestDecodeAndRoundTrip(t *testing.T) {
	b, dp, _ := testBus(t)
	if err := b.Write32(0x0800_0010, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read32(0x0800_0010)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xcafebabe {
		t.Fatalf("read %#x, want 0xcafebabe", v)
	}
	// The write went to the DP RAM's port B.
	if dp.WritesB != 1 {
		t.Fatalf("dpram WritesB = %d, want 1", dp.WritesB)
	}
}

func TestDecodeError(t *testing.T) {
	b, _, _ := testBus(t)
	if _, err := b.Read32(0xf000_0000); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v, want ErrDecode", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	b, _, _ := testBus(t)
	dp2, _ := mem.NewDPRAM(4096, 1024)
	err := b.Map(0x0800_0800, 4096, &DPRAMSlave{RAM: dp2})
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("err = %v, want ErrOverlap", err)
	}
}

func TestSingleTransferCost(t *testing.T) {
	b, _, _ := testBus(t)
	start := b.Cycles
	// DPRAM single read: 1 addr + 1 data + 0 waits = 2.
	if _, err := b.Read32(0x0800_0000); err != nil {
		t.Fatal(err)
	}
	if got := b.Cycles - start; got != 2 {
		t.Fatalf("dpram single read cost = %d, want 2", got)
	}
	start = b.Cycles
	// SDRAM single read: 1 addr + 1 data + (FirstWord-1)=5 waits = 7.
	if _, err := b.Read32(0x0000_0100); err != nil {
		t.Fatal(err)
	}
	if got := b.Cycles - start; got != 7 {
		t.Fatalf("sdram single read cost = %d, want 7", got)
	}
}

func TestBurstIsCheaperThanSingles(t *testing.T) {
	b, _, _ := testBus(t)
	dst := make([]uint32, 8)
	start := b.Cycles
	if err := b.ReadBurst(0x0000_0000, dst); err != nil {
		t.Fatal(err)
	}
	burst := b.Cycles - start
	start = b.Cycles
	for i := 0; i < 8; i++ {
		if _, err := b.Read32(uint32(i * 4)); err != nil {
			t.Fatal(err)
		}
	}
	singles := b.Cycles - start
	if burst >= singles {
		t.Fatalf("burst cost %d not cheaper than singles %d", burst, singles)
	}
	// Burst of 8 from SDRAM: first beat 1+1+5, then 7 seq beats at 1+0
	// waits (NextWord=1 -> 0 waits) = 7+7 = 14.
	if burst != 14 {
		t.Fatalf("burst cost = %d, want 14", burst)
	}
}

func TestCopyMovesDataAndCharges(t *testing.T) {
	b, dp, sd := testBus(t)
	src := make([]byte, 2048)
	for i := range src {
		src[i] = byte(i ^ (i >> 3))
	}
	if err := sd.Store().WriteBytes(0x4000, src); err != nil {
		t.Fatal(err)
	}
	cycles, err := b.Copy(0x0800_0000, 0x4000, 2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Fatal("copy consumed no cycles")
	}
	got, err := dp.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], src[i])
		}
	}
}

func TestCopyAlignment(t *testing.T) {
	b, _, _ := testBus(t)
	if _, err := b.Copy(0x0800_0001, 0, 8, 8); err == nil {
		t.Fatal("accepted unaligned dst")
	}
	if _, err := b.Copy(0x0800_0000, 0, 6, 8); err == nil {
		t.Fatal("accepted non-word length")
	}
}

// Property: copy cycle cost is linear-ish and monotone in size, and data
// always arrives intact.
func TestQuickCopyMonotone(t *testing.T) {
	f := func(a, c uint8) bool {
		nA := (int(a%16) + 1) * 64
		nC := (int(c%16) + 1) * 64
		if nA > nC {
			nA, nC = nC, nA
		}
		b1, _, sd1 := testBusQuick()
		for i := 0; i < nC; i++ {
			_ = sd1.Store().SetByte(uint32(i), byte(i))
		}
		cyA, err1 := b1.Copy(0x0800_0000, 0, nA, 8)
		b2, _, _ := testBusQuick()
		cyC, err2 := b2.Copy(0x0800_0000, 0, nC, 8)
		return err1 == nil && err2 == nil && cyA <= cyC
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testBusQuick() (*Bus, *mem.DPRAM, *mem.SDRAM) {
	b := NewBus()
	dp, _ := mem.NewDPRAM(16*1024, 2*1024)
	sd := mem.NewSDRAM(1<<20, mem.DefaultSDRAMTiming())
	_ = b.Map(0x0800_0000, uint32(dp.Size()), &DPRAMSlave{RAM: dp})
	_ = b.Map(0x0000_0000, uint32(sd.Size()), &SDRAMSlave{RAM: sd})
	return b, dp, sd
}

func TestRegSlave(t *testing.T) {
	b := NewBus()
	var reg uint32
	rs := &RegSlave{
		Label:   "imu-regs",
		ReadFn:  func(off uint32) (uint32, error) { return reg + off, nil },
		WriteFn: func(off uint32, v uint32) error { reg = v; return nil },
	}
	if err := b.Map(0x1000_0000, 0x100, rs); err != nil {
		t.Fatal(err)
	}
	if err := b.Write32(0x1000_0000, 42); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read32(0x1000_0004)
	if err != nil {
		t.Fatal(err)
	}
	if v != 46 {
		t.Fatalf("reg read = %d, want 46", v)
	}
}

func TestBurstIntoUnmappedRegionFails(t *testing.T) {
	b := NewBus()
	sd := mem.NewSDRAM(1024, mem.DefaultSDRAMTiming())
	if err := b.Map(0, 1024, &SDRAMSlave{RAM: sd}); err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, 8)
	// The burst starts in range and runs off the end of the device.
	if err := b.ReadBurst(1024-16, dst); err == nil {
		t.Fatal("burst past the region end succeeded")
	}
}

func TestMapRejectsNilAndEmpty(t *testing.T) {
	b := NewBus()
	if err := b.Map(0, 0x100, nil); err == nil {
		t.Fatal("nil slave accepted")
	}
	sd := mem.NewSDRAM(1024, mem.DefaultSDRAMTiming())
	if err := b.Map(0, 0, &SDRAMSlave{RAM: sd}); err == nil {
		t.Fatal("empty region accepted")
	}
}

func TestAdjacentRegionsDecodeExactly(t *testing.T) {
	b := NewBus()
	lo := mem.NewSDRAM(256, mem.DefaultSDRAMTiming())
	hi := mem.NewSDRAM(256, mem.DefaultSDRAMTiming())
	if err := b.Map(0x000, 256, &SDRAMSlave{RAM: lo}); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x100, 256, &SDRAMSlave{RAM: hi}); err != nil {
		t.Fatal(err)
	}
	if err := b.Write32(0x0fc, 0x10101010); err != nil { // last word of lo
		t.Fatal(err)
	}
	if err := b.Write32(0x100, 0x20202020); err != nil { // first word of hi
		t.Fatal(err)
	}
	v, _ := lo.Store().Read32(0xfc)
	if v != 0x10101010 {
		t.Fatal("low region missed its last word")
	}
	v, _ = hi.Store().Read32(0)
	if v != 0x20202020 {
		t.Fatal("high region missed its first word")
	}
}
