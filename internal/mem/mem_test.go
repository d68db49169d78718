package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestByteStoreWordRoundTrip(t *testing.T) {
	s := NewByteStore(64)
	if err := s.Write32(8, 0xdeadbeef, 0xf); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read32(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("read %#x, want 0xdeadbeef", v)
	}
	// Little-endian layout.
	b, _ := s.Byte(8)
	if b != 0xef {
		t.Fatalf("byte 0 = %#x, want 0xef (little endian)", b)
	}
}

func TestByteStoreByteEnables(t *testing.T) {
	s := NewByteStore(8)
	if err := s.Write32(0, 0xffffffff, 0xf); err != nil {
		t.Fatal(err)
	}
	// Write only lanes 1 and 2.
	if err := s.Write32(0, 0x00aabb00, 0x6); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Read32(0)
	if v != 0xffaabbff {
		t.Fatalf("read %#x, want 0xffaabbff", v)
	}
}

func TestByteStoreOutOfRange(t *testing.T) {
	s := NewByteStore(4)
	if _, err := s.Read32(1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read32(1) err = %v, want ErrOutOfRange", err)
	}
	if err := s.SetByte(4, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteByte(4) err = %v, want ErrOutOfRange", err)
	}
	if _, err := s.ReadBytes(0, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadBytes err = %v, want ErrOutOfRange", err)
	}
}

func TestQuickByteStoreBlockRoundTrip(t *testing.T) {
	s := NewByteStore(4096)
	f := func(off uint16, data []byte) bool {
		addr := uint32(off) % 2048
		if len(data) > 2048 {
			data = data[:2048]
		}
		if err := s.WriteBytes(addr, data); err != nil {
			return false
		}
		got, err := s.ReadBytes(addr, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDPRAMGeometry(t *testing.T) {
	d, err := NewDPRAM(16*1024, 2*1024)
	if err != nil {
		t.Fatal(err)
	}
	if d.Pages() != 8 {
		t.Fatalf("pages = %d, want 8", d.Pages())
	}
	if d.PageBase(3) != 6*1024 {
		t.Fatalf("PageBase(3) = %#x, want %#x", d.PageBase(3), 6*1024)
	}
	if _, err := NewDPRAM(1000, 256); err == nil {
		t.Fatal("accepted non-multiple size")
	}
}

func TestDPRAMPortsShareStorage(t *testing.T) {
	d, _ := NewDPRAM(4096, 1024)
	if err := d.WriteA(100, 0x12345678, 0xf); err != nil {
		t.Fatal(err)
	}
	v, err := d.ReadB(100)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x12345678 {
		t.Fatalf("port B read %#x, want 0x12345678", v)
	}
	if d.WritesA != 1 || d.ReadsB != 1 {
		t.Fatalf("counters A=%d B=%d, want 1,1", d.WritesA, d.ReadsB)
	}
}

func TestDPRAMPageIO(t *testing.T) {
	d, _ := NewDPRAM(4096, 1024)
	page := make([]byte, 1024)
	for i := range page {
		page[i] = byte(i * 7)
	}
	if err := d.WritePage(2, page); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadPage(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page round trip mismatch")
	}
	if err := d.WritePage(4, page); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WritePage(4) err = %v, want ErrOutOfRange", err)
	}
}

func TestSDRAMBurstCost(t *testing.T) {
	tm := SDRAMTiming{FirstWord: 6, NextWord: 1, BurstLen: 8}
	cases := []struct {
		words int
		want  int64
	}{
		{0, 0},
		{1, 6},
		{8, 13},      // 6 + 7
		{16, 26},     // two full bursts
		{9, 13 + 6},  // full burst + single
		{12, 13 + 9}, // full burst + 4-beat remainder
	}
	for _, c := range cases {
		if got := tm.CostWords(c.words); got != c.want {
			t.Errorf("CostWords(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestQuickSDRAMCostMonotonic(t *testing.T) {
	tm := DefaultSDRAMTiming()
	f := func(a, b uint8) bool {
		x, y := int(a%200), int(b%200)
		if x > y {
			x, y = y, x
		}
		return tm.CostWords(x) <= tm.CostWords(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlashProgramAndRead(t *testing.T) {
	f := NewFlash(1 << 16)
	img := []byte{1, 2, 3, 4, 5, 6, 7}
	if err := f.Program(0x100, img); err != nil {
		t.Fatal(err)
	}
	got, cost, err := f.ReadImage(0x100, len(img))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("flash image mismatch")
	}
	if cost != 2*f.ReadCost { // 7 bytes = 2 words
		t.Fatalf("cost = %d, want %d", cost, 2*f.ReadCost)
	}
}

// dirty writes a non-zero pattern across every backing page of s.
func dirty(t *testing.T, s *ByteStore) {
	t.Helper()
	for a := 0; a+4 <= s.Size(); a += 4096 {
		if err := s.Write32(uint32(a), 0xa5a5a5a5, 0xf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReleasedPageReadsZeroInAnotherStore(t *testing.T) {
	a := NewByteStore(4 * pageBytes)
	dirty(t, a)
	released := map[*byte]bool{}
	for _, p := range a.pages {
		released[&p[0]] = true
	}
	a.Release()
	b := NewByteStore(4 * pageBytes)
	b.Recycle()
	for p := 0; p < 4; p++ {
		if err := b.SetByte(uint32(p*pageBytes)+1, 0); err != nil {
			t.Fatal(err)
		}
		if !released[&b.pages[p][0]] {
			t.Fatalf("page %d of the second store is fresh, want one the first store released", p)
		}
	}
	got, err := b.ReadBytes(0, b.Size())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("a store built from recycled pages reads non-zero bytes")
	}
}

func TestNonRecyclingStoreAllocatesFresh(t *testing.T) {
	a := NewByteStore(pageBytes)
	dirty(t, a)
	p := &a.pages[0][0]
	a.Release()
	b := NewByteStore(pageBytes)
	if &b.pages[0][0] == p {
		t.Fatal("a store that never called Recycle took a pooled page")
	}
}

func TestStoreUsableAfterRelease(t *testing.T) {
	for _, size := range []int{16 * 1024, 3*pageBytes + 100} {
		s := NewByteStore(size)
		s.Recycle()
		dirty(t, s)
		s.Release()
		if got := s.MaterializedBytes(); got != 0 {
			t.Fatalf("size %d: released store still holds %d bytes", size, got)
		}
		if v, err := s.Read32(0); err != nil || v != 0 {
			t.Fatalf("size %d: read after Release = %#x, %v; want 0, nil", size, v, err)
		}
		last := uint32(size - 4)
		if err := s.Write32(last, 0x01020304, 0xf); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Read32(last); v != 0x01020304 {
			t.Fatalf("size %d: read back %#x after re-materialising", size, v)
		}
		if v, _ := s.Read32(0); v != 0 {
			t.Fatalf("size %d: untouched word reads %#x after Release", size, v)
		}
	}
}

func TestMismatch(t *testing.T) {
	s := NewByteStore(3 * pageBytes)
	// Page 0 and page 1 are materialised; page 2 never is.
	span := make([]byte, 64)
	for i := range span {
		span[i] = byte(i + 1)
	}
	base := uint32(pageBytes - 32) // straddles the page 0/1 boundary
	if err := s.WriteBytes(base, span); err != nil {
		t.Fatal(err)
	}
	if i, err := s.Mismatch(base, span); err != nil || i != -1 {
		t.Fatalf("equal span: Mismatch = %d, %v; want -1, nil", i, err)
	}
	for _, at := range []int{0, 31, 32, 63} {
		want := bytes.Clone(span)
		want[at] ^= 0xff
		if i, err := s.Mismatch(base, want); err != nil || i != at {
			t.Fatalf("flipped byte %d: Mismatch = %d, %v", at, i, err)
		}
	}
	// Unmaterialised page 2 compares as zero, and comparing it
	// materialises nothing.
	zeros := make([]byte, 1000)
	start := uint32(2*pageBytes - 500)
	if i, err := s.Mismatch(start, zeros); err != nil || i != -1 {
		t.Fatalf("zero span over an unmaterialised page: Mismatch = %d, %v", i, err)
	}
	zeros[700] = 1
	if i, err := s.Mismatch(start, zeros); err != nil || i != 700 {
		t.Fatalf("non-zero byte over an unmaterialised page: Mismatch = %d, %v; want 700", i, err)
	}
	if got := s.MaterializedBytes(); got != 2*pageBytes {
		t.Fatalf("Mismatch materialised pages: %d bytes resident, want %d", got, 2*pageBytes)
	}
	if _, err := s.Mismatch(uint32(s.Size()-4), make([]byte, 5)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range Mismatch err = %v, want ErrOutOfRange", err)
	}
}

func TestSinglePageStoreExactSize(t *testing.T) {
	const size = 16 * 1024
	s := NewByteStore(size)
	if got := s.MaterializedBytes(); got != size {
		t.Fatalf("16 KB store materialised %d bytes, want exactly %d", got, size)
	}
	if err := s.Write32(size-4, 0xcafef00d, 0xf); err != nil {
		t.Fatalf("Write32 at the last word: %v", err)
	}
	for _, addr := range []uint32{size - 3, size} {
		if err := s.Write32(addr, 1, 0xf); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("Write32(%#x) err = %v, want ErrOutOfRange", addr, err)
		}
	}
}

// TestReleaseConcurrentStores cycles write -> Release on separate stores
// from two goroutines; under -race it checks the shared pool hands each
// page to one store at a time.
func TestReleaseConcurrentStores(t *testing.T) {
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			s := NewByteStore(2 * pageBytes)
			s.Recycle()
			for round := 0; round < 50; round++ {
				v := uint32(g<<16 | round)
				for a := uint32(0); a < 2*pageBytes; a += 8192 {
					if err := s.Write32(a, v, 0xf); err != nil {
						errs <- err
						return
					}
				}
				for a := uint32(0); a < 2*pageBytes; a += 8192 {
					if got, _ := s.Read32(a); got != v {
						errs <- fmt.Errorf("goroutine %d round %d: read %#x at %#x, want %#x", g, round, got, a, v)
						return
					}
				}
				s.Release()
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
