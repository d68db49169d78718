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

// pooled returns the number of pages waiting in the pool.
func pooled() int {
	pagePool.Lock()
	defer pagePool.Unlock()
	return len(pagePool.free)
}

func TestNonRecyclingStoreAllocatesFresh(t *testing.T) {
	a := NewByteStore(pageBytes)
	a.Recycle()
	dirty(t, a)
	a.Release()
	free := pooled()
	if free == 0 {
		t.Fatal("Release pooled nothing")
	}
	b := NewByteStore(pageBytes)
	dirty(t, b)
	if got := pooled(); got != free {
		t.Fatalf("a store that never called Recycle took a pooled page: pool %d -> %d", free, got)
	}
	if v, _ := b.Read32(4); v != 0 {
		t.Fatalf("fresh page reads %#x at an unwritten word", v)
	}
}

// TestFreshStoreAllocatesOnlyHeader checks that building even an
// SDRAM-sized store allocates the store itself and no page table.
func TestFreshStoreAllocatesOnlyHeader(t *testing.T) {
	var s *ByteStore
	if allocs := testing.AllocsPerRun(10, func() { s = NewByteStore(128 << 20) }); allocs != 1 {
		t.Fatalf("NewByteStore(128 MB) allocates %.0f times, want 1 (the header)", allocs)
	}
	if s.pages != nil || s.MaterializedBytes() != 0 {
		t.Fatalf("fresh store holds a %d-entry page table, %d bytes", len(s.pages), s.MaterializedBytes())
	}
}

// TestPageTableGrowsToHighestWrite checks that the page table grows only
// on a write, up to the page written, and that reads past its end return
// zero without growing it.
func TestPageTableGrowsToHighestWrite(t *testing.T) {
	const size = 128 << 20
	s := NewByteStore(size)
	if err := s.SetByte(100, 0x11); err != nil {
		t.Fatal(err)
	}
	if len(s.pages) != 1 {
		t.Fatalf("a write to page 0 grew the table to %d entries, want 1", len(s.pages))
	}
	for _, addr := range []uint32{pageBytes, size / 2, size - 4} {
		if v, err := s.Read32(addr); err != nil || v != 0 {
			t.Fatalf("Read32(%#x) past the table = %#x, %v; want 0, nil", addr, v, err)
		}
	}
	dst := bytes.Repeat([]byte{0xee}, 64)
	if err := s.ReadInto(size-64, dst); err != nil || !bytes.Equal(dst, make([]byte, 64)) {
		t.Fatalf("ReadInto past the table = %x, %v; want zeros", dst, err)
	}
	if i, err := s.Mismatch(size-64, make([]byte, 64)); err != nil || i != -1 {
		t.Fatalf("Mismatch past the table = %d, %v; want -1", i, err)
	}
	if len(s.pages) != 1 {
		t.Fatalf("reads grew the table to %d entries, want 1", len(s.pages))
	}
	if err := s.SetByte(size-1, 0xab); err != nil {
		t.Fatal(err)
	}
	if len(s.pages) != size/pageBytes {
		t.Fatalf("a write at the last byte grew the table to %d entries, want %d", len(s.pages), size/pageBytes)
	}
	for addr, want := range map[uint32]byte{100: 0x11, size - 1: 0xab, size - 2: 0} {
		if b, err := s.Byte(addr); err != nil || b != want {
			t.Fatalf("Byte(%#x) = %#x, %v; want %#x", addr, b, err, want)
		}
	}
	if got := s.MaterializedBytes(); got != 2*pageBytes {
		t.Fatalf("two writes materialised %d bytes, want %d", got, 2*pageBytes)
	}
}

// TestRecycledSmallStore checks that a recycling store smaller than one
// page takes a dirty pooled page sliced to its size, reads zero, and gives
// the page back on Release.
func TestRecycledSmallStore(t *testing.T) {
	const size = 32 * 1024
	a := NewByteStore(pageBytes)
	a.Recycle()
	dirty(t, a)
	page := &a.pages[0][0]
	a.Release()

	s := NewByteStore(size)
	s.Recycle()
	if err := s.Write32(size-4, 0x01020304, 0xf); err != nil {
		t.Fatal(err)
	}
	if &s.pages[0][0] != page {
		t.Fatal("the recycling 32 KB store did not take the released page")
	}
	if got := s.MaterializedBytes(); got != size {
		t.Fatalf("materialised %d bytes, want exactly %d", got, size)
	}
	got, err := s.ReadBytes(0, size-4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("a store built from a dirty pooled page reads non-zero bytes")
	}
	if err := s.Write32(size-3, 0, 0xf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Write32 past the 32 KB store err = %v, want ErrOutOfRange", err)
	}
	free := pooled()
	s.Release()
	if pooled() != free+1 {
		t.Fatalf("Release did not return the sliced page: pool %d -> %d", free, pooled())
	}
	pagePool.Lock()
	back := &pagePool.free[len(pagePool.free)-1][0]
	pagePool.Unlock()
	if back != page {
		t.Fatal("Release pooled a different page than the store held")
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

// TestReadInto checks the bulk read against per-byte reads over a span
// that straddles a written page and a never-written one, that it
// overwrites stale destination bytes with the zeros of the unwritten page
// without materialising it, that an out-of-range span is an error that
// leaves the destination alone, and that it allocates nothing.
func TestReadInto(t *testing.T) {
	s := NewByteStore(3 * pageBytes)
	span := make([]byte, 100)
	for i := range span {
		span[i] = byte(i + 1)
	}
	base := uint32(2*pageBytes - 100) // the last 100 bytes of page 1
	if err := s.WriteBytes(base, span); err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xee}, 300) // ends 200 bytes into page 2
	if err := s.ReadInto(base, dst); err != nil {
		t.Fatal(err)
	}
	for i, got := range dst {
		want, _ := s.Byte(base + uint32(i))
		if got != want {
			t.Fatalf("byte %d = %#x, Byte reads %#x", i, got, want)
		}
	}
	if !bytes.Equal(dst[:100], span) || bytes.Count(dst[100:], []byte{0}) != 200 {
		t.Fatal("ReadInto did not return the written span followed by zeros")
	}
	if got := s.MaterializedBytes(); got != pageBytes {
		t.Fatalf("ReadInto materialised pages: %d bytes resident, want %d", got, pageBytes)
	}
	stale := bytes.Repeat([]byte{0xee}, 8)
	if err := s.ReadInto(uint32(s.Size()-4), stale); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range ReadInto err = %v, want ErrOutOfRange", err)
	}
	if !bytes.Equal(stale, bytes.Repeat([]byte{0xee}, 8)) {
		t.Fatal("out-of-range ReadInto wrote into the destination")
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = s.ReadInto(base, dst) }); allocs != 0 {
		t.Fatalf("ReadInto allocates %.0f times per call", allocs)
	}
}

func TestSinglePageStoreExactSize(t *testing.T) {
	const size = 16 * 1024
	s := NewByteStore(size)
	if got := s.MaterializedBytes(); got != 0 {
		t.Fatalf("fresh 16 KB store materialised %d bytes, want 0", got)
	}
	if err := s.Write32(size-4, 0xcafef00d, 0xf); err != nil {
		t.Fatalf("Write32 at the last word: %v", err)
	}
	if got := s.MaterializedBytes(); got != size {
		t.Fatalf("written 16 KB store materialised %d bytes, want exactly %d", got, size)
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
