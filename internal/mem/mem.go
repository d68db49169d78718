// Package mem provides the memory models of the reconfigurable SoC: the
// on-chip dual-port RAM shared between the PLD and the processor, the
// external SDRAM holding user-space data, and the flash device storing
// configuration bitstreams.
//
// All models are functional (they hold real bytes) and carry the timing
// parameters the bus and CPU models need to cost accesses.
//
// Storage is sparse: a ByteStore is backed by fixed-size pages that are
// materialised on first write, and unwritten pages read as zero. Its page
// table is built on first write too, and only up to the highest page
// written. Building a board model with 256 MB of SDRAM and a 32 KB dual-port
// RAM therefore costs two store headers, not a 256 MB memset or a 48 KB
// page table — experiment harnesses construct (and discard) whole systems
// per run, and the eager set-up used to dominate their profiles.
//
// A store whose owner opts in with ByteStore.Recycle takes its backing
// pages from a bounded package-level pool of 64 KB pages — a store smaller
// than one page takes a pooled page sliced to its size — and
// ByteStore.Release hands them back. A recycled page is zeroed when it is
// taken, so it reads exactly like a fresh one. Only the store's owner may
// release it, once it has made its last access: a serving loop recycles its
// board's SDRAM and dual-port RAM and releases both when the run returns.
// Any other store allocates its pages and leaves them to the garbage
// collector.
package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrOutOfRange is returned for accesses outside a device.
var ErrOutOfRange = errors.New("mem: access out of range")

// Backing-page geometry. 64 KB pages keep the page table small even for the
// largest board (256 MB SDRAM = 4096 entries) while making first-write
// materialisation cheap.
const (
	pageShift = 16
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1
)

// ByteStore is a flat byte-addressable storage with 32-bit word helpers.
// Words are little-endian, matching the ARM stripe configuration.
//
// The address space is backed by lazily-allocated pages: reads of a page
// that was never written return zero without allocating, and the first
// write to a page materialises it, growing the page table up to that page.
// A page is pageBytes long, or the store's size for a store smaller than
// one page.
type ByteStore struct {
	size   int
	pages  [][]byte // nil until the first write; no longer than the highest page written
	pooled bool     // pages come from the pool (see Recycle)
}

// NewByteStore returns a zeroed store of the given size. It allocates
// nothing but the store itself.
func NewByteStore(size int) *ByteStore {
	return &ByteStore{size: max(size, 0)}
}

// maxPooledPages bounds the page pool (4 MB); pages released beyond it are
// left to the garbage collector.
const maxPooledPages = 64

// pagePool recycles full backing pages between stores. Unlike a sync.Pool
// it survives garbage collections, so a steady workload reuses the same
// pages run after run and its allocation count repeats exactly.
var pagePool struct {
	sync.Mutex
	free []*[pageBytes]byte
}

// newPage returns a zeroed backing page of min(size, pageBytes) bytes,
// taken from the pool when the store recycles and the pool has one.
func (s *ByteStore) newPage() []byte {
	n := min(s.size, pageBytes)
	if !s.pooled {
		return make([]byte, n)
	}
	var p *[pageBytes]byte
	pagePool.Lock()
	if k := len(pagePool.free); k > 0 {
		p = pagePool.free[k-1]
		pagePool.free = pagePool.free[:k-1]
	}
	pagePool.Unlock()
	if p == nil {
		return make([]byte, n, pageBytes)
	}
	clear(p[:n])
	return p[:n]
}

// Recycle makes the store take its backing pages from the pool. Its owner
// pairs it with Release, so the pool's takers are exactly the stores that
// hand pages back, and a store that never recycles allocates the same fresh
// pages whatever ran before it.
func (s *ByteStore) Recycle() { s.pooled = true }

// Release returns every backing page with a 64 KB capacity to the pool and
// leaves the store empty but usable: it reads as zero and re-materialises
// pages on the next write. Only the store's owner may call it, once the
// contents are no longer needed; slices returned by ReadBytes are copies
// and stay valid.
func (s *ByteStore) Release() {
	pagePool.Lock()
	defer pagePool.Unlock()
	for _, p := range s.pages {
		if cap(p) == pageBytes && len(pagePool.free) < maxPooledPages {
			pagePool.free = append(pagePool.free, (*[pageBytes]byte)(p[:pageBytes]))
		}
	}
	clear(s.pages)
	s.pages = s.pages[:0]
}

// Size returns the store capacity in bytes.
func (s *ByteStore) Size() int { return s.size }

// InRange reports whether [addr, addr+n) lies inside the store.
func (s *ByteStore) InRange(addr uint32, n int) bool {
	return int64(addr)+int64(n) <= int64(s.size)
}

// MaterializedBytes returns how many bytes of backing pages are currently
// allocated (observability for tests and capacity planning; a freshly built
// large store reports 0).
func (s *ByteStore) MaterializedBytes() int {
	n := 0
	for _, p := range s.pages {
		if p != nil {
			n += len(p)
		}
	}
	return n
}

// at returns backing page i, or nil when it was never written.
func (s *ByteStore) at(i uint32) []byte {
	if int(i) < len(s.pages) {
		return s.pages[i]
	}
	return nil
}

// page materialises and returns the backing page containing addr, growing
// the page table up to it.
func (s *ByteStore) page(addr uint32) []byte {
	i := int(addr >> pageShift)
	if i >= len(s.pages) {
		s.pages = append(s.pages, make([][]byte, i+1-len(s.pages))...)
	}
	p := s.pages[i]
	if p == nil {
		p = s.newPage()
		s.pages[i] = p
	}
	return p
}

// Byte returns the byte at addr.
func (s *ByteStore) Byte(addr uint32) (byte, error) {
	if !s.InRange(addr, 1) {
		return 0, fmt.Errorf("%w: byte read at %#x (size %#x)", ErrOutOfRange, addr, s.size)
	}
	p := s.at(addr >> pageShift)
	if p == nil {
		return 0, nil
	}
	return p[addr&pageMask], nil
}

// SetByte stores b at addr.
func (s *ByteStore) SetByte(addr uint32, b byte) error {
	if !s.InRange(addr, 1) {
		return fmt.Errorf("%w: byte write at %#x (size %#x)", ErrOutOfRange, addr, s.size)
	}
	s.page(addr)[addr&pageMask] = b
	return nil
}

// Read32 returns the little-endian word at addr (no alignment requirement;
// the bus models enforce their own alignment rules).
func (s *ByteStore) Read32(addr uint32) (uint32, error) {
	if !s.InRange(addr, 4) {
		return 0, fmt.Errorf("%w: word read at %#x (size %#x)", ErrOutOfRange, addr, s.size)
	}
	off := addr & pageMask
	if off <= pageBytes-4 {
		p := s.at(addr >> pageShift)
		if p == nil {
			return 0, nil
		}
		d := p[off : off+4 : off+4]
		return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
	}
	// The word straddles a page boundary; assemble it byte by byte.
	var v uint32
	for lane := uint32(0); lane < 4; lane++ {
		b, _ := s.Byte(addr + lane)
		v |= uint32(b) << (8 * lane)
	}
	return v, nil
}

// Write32 stores the little-endian word v at addr, honouring the byte-enable
// mask be (bit i enables byte lane i).
func (s *ByteStore) Write32(addr uint32, v uint32, be uint8) error {
	if !s.InRange(addr, 4) {
		return fmt.Errorf("%w: word write at %#x (size %#x)", ErrOutOfRange, addr, s.size)
	}
	off := addr & pageMask
	if off <= pageBytes-4 {
		p := s.page(addr)
		if be == 0xf {
			p[off] = byte(v)
			p[off+1] = byte(v >> 8)
			p[off+2] = byte(v >> 16)
			p[off+3] = byte(v >> 24)
			return nil
		}
		for lane := uint32(0); lane < 4; lane++ {
			if be&(1<<lane) != 0 {
				p[off+lane] = byte(v >> (8 * lane))
			}
		}
		return nil
	}
	for lane := uint32(0); lane < 4; lane++ {
		if be&(1<<lane) != 0 {
			_ = s.SetByte(addr+lane, byte(v>>(8*lane)))
		}
	}
	return nil
}

// ReadWords fills dst with the little-endian words starting at addr, as
// len(dst) Read32 calls at successive word addresses would, but with one
// range check and, for a span inside one backing page, one page lookup.
// An out-of-range span reads nothing.
func (s *ByteStore) ReadWords(addr uint32, dst []uint32) error {
	n := len(dst) * 4
	if !s.InRange(addr, n) {
		return fmt.Errorf("%w: word block read at %#x+%#x (size %#x)", ErrOutOfRange, addr, n, s.size)
	}
	off := int(addr & pageMask)
	if n == 0 || off+n > pageBytes {
		for i := range dst {
			dst[i], _ = s.Read32(addr + uint32(4*i)) // in range: checked above
		}
		return nil
	}
	p := s.at(addr >> pageShift)
	if p == nil {
		clear(dst)
		return nil
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(p[off+4*i:])
	}
	return nil
}

// WriteWords stores the words of src little-endian starting at addr, as
// len(src) full-lane Write32 calls would. An out-of-range span writes
// nothing.
func (s *ByteStore) WriteWords(addr uint32, src []uint32) error {
	n := len(src) * 4
	if !s.InRange(addr, n) {
		return fmt.Errorf("%w: word block write at %#x+%#x (size %#x)", ErrOutOfRange, addr, n, s.size)
	}
	off := int(addr & pageMask)
	if n == 0 || off+n > pageBytes {
		for i, v := range src {
			_ = s.Write32(addr+uint32(4*i), v, 0xf) // in range: checked above
		}
		return nil
	}
	p := s.page(addr)
	for i, v := range src {
		binary.LittleEndian.PutUint32(p[off+4*i:], v)
	}
	return nil
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (s *ByteStore) ReadBytes(addr uint32, n int) ([]byte, error) {
	if n < 0 || !s.InRange(addr, n) {
		return nil, fmt.Errorf("%w: block read at %#x+%#x (size %#x)", ErrOutOfRange, addr, n, s.size)
	}
	out := make([]byte, n)
	_ = s.ReadInto(addr, out) // in range: checked above
	return out, nil
}

// ReadInto fills dst with the bytes starting at addr, allocating nothing.
// Pages that were never written read as zero. An out-of-range span reads
// nothing.
func (s *ByteStore) ReadInto(addr uint32, dst []byte) error {
	n := len(dst)
	if !s.InRange(addr, n) {
		return fmt.Errorf("%w: block read at %#x+%#x (size %#x)", ErrOutOfRange, addr, n, s.size)
	}
	for done := 0; done < n; {
		a := addr + uint32(done)
		off := int(a & pageMask)
		chunk := min(pageBytes-off, n-done)
		if p := s.at(a >> pageShift); p != nil {
			copy(dst[done:done+chunk], p[off:])
		} else {
			clear(dst[done : done+chunk])
		}
		done += chunk
	}
	return nil
}

// WriteBytes copies p into the store starting at addr.
func (s *ByteStore) WriteBytes(addr uint32, p []byte) error {
	if !s.InRange(addr, len(p)) {
		return fmt.Errorf("%w: block write at %#x+%#x (size %#x)", ErrOutOfRange, addr, len(p), s.size)
	}
	for done := 0; done < len(p); {
		a := addr + uint32(done)
		off := a & pageMask
		chunk := pageBytes - int(off)
		if chunk > len(p)-done {
			chunk = len(p) - done
		}
		copy(s.page(a)[off:], p[done:done+chunk])
		done += chunk
	}
	return nil
}

// Mismatch compares the store's bytes at addr against p in place and
// returns the index of the first differing byte, or -1 when they are equal.
// Unmaterialised pages compare as zero; nothing is copied or materialised.
func (s *ByteStore) Mismatch(addr uint32, p []byte) (int, error) {
	if !s.InRange(addr, len(p)) {
		return 0, fmt.Errorf("%w: block compare at %#x+%#x (size %#x)", ErrOutOfRange, addr, len(p), s.size)
	}
	for done := 0; done < len(p); {
		a := addr + uint32(done)
		off := int(a & pageMask)
		chunk := min(pageBytes-off, len(p)-done)
		want := p[done : done+chunk]
		if pg := s.at(a >> pageShift); pg != nil {
			got := pg[off : off+chunk]
			if !bytes.Equal(got, want) {
				for i := range want {
					if got[i] != want[i] {
						return done + i, nil
					}
				}
			}
		} else {
			for i, b := range want {
				if b != 0 {
					return done + i, nil
				}
			}
		}
		done += chunk
	}
	return -1, nil
}
