package mem

import "fmt"

// DPRAM is the on-chip dual-port RAM of the Excalibur device. Port A is
// wired to the PLD (the IMU accesses it synchronously, one word per cycle);
// port B is an AHB slave visible to the ARM stripe. The paper organises it
// logically in 2 KB pages managed by the VIM.
//
// Both ports address the same storage. The paper notes the two masters never
// access the memory at the same time (the processor only touches it while
// the coprocessor is stalled or idle), and the simulation preserves that
// discipline, so no port-conflict arbitration is modelled; a conflict
// counter is still kept so tests can assert the discipline holds.
type DPRAM struct {
	store    *ByteStore
	pageSize int

	// Port activity counters for assertions and reports.
	ReadsA, WritesA uint64
	ReadsB, WritesB uint64
}

// NewDPRAM builds a dual-port RAM of size bytes organised in pages of
// pageSize bytes. Size must be a positive multiple of pageSize.
func NewDPRAM(size, pageSize int) (*DPRAM, error) {
	if size <= 0 || pageSize <= 0 || size%pageSize != 0 {
		return nil, fmt.Errorf("mem: DPRAM size %d must be a positive multiple of page size %d", size, pageSize)
	}
	return &DPRAM{store: NewByteStore(size), pageSize: pageSize}, nil
}

// Size returns the capacity in bytes.
func (d *DPRAM) Size() int { return d.store.Size() }

// PageSize returns the logical page size in bytes.
func (d *DPRAM) PageSize() int { return d.pageSize }

// Pages returns the number of logical pages.
func (d *DPRAM) Pages() int { return d.store.Size() / d.pageSize }

// PageBase returns the byte address of page frame f.
func (d *DPRAM) PageBase(f int) uint32 { return uint32(f * d.pageSize) }

// ReadA performs a port-A (PLD side) word read.
func (d *DPRAM) ReadA(addr uint32) (uint32, error) {
	d.ReadsA++
	return d.store.Read32(addr)
}

// WriteA performs a port-A (PLD side) word write with byte enables.
func (d *DPRAM) WriteA(addr uint32, v uint32, be uint8) error {
	d.WritesA++
	return d.store.Write32(addr, v, be)
}

// Framed reports whether FrameA views every frame: each lies inside one
// backing page of the store.
func (d *DPRAM) Framed() bool { return pageBytes%d.pageSize == 0 }

// FrameA returns page frame f as port A moves words through it: a slice
// of the store's backing page, which it materialises as a write would, or
// nil if the frame lies outside the RAM or across a backing page. Moves
// through the view are not counted: its taker adds them to ReadsA and
// WritesA.
func (d *DPRAM) FrameA(f int) Frame {
	base := f * d.pageSize // a multiple of the page size, as is Size
	off := base & pageMask
	if f < 0 || base >= d.Size() || off+d.pageSize > pageBytes {
		return nil
	}
	return d.store.page(uint32(base))[off : off+d.pageSize : off+d.pageSize]
}

// ReadB performs a port-B (AHB side) word read.
func (d *DPRAM) ReadB(addr uint32) (uint32, error) {
	d.ReadsB++
	return d.store.Read32(addr)
}

// WriteB performs a port-B (AHB side) word write with byte enables.
func (d *DPRAM) WriteB(addr uint32, v uint32, be uint8) error {
	d.WritesB++
	return d.store.Write32(addr, v, be)
}

// ReadPage copies page frame f into a fresh slice (used by tests and the
// bounce-buffer transfer path).
func (d *DPRAM) ReadPage(f int) ([]byte, error) {
	if f < 0 || f >= d.Pages() {
		return nil, fmt.Errorf("%w: page %d of %d", ErrOutOfRange, f, d.Pages())
	}
	return d.store.ReadBytes(d.PageBase(f), d.pageSize)
}

// WritePage overwrites page frame f with p (len(p) may be shorter than a
// page; the rest of the frame is left untouched).
func (d *DPRAM) WritePage(f int, p []byte) error {
	if f < 0 || f >= d.Pages() {
		return fmt.Errorf("%w: page %d of %d", ErrOutOfRange, f, d.Pages())
	}
	if len(p) > d.pageSize {
		return fmt.Errorf("%w: %d bytes into a %d-byte page", ErrOutOfRange, len(p), d.pageSize)
	}
	return d.store.WriteBytes(d.PageBase(f), p)
}

// Store exposes the underlying byte store for trusted fast paths.
func (d *DPRAM) Store() *ByteStore { return d.store }
