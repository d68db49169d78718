// Package amba models the AMBA AHB-lite interconnect of the Excalibur
// stripe: an address decoder, wait-stated slaves, and a master port that
// performs single transfers and INCR bursts while accounting bus cycles.
//
// The paper's SW(DP) overhead component — the operating system moving pages
// between user-space SDRAM and the dual-port RAM — is costed by driving this
// model, so its wait-state arithmetic is what ultimately shapes Figures 8
// and 9.
//
// A burst is served in one of two ways with identical results. The beat
// path decodes each beat and hands it to the slave's Access. The burst
// path serves a burst that lies wholly inside one region whose slave
// implements the unexported burst method (SDRAMSlave, DPRAMSlave) with a
// single call: the slave moves every word through the memory's
// ByteStore.ReadWords or WriteWords and returns the summed wait states in
// closed form, and the bus charges the cycles the beats would have cost.
// Everything else — RegSlave, a burst crossing out of its region, an
// unmapped or out-of-range burst — takes the beat path, so error text and
// the cycles charged before an error are unchanged.
package amba

import (
	"errors"
	"fmt"
	"sort"
)

// Transfer direction and size constants.
const (
	// WordBytes is the bus width in bytes (AHB 32-bit data bus).
	WordBytes = 4
)

// Errors returned by bus operations.
var (
	ErrDecode  = errors.New("amba: no slave mapped at address")
	ErrOverlap = errors.New("amba: region overlaps an existing mapping")
	ErrSlave   = errors.New("amba: slave error response")
)

// Beat describes one beat of a transfer presented to a slave.
type Beat struct {
	Addr  uint32
	Write bool
	WData uint32
	BE    uint8 // byte enables for writes
	Seq   bool  // true for the non-first beats of an INCR burst
}

// Slave is an AHB slave: it performs the access and reports how many wait
// states it inserted before completing the data phase.
type Slave interface {
	// Access performs the beat and returns read data (for reads) and the
	// number of wait states (0 means single-cycle data phase).
	Access(b Beat) (rdata uint32, waits int64, err error)
	// Name identifies the slave in errors and dumps.
	Name() string
}

// burster is a slave that can serve a whole INCR burst in one call.
type burster interface {
	// burst moves the words of one burst at local offset off — reading
	// into words, or writing them when write is set — and returns the
	// wait states the beat path would have inserted over all its beats.
	// It declines (ok false) without any side effect when the beat path
	// would fail.
	burst(off uint32, words []uint32, write bool) (waits int64, ok bool)
}

// region is one entry of the address map.
type region struct {
	base, size uint32
	slave      Slave
	burst      burster // slave's burst path, nil if it has none
}

// Bus is a single-master AHB-lite layer with an address decoder.
//
// The stripe has one AHB master of interest at a time (the ARM core or the
// configuration DMA); true multi-master arbitration is not required for the
// paper's experiments and is documented as out of scope.
type Bus struct {
	regions []region
	// last caches the most recently decoded region index; page copies and
	// cache refills hit the same slave for long beat runs, so checking it
	// first skips the binary search on the hot path.
	last int

	// Cycles is the running HCLK cycle count consumed by transfers.
	Cycles int64
	// Transfers counts completed beats.
	Transfers int64

	// copyBuf is Copy's reusable burst staging buffer.
	copyBuf []uint32
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Map attaches slave at [base, base+size). Regions must not overlap.
func (b *Bus) Map(base, size uint32, s Slave) error {
	if s == nil || size == 0 {
		return fmt.Errorf("amba: invalid mapping for %q", nameOf(s))
	}
	newEnd := uint64(base) + uint64(size)
	for _, r := range b.regions {
		end := uint64(r.base) + uint64(r.size)
		if uint64(base) < end && newEnd > uint64(r.base) {
			return fmt.Errorf("%w: [%#x,%#x) vs %q [%#x,%#x)", ErrOverlap, base, newEnd, r.slave.Name(), r.base, end)
		}
	}
	bs, _ := s.(burster)
	b.regions = append(b.regions, region{base: base, size: size, slave: s, burst: bs})
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].base < b.regions[j].base })
	return nil
}

func nameOf(s Slave) string {
	if s == nil {
		return "<nil>"
	}
	return s.Name()
}

// find returns the region mapping addr, or nil.
func (b *Bus) find(addr uint32) *region {
	if b.last < len(b.regions) {
		r := &b.regions[b.last]
		if addr-r.base < r.size { // unsigned wrap rejects addr < base
			return r
		}
	}
	i := sort.Search(len(b.regions), func(i int) bool { return b.regions[i].base > addr })
	if i > 0 {
		r := &b.regions[i-1]
		if addr-r.base < r.size {
			b.last = i - 1
			return r
		}
	}
	return nil
}

// decode finds the slave and local offset for addr.
func (b *Bus) decode(addr uint32) (Slave, uint32, error) {
	r := b.find(addr)
	if r == nil {
		return nil, 0, fmt.Errorf("%w: %#x", ErrDecode, addr)
	}
	return r.slave, addr - r.base, nil
}

// transfer runs one beat through decode and the slave, charging cycles:
// the address phase of a beat overlaps the previous data phase, so a beat
// costs 1 (data) + waits, plus 1 extra cycle for the very first address
// phase of a transaction (firstBeat).
func (b *Bus) transfer(beat Beat, firstBeat bool) (uint32, error) {
	s, off, err := b.decode(beat.Addr)
	if err != nil {
		return 0, err
	}
	local := beat
	local.Addr = off
	rdata, waits, err := s.Access(local)
	if err != nil {
		return 0, fmt.Errorf("%w: %q at %#x: %v", ErrSlave, s.Name(), beat.Addr, err)
	}
	cost := 1 + waits
	if firstBeat {
		cost++
	}
	b.Cycles += cost
	b.Transfers++
	return rdata, nil
}

// Read32 performs a single word read.
func (b *Bus) Read32(addr uint32) (uint32, error) {
	return b.transfer(Beat{Addr: addr}, true)
}

// Write32 performs a single word write with all byte lanes enabled.
func (b *Bus) Write32(addr, v uint32) error {
	_, err := b.transfer(Beat{Addr: addr, Write: true, WData: v, BE: 0xf}, true)
	return err
}

// burst serves a whole INCR burst through its slave's burst path when the
// burst lies inside one region that has one, charging what the beat path
// would: one address-phase cycle, then one data cycle plus the slave's
// wait states per beat. It reports false, having done nothing, when the
// beat path must run instead.
func (b *Bus) burst(addr uint32, words []uint32, write bool) bool {
	if len(words) == 0 {
		return false
	}
	r := b.find(addr)
	if r == nil || r.burst == nil {
		return false
	}
	off := addr - r.base
	if uint64(off)+uint64(len(words))*WordBytes > uint64(r.size) {
		return false
	}
	waits, ok := r.burst.burst(off, words, write)
	if !ok {
		return false
	}
	b.Cycles += 1 + int64(len(words)) + waits
	b.Transfers += int64(len(words))
	return true
}

// ReadBurst performs an INCR read burst of n words starting at addr,
// filling dst. A burst that leaves its region continues beat by beat into
// whatever is mapped next; callers split at page granularity, which is
// always within one device.
func (b *Bus) ReadBurst(addr uint32, dst []uint32) error {
	if b.burst(addr, dst, false) {
		return nil
	}
	for i := range dst {
		v, err := b.transfer(Beat{Addr: addr + uint32(i*WordBytes), Seq: i > 0}, i == 0)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// WriteBurst performs an INCR write burst of the words in src.
func (b *Bus) WriteBurst(addr uint32, src []uint32) error {
	if b.burst(addr, src, true) {
		return nil
	}
	for i, v := range src {
		_, err := b.transfer(Beat{Addr: addr + uint32(i*WordBytes), Write: true, WData: v, BE: 0xf, Seq: i > 0}, i == 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// Copy moves n bytes from src to dst using word bursts of burstWords beats,
// returning the HCLK cycles consumed. Addresses and n must be word-aligned.
func (b *Bus) Copy(dst, src uint32, n int, burstWords int) (int64, error) {
	if n%WordBytes != 0 || dst%WordBytes != 0 || src%WordBytes != 0 {
		return 0, fmt.Errorf("amba: Copy requires word alignment (dst=%#x src=%#x n=%d)", dst, src, n)
	}
	if burstWords <= 0 {
		burstWords = 1
	}
	start := b.Cycles
	if cap(b.copyBuf) < burstWords {
		b.copyBuf = make([]uint32, burstWords)
	}
	buf := b.copyBuf[:burstWords]
	for done := 0; done < n; {
		words := (n - done) / WordBytes
		if words > burstWords {
			words = burstWords
		}
		chunk := buf[:words]
		if err := b.ReadBurst(src+uint32(done), chunk); err != nil {
			return b.Cycles - start, err
		}
		if err := b.WriteBurst(dst+uint32(done), chunk); err != nil {
			return b.Cycles - start, err
		}
		done += words * WordBytes
	}
	return b.Cycles - start, nil
}
