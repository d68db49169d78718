package scriptcp

import (
	"fmt"
	"math/rand"
)

// ObjSpec describes one object available to a generated script.
type ObjSpec struct {
	ID       uint8
	Size     uint32
	Readable bool // In or InOut objects
	Writable bool // Out or InOut objects
	// ReadbackSafe marks objects whose written data may be read back
	// later (InOut: pages reload from user memory after eviction). For
	// load-elided Out objects a re-read after eviction is undefined, so
	// the generator never reads them.
	ReadbackSafe bool
}

// Generate builds a random but semantically valid script of n operations
// over the given objects, ending with a checksum write at the start of the
// first writable object. Every address is naturally aligned.
func Generate(rng *rand.Rand, objs []ObjSpec, n int) (Script, error) {
	var readable, writable []ObjSpec
	for _, o := range objs {
		if o.Readable {
			readable = append(readable, o)
		}
		if o.Writable {
			writable = append(writable, o)
		}
	}
	if len(writable) == 0 {
		return nil, fmt.Errorf("scriptcp: need at least one writable object")
	}
	var s Script
	sizes := []uint8{1, 2, 4}
	for i := 0; i < n; i++ {
		sz := sizes[rng.Intn(len(sizes))]
		doRead := len(readable) > 0 && rng.Intn(2) == 0
		if doRead {
			o := readable[rng.Intn(len(readable))]
			if o.Size < uint32(sz) {
				continue
			}
			addr := alignedAddr(rng, o.Size, sz)
			s = append(s, Op{Kind: OpRead, Obj: o.ID, Size: sz, Addr: addr})
		} else {
			o := writable[rng.Intn(len(writable))]
			if o.Size < uint32(sz) {
				continue
			}
			addr := alignedAddr(rng, o.Size, sz)
			s = append(s, Op{Kind: OpWrite, Obj: o.ID, Size: sz, Addr: addr, Val: rng.Uint32()})
		}
	}
	// Leave offset 0 of the checksum target untouched by random writes?
	// Not necessary: the checksum write is last and simply overwrites.
	s = append(s, Op{Kind: OpWriteChecksum, Obj: writable[0].ID, Addr: 0})
	return s, nil
}

func alignedAddr(rng *rand.Rand, objSize uint32, sz uint8) uint32 {
	slots := objSize / uint32(sz)
	return uint32(rng.Intn(int(slots))) * uint32(sz)
}

// Apply replays the script on host-side buffers (keyed by object ID) and
// returns the final checksum the coprocessor must produce, plus a per-object
// written-byte mask. Buffers must be pre-filled with the objects' initial
// user-space contents; after Apply they hold the expected final contents.
//
// The mask matters for load-elided (Out) objects: the virtualisation layer
// never loads their pages, so bytes the coprocessor did not write are
// undefined after the dirty-page flush — the same contract as any DMA
// output buffer. Verification must restrict Out-object comparisons to
// masked (written) bytes; In/InOut objects compare in full.
func Apply(s Script, bufs map[uint8][]byte) (uint32, map[uint8][]bool, error) {
	sum := uint32(0)
	masks := map[uint8][]bool{}
	for id, b := range bufs {
		masks[id] = make([]bool, len(b))
	}
	mark := func(id uint8, addr uint32, size uint8) {
		m := masks[id]
		for i := uint8(0); i < size; i++ {
			m[addr+uint32(i)] = true
		}
	}
	for i, op := range s {
		if err := op.check(i); err != nil {
			return 0, nil, err
		}
		buf, ok := bufs[op.Obj]
		if !ok {
			return 0, nil, fmt.Errorf("scriptcp: op %d touches unknown object %d", i, op.Obj)
		}
		switch op.Kind {
		case OpRead:
			v, err := load(buf, op.Addr, op.Size)
			if err != nil {
				return 0, nil, fmt.Errorf("op %d: %w", i, err)
			}
			sum = fold(sum, v, i)
		case OpWrite:
			if err := store(buf, op.Addr, op.Size, op.Val); err != nil {
				return 0, nil, fmt.Errorf("op %d: %w", i, err)
			}
			mark(op.Obj, op.Addr, op.Size)
		case OpWriteChecksum:
			if err := store(buf, op.Addr, 4, sum); err != nil {
				return 0, nil, fmt.Errorf("op %d: %w", i, err)
			}
			mark(op.Obj, op.Addr, 4)
		}
	}
	return sum, masks, nil
}

func load(buf []byte, addr uint32, size uint8) (uint32, error) {
	if int(addr)+int(size) > len(buf) {
		return 0, fmt.Errorf("scriptcp: read %d@%#x beyond %d", size, addr, len(buf))
	}
	var v uint32
	for i := uint8(0); i < size; i++ {
		v |= uint32(buf[addr+uint32(i)]) << (8 * i)
	}
	return v, nil
}

func store(buf []byte, addr uint32, size uint8, v uint32) error {
	if int(addr)+int(size) > len(buf) {
		return fmt.Errorf("scriptcp: write %d@%#x beyond %d", size, addr, len(buf))
	}
	for i := uint8(0); i < size; i++ {
		buf[addr+uint32(i)] = byte(v >> (8 * i))
	}
	return nil
}
