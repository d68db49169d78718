// Package scriptcp provides a programmable coprocessor whose access
// sequence is carried in its configuration bit-stream: each image encodes a
// script of reads and writes over virtual objects. It exists to stress the
// virtualisation layer with access patterns the paper's streaming
// applications never produce — random object interleavings, re-reads of
// written data, dirty evictions followed by reloads — and to make the
// whole-system property tests possible: a host-side model replays the same
// script and the two must agree bit for bit.
//
// The core is a copro.Program with one unit per op, run by copro.Seq, so it
// follows the full §3.2 protocol (parameter read, parameter-page
// invalidation, CP_FIN) through exactly the same sequencer as the
// production coprocessors.
package scriptcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/copro"
)

// CoreName is the identity carried in bitstream images.
const CoreName = "scriptcp"

// OpKind enumerates script operations.
type OpKind uint8

const (
	// OpRead reads (obj, addr, size) and folds the value into the
	// running checksum.
	OpRead OpKind = iota
	// OpWrite writes Val at (obj, addr, size).
	OpWrite
	// OpWriteChecksum writes the running checksum at (obj, addr), 32-bit.
	// It lets the host verify that every read returned exactly the
	// modelled data.
	OpWriteChecksum
)

// Op is one scripted access. Size is 1, 2 or 4 and Addr is naturally
// aligned to it: Decode and Apply reject any other op.
type Op struct {
	Kind OpKind
	Obj  uint8
	Size uint8 // 1, 2 or 4 (ignored for OpWriteChecksum: always 4)
	Addr uint32
	Val  uint32
}

// Script is a coprocessor program.
type Script []Op

const opBytes = 12

// Encode serialises the script as a bit-stream payload.
func Encode(s Script) []byte {
	out := make([]byte, 4+opBytes*len(s))
	binary.LittleEndian.PutUint32(out, uint32(len(s)))
	for i, op := range s {
		b := out[4+i*opBytes:]
		b[0] = byte(op.Kind)
		b[1] = op.Obj
		b[2] = op.Size
		b[3] = 0
		binary.LittleEndian.PutUint32(b[4:], op.Addr)
		binary.LittleEndian.PutUint32(b[8:], op.Val)
	}
	return out
}

// Decode parses a payload produced by Encode and validates every op.
func Decode(p []byte) (Script, error) {
	if len(p) < 4 {
		return nil, errors.New("scriptcp: truncated payload")
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p) < 4+n*opBytes {
		return nil, fmt.Errorf("scriptcp: payload holds %d bytes, need %d", len(p), 4+n*opBytes)
	}
	s := make(Script, n)
	for i := range s {
		b := p[4+i*opBytes:]
		s[i] = Op{
			Kind: OpKind(b[0]),
			Obj:  b[1],
			Size: b[2],
			Addr: binary.LittleEndian.Uint32(b[4:]),
			Val:  binary.LittleEndian.Uint32(b[8:]),
		}
		if err := s[i].check(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// check validates op i of a script: a known kind, a Size of 1, 2 or 4 (an
// OpWriteChecksum is always 4, whatever its Size field says) and an Addr
// that is a multiple of it. Bitstream, Decode and Apply all run it on every
// op.
func (op *Op) check(i int) error {
	size := op.Size
	switch op.Kind {
	case OpRead, OpWrite:
	case OpWriteChecksum:
		size = copro.Size32
	default:
		return fmt.Errorf("scriptcp: op %d has unknown kind %d", i, op.Kind)
	}
	if size != copro.Size8 && size != copro.Size16 && size != copro.Size32 {
		return fmt.Errorf("scriptcp: op %d has size %d, want 1, 2 or 4", i, size)
	}
	if op.Addr%uint32(size) != 0 {
		return fmt.Errorf("scriptcp: op %d address %#x is not %d-byte aligned", i, op.Addr, size)
	}
	return nil
}

// Bitstream builds a configuration image carrying the script. Every op is
// checked as Decode checks it, so an image it returns always loads.
func Bitstream(device string, s Script) ([]byte, error) {
	for i := range s {
		if err := s[i].check(i); err != nil {
			return nil, err
		}
	}
	return bitstream.Build(bitstream.Header{
		Device:    device,
		Core:      CoreName,
		CoreClock: 40_000_000,
		IMUClock:  40_000_000,
		LEs:       900 + uint32(len(s)),
		Payload:   Encode(s),
	})
}

// fold mixes a read value into the checksum, position-dependently.
func fold(sum, v uint32, idx int) uint32 {
	return bits.RotateLeft32(sum^v+0x9e3779b9, 7) ^ uint32(idx)*0x85ebca6b
}

// Core is the scripted Program: one unit per op.
type Core struct {
	script Script
	sum    uint32
}

// New returns a core that will run the given script, on its sequencer.
// Every op must be valid (see Op); Decode checks those of every image.
func New(script Script) *copro.Seq { return copro.NewSeq(&Core{script: script}) }

// Name implements copro.Program.
func (c *Core) Name() string { return CoreName }

// Param implements copro.Program: the core reads one word, which it does
// not use, and starts a fresh checksum.
func (c *Core) Param(i int, w uint32) bool {
	c.sum = 0
	return false
}

// Units implements copro.Program: one unit per op.
func (c *Core) Units() int { return len(c.script) }

// Unit implements copro.Program: op i is one access, and a repeat of its
// own: a script's ops follow no pattern.
func (c *Core) Unit(i int, u *copro.Unit) int {
	op := &c.script[i]
	switch op.Kind {
	case OpRead:
		u.Read(op.Obj, op.Addr, op.Size, 0)
	case OpWriteChecksum:
		u.Write(op.Obj, op.Addr, copro.Size32, 0)
	default:
		u.Write(op.Obj, op.Addr, op.Size, 0)
	}
	return 1
}

// Kernel implements copro.Program: a read folds its data into the
// checksum, a write takes its value or the checksum.
func (c *Core) Kernel(i int, u *copro.Unit) {
	switch op := &c.script[i]; op.Kind {
	case OpRead:
		c.sum = fold(c.sum, u.Steps[0].Val, i)
	case OpWrite:
		u.Steps[0].Val = op.Val
	case OpWriteChecksum:
		u.Steps[0].Val = c.sum
	}
}

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (*copro.Seq, error) {
		s, err := Decode(h.Payload)
		if err != nil {
			return nil, err
		}
		return New(s), nil
	})
}
