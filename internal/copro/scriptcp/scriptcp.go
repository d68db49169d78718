// Package scriptcp provides a programmable coprocessor whose access
// sequence is carried in its configuration bit-stream: each image encodes a
// script of reads and writes over virtual objects. It exists to stress the
// virtualisation layer with access patterns the paper's streaming
// applications never produce — random object interleavings, re-reads of
// written data, dirty evictions followed by reloads — and to make the
// whole-system property tests possible: a host-side model replays the same
// script and the two must agree bit for bit.
//
// The core follows the full §3.2 protocol (parameter read, parameter-page
// invalidation, CP_FIN) so it exercises exactly the same paths as the
// production coprocessors.
package scriptcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/sim"
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

// Op is one scripted access. Addr must be naturally aligned to Size.
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

// Decode parses a payload produced by Encode.
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
		switch s[i].Kind {
		case OpRead, OpWrite, OpWriteChecksum:
		default:
			return nil, fmt.Errorf("scriptcp: op %d has unknown kind %d", i, s[i].Kind)
		}
	}
	return s, nil
}

// Bitstream builds a configuration image carrying the script.
func Bitstream(device string, s Script) ([]byte, error) {
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

type state uint8

const (
	stWaitStart state = iota
	stParamIssue
	stParamWait
	stOpIssue
	stOpWait
	stDone
)

// Core is the scripted coprocessor model.
type Core struct {
	port   *copro.Port
	mem    *copro.Mem
	script Script

	st  state
	idx int
	sum uint32
}

// New returns a core that will run the given script.
func New(script Script) *Core { return &Core{script: script} }

// Name implements copro.Coprocessor.
func (c *Core) Name() string { return CoreName }

// Bind implements copro.Coprocessor.
func (c *Core) Bind(p *copro.Port) {
	c.port = p
	c.mem = copro.NewMem(p)
}

// ResetCore implements copro.Coprocessor.
func (c *Core) ResetCore() {
	c.st = stWaitStart
	c.idx = 0
	c.sum = 0
	if c.mem != nil {
		c.mem.ResetMem()
	}
}

// IdleEdges implements sim.BulkIdler. Before an op the core advertises a
// hit run over the ops whose accesses hit (copro.Mem.RunEdges). Scripted
// accesses have no compute phases between them, so otherwise only the
// open-ended windows qualify: waiting for CP_START, the states gated on a
// stalled access handshake, and holding CP_FIN, all ended only by an
// IMU-domain commit.
func (c *Core) IdleEdges() int64 {
	if c.st == stOpIssue {
		if w := c.mem.RunEdges(c); w > 0 {
			return w
		}
	}
	switch c.st {
	case stParamWait, stOpIssue, stOpWait:
		if c.port.IMURef().Start && c.mem.Stalled() {
			return sim.IdleForever
		}
	case stWaitStart:
		if !c.port.IMURef().Start && c.mem.Quiet() {
			return sim.IdleForever
		}
	case stDone:
		if c.port.IMURef().Start && c.mem.Quiet() && c.port.CPRef().Fin {
			return sim.IdleForever
		}
	}
	return 0
}

// SkipEdges implements sim.BulkIdler: a hit run executes its ops, skipped
// stall edges count wait cycles, and the other idle windows carry no
// per-edge state.
func (c *Core) SkipEdges(k int64) {
	if c.st == stOpIssue && c.mem.SkipRun(k, c) {
		return
	}
	c.mem.SkipEdges(k)
}

// Unit implements copro.Program: one unit per op. The last op raises
// CP_FIN.
func (c *Core) Unit(k int, u *copro.Unit) bool {
	i := c.idx + k
	if i+1 >= len(c.script) {
		return false
	}
	op := c.script[i]
	switch op.Kind {
	case OpRead:
		u.Read(op.Obj, op.Addr, op.Size)
	case OpWrite:
		u.Write(op.Obj, op.Addr, op.Size)
	case OpWriteChecksum:
		u.Write(op.Obj, op.Addr, copro.Size32)
	default:
		return false
	}
	return true
}

// Kernel implements copro.Program: a read folds its data into the
// checksum, a write takes its value or the checksum.
func (c *Core) Kernel(u *copro.Unit) {
	op := c.script[c.idx]
	switch op.Kind {
	case OpRead:
		c.sum = fold(c.sum, u.Steps[0].Val, c.idx)
	case OpWrite:
		u.Steps[0].Val = op.Val
	case OpWriteChecksum:
		u.Steps[0].Val = c.sum
	}
	c.idx++
}

// Eval implements sim.Ticker.
func (c *Core) Eval() {
	in := c.port.IMU()
	c.mem.Step()
	pinv := false

	if !in.Start && c.st != stWaitStart {
		c.ResetCore()
	}

	switch c.st {
	case stWaitStart:
		if in.Start {
			c.st = stParamIssue
		}
	case stParamIssue:
		c.mem.Read(copro.ParamObj, 0, copro.Size32)
		c.st = stParamWait
	case stParamWait:
		if c.mem.Completed() {
			pinv = true
			c.idx = 0
			c.sum = 0
			if len(c.script) == 0 {
				c.st = stDone
			} else {
				c.st = stOpIssue
			}
		}
	case stOpIssue:
		if c.mem.Ready() {
			op := c.script[c.idx]
			switch op.Kind {
			case OpRead:
				c.mem.Read(op.Obj, op.Addr, op.Size)
			case OpWrite:
				c.mem.Write(op.Obj, op.Addr, op.Size, op.Val)
			case OpWriteChecksum:
				c.mem.Write(op.Obj, op.Addr, copro.Size32, c.sum)
			}
			c.st = stOpWait
		}
	case stOpWait:
		if c.mem.Completed() {
			op := c.script[c.idx]
			if op.Kind == OpRead {
				c.sum = fold(c.sum, c.mem.Data(), c.idx)
			}
			c.idx++
			if c.idx >= len(c.script) {
				c.st = stDone
			} else {
				c.st = stOpIssue
			}
		}
	case stDone:
	}

	c.mem.Drive(c.st == stDone, pinv)
}

// Update implements sim.Ticker.
func (c *Core) Update() { c.mem.Commit() }

// Mem exposes the access helper for reports and tests.
func (c *Core) Mem() *copro.Mem { return c.mem }

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (any, error) {
		s, err := Decode(h.Payload)
		if err != nil {
			return nil, err
		}
		return New(s), nil
	})
}
