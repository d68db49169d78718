// Package vecadd implements the paper's motivating coprocessor (Figures 3,
// 5 and 6): C[i] = A[i] + B[i] over 32-bit elements. Objects 0, 1 and 2 are
// the A, B and C vectors; the element count arrives as the first scalar in
// the parameter page. The core is a direct transcription of the Figure 5
// FSM onto the portable CP_* interface: no physical address ever appears,
// and the core is oblivious to the dual-port RAM size.
package vecadd

import (
	"repro/internal/bitstream"
	"repro/internal/copro"
	"repro/internal/sim"
)

// CoreName is the identity carried in bitstream images.
const CoreName = "vecadd"

// Object identifiers agreed between the software and hardware designer
// (the FPGA_MAP_OBJECT contract of §3.1).
const (
	ObjA = 0
	ObjB = 1
	ObjC = 2
)

type state uint8

const (
	stWaitStart state = iota
	stParamIssue
	stParamWait
	stReadAIssue
	stReadAWait
	stReadBIssue
	stReadBWait
	stWriteIssue
	stWriteWait
	stDone
)

// Core is the vector-add coprocessor model.
type Core struct {
	port *copro.Port
	mem  *copro.Mem

	st    state
	count uint32 // elements to process
	i     uint32 // current element
	a, b  uint32
	pinv  bool
}

// New returns a reset core.
func New() *Core { return &Core{} }

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
	c.count, c.i, c.a, c.b = 0, 0, 0, 0
	c.pinv = false
	if c.mem != nil {
		c.mem.ResetMem()
	}
}

// IdleEdges implements sim.BulkIdler. At the top of its loop the core
// advertises a hit run over the elements whose accesses all hit
// (copro.Mem.RunEdges). The adder has no multi-cycle compute phase, so
// otherwise only the open-ended windows qualify: waiting for CP_START
// before an operation, the states gated on a stalled access handshake, and
// holding CP_FIN after completion. All end only through an IMU-domain
// commit (Start or CP_TLBHIT toggling), per the sim.BulkIdler contract.
func (c *Core) IdleEdges() int64 {
	if c.st == stReadAIssue {
		if w := c.mem.RunEdges(c); w > 0 {
			return w
		}
	}
	switch c.st {
	case stParamWait, stReadAIssue, stReadAWait, stReadBIssue, stReadBWait, stWriteIssue, stWriteWait:
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

// SkipEdges implements sim.BulkIdler: a hit run executes its elements,
// skipped stall edges count wait cycles, and the other idle windows carry
// no per-edge state.
func (c *Core) SkipEdges(k int64) {
	if c.st == stReadAIssue && c.mem.SkipRun(k, c) {
		return
	}
	c.mem.SkipEdges(k)
}

// Unit implements copro.Program: element i reads A[i] and B[i] and writes
// C[i]. The last element raises CP_FIN.
func (c *Core) Unit(k int, u *copro.Unit) bool {
	i := c.i + uint32(k)
	if i+1 >= c.count {
		return false
	}
	u.Read(ObjA, i*4, copro.Size32)
	u.Read(ObjB, i*4, copro.Size32)
	u.Write(ObjC, i*4, copro.Size32)
	return true
}

// Kernel implements copro.Program: C[i] = A[i] + B[i].
func (c *Core) Kernel(u *copro.Unit) {
	c.a, c.b = u.Steps[0].Val, u.Steps[1].Val
	u.Steps[2].Val = c.a + c.b
	c.i++
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
			c.count = c.mem.Data()
			pinv = true
			c.i = 0
			if c.count == 0 {
				c.st = stDone
			} else {
				c.st = stReadAIssue
			}
		}
	case stReadAIssue:
		if c.mem.Ready() {
			c.mem.Read(ObjA, c.i*4, copro.Size32)
			c.st = stReadAWait
		}
	case stReadAWait:
		if c.mem.Completed() {
			c.a = c.mem.Data()
			c.st = stReadBIssue
		}
	case stReadBIssue:
		if c.mem.Ready() {
			c.mem.Read(ObjB, c.i*4, copro.Size32)
			c.st = stReadBWait
		}
	case stReadBWait:
		if c.mem.Completed() {
			c.b = c.mem.Data()
			c.st = stWriteIssue
		}
	case stWriteIssue:
		if c.mem.Ready() {
			c.mem.Write(ObjC, c.i*4, copro.Size32, c.a+c.b)
			c.st = stWriteWait
		}
	case stWriteWait:
		if c.mem.Completed() {
			c.i++
			if c.i >= c.count {
				c.st = stDone
			} else {
				c.st = stReadAIssue
			}
		}
	case stDone:
		// Hold CP_FIN until the OS acknowledges by dropping CP_START.
	}

	c.mem.Drive(c.st == stDone, pinv)
}

// Update implements sim.Ticker.
func (c *Core) Update() { c.mem.Commit() }

// Mem exposes the access helper for reports and tests.
func (c *Core) Mem() *copro.Mem { return c.mem }

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (any, error) {
		return New(), nil
	})
}
