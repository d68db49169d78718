// Package vecadd implements the paper's motivating coprocessor (Figures 3,
// 5 and 6): C[i] = A[i] + B[i] over 32-bit elements. Objects 0, 1 and 2 are
// the A, B and C vectors; the element count arrives as the first scalar in
// the parameter page. The core is a copro.Program — one unit per element,
// reading A[i] and B[i] and writing C[i] — and copro.Seq, Figure 5's FSM,
// runs it on the portable CP_* interface: no physical address ever
// appears, and the core is oblivious to the dual-port RAM size.
package vecadd

import (
	"repro/internal/bitstream"
	"repro/internal/copro"
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

// Core is the vector-add Program.
type Core struct {
	count uint32 // elements to process
}

// New returns a reset core on its sequencer.
func New() *copro.Seq { return copro.NewSeq(&Core{}) }

// Name implements copro.Program.
func (c *Core) Name() string { return CoreName }

// Param implements copro.Program: the only word is the element count.
func (c *Core) Param(i int, w uint32) bool {
	c.count = w
	return false
}

// Units implements copro.Program: one unit per element.
func (c *Core) Units() int { return int(c.count) }

// Unit implements copro.Program: element i reads A[i] and B[i] and writes
// C[i]. Every later element repeats it one word on.
func (c *Core) Unit(i int, u *copro.Unit) int {
	a := uint32(i) * 4
	u.Read(ObjA, a, copro.Size32, 4)
	u.Read(ObjB, a, copro.Size32, 4)
	u.Write(ObjC, a, copro.Size32, 4)
	return c.Units() - i
}

// Kernel implements copro.Program: C[i] = A[i] + B[i].
func (c *Core) Kernel(i int, u *copro.Unit) {
	u.Steps[2].Val = u.Steps[0].Val + u.Steps[1].Val
}

func init() {
	bitstream.RegisterCore(CoreName, func(h bitstream.Header) (*copro.Seq, error) {
		return New(), nil
	})
}
