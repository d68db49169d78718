package sim

// Reg is a clocked register holding a value of type T. During Eval a
// component reads other components' registers with Get (committed value) and
// schedules its own next value with Set; the owning component's Update must
// call Commit. Reg is the basic building block for honouring the two-phase
// discipline without hand-writing cur/next pairs.
type Reg[T any] struct {
	cur, next T
	pending   bool
}

// NewReg returns a register initialised (and committed) to v.
func NewReg[T any](v T) Reg[T] {
	return Reg[T]{cur: v, next: v}
}

// Get returns the committed value.
func (r *Reg[T]) Get() T { return r.cur }

// Ref returns a read-only pointer to the committed value, valid until the
// next Commit or Force. It lets per-edge hot paths inspect wide registers
// without copying them; callers must not write through it.
func (r *Reg[T]) Ref() *T { return &r.cur }

// Set schedules v to become the committed value at the next Commit.
func (r *Reg[T]) Set(v T) {
	r.next = v
	r.pending = true
}

// Stage marks the register pending and returns a pointer to its next
// value, which a component edits in place during Eval instead of building
// a copy for Set. Between commits the next value equals the committed one,
// so an edit starts from the committed value, or from whatever was already
// scheduled on this edge. The pointer is valid until the next Commit or
// Force; a Force drops the staged edit.
func (r *Reg[T]) Stage() *T {
	r.pending = true
	return &r.next
}

// Pending reports whether a value is scheduled for the next Commit.
func (r *Reg[T]) Pending() bool { return r.pending }

// Commit applies the value scheduled by Set or Stage, if any, and reports
// whether it did.
func (r *Reg[T]) Commit() bool {
	if !r.pending {
		return false
	}
	r.cur = r.next
	r.pending = false
	return true
}

// Force immediately sets both the committed and pending value. It is meant
// for reset logic and testbenches, not for use during Eval.
func (r *Reg[T]) Force(v T) {
	r.cur = v
	r.next = v
	r.pending = false
}
