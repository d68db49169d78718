package sim

import "math"

// This file implements the event-driven scheduler: next-edge times in
// integer ticks of the engine's base clock, a binary min-heap of them for
// engines of three or more domains, and the idle bulk-skip pass that jumps
// any subset of idle domains to the wake horizon — the earliest non-inert
// edge across all domains. The single-domain and two-domain layouts (every
// assembled platform) are dispatched through heap-free inline paths with
// the same semantics.
//
// Ordering contract: every layout delivers exactly the super-edge the
// lockstep scheduler would deliver, with coincident domains Evaluated and
// Updated in creation order. The differential tests pin this equivalence.

// domBefore orders domains by next-edge tick, ties broken by creation
// order so coincident pops come out in delivery order.
func domBefore(a, b *Domain) bool {
	return a.nextAt < b.nextAt || (a.nextAt == b.nextAt && a.order < b.order)
}

// heapInit (re)builds the event heap over all domains. Called from plan and
// after a bulk-skip pass rewrites many nextAt values at once.
func (e *Engine) heapInit() {
	e.eheap = append(e.eheap[:0], e.domains...)
	for i := len(e.eheap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.statHeapOps += int64(len(e.eheap))
}

func (e *Engine) siftDown(i int) {
	h := e.eheap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && domBefore(h[l], h[min]) {
			min = l
		}
		if r < n && domBefore(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (e *Engine) siftUp(i int) {
	h := e.eheap
	for i > 0 {
		p := (i - 1) / 2
		if !domBefore(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the earliest domain.
func (e *Engine) heapPop() *Domain {
	h := e.eheap
	d := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.eheap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	e.statHeapOps++
	return d
}

// heapPush inserts a domain after its nextAt moved forward.
func (e *Engine) heapPush(d *Domain) {
	e.eheap = append(e.eheap, d)
	e.siftUp(len(e.eheap) - 1)
	e.statHeapOps++
}

// wakeFrom returns the absolute tick of the domain's first non-inert edge
// given its current idle count k: nextAt when busy, nextAt + k·ratio for a
// bounded idle window, and math.MaxInt64 for open-ended idleness (or on
// arithmetic overflow, which merely shortens a skip — always sound).
func (d *Domain) wakeFrom(k int64) int64 {
	if k == 0 {
		return d.nextAt
	}
	if k < IdleForever && k <= (math.MaxInt64-d.nextAt)/d.ratio {
		return d.nextAt + k*d.ratio
	}
	return math.MaxInt64
}

// wakeAt is wakeFrom with a fresh idleness query.
func (d *Domain) wakeAt() int64 { return d.wakeFrom(d.IdleEdges()) }

// spanEdges counts the edges of d in [d.nextAt, T), i.e. strictly before
// tick T. The dominant ratio-1 case avoids the integer division.
func spanEdges(d *Domain, T int64) int64 {
	s := T - d.nextAt
	if d.ratio != 1 {
		s /= d.ratio
	}
	return s
}

// eventStep advances the simulation by one event: either one delivered
// super-edge, or a bulk-skip window ending in one. It records the delivered
// domains in e.due (except on the solo path, whose due set is its only
// domain) and returns the number of super-edge times consumed, counting
// skipped idle edges.
func (e *Engine) eventStep() int64 {
	switch len(e.domains) {
	case 1:
		if e.noSkip > 0 {
			// runSolo always skips when it can; RunCycles must not.
			e.domains[0].tick()
			return 1
		}
		var never bool
		n, _ := e.runSolo(&never, nil, 1)
		return n
	case 2:
		return e.eventStepPair()
	default:
		return e.eventStepHeap()
	}
}

// eventStepPair is the two-domain event step: a pair needs no heap, just
// one compare. Only the due domains' idleness decides whether to skip; the
// skip pass then needs the other domain's wake tick too.
func (e *Engine) eventStepPair() int64 {
	d0, d1 := e.domains[0], e.domains[1]
	if d0.nextAt < d1.nextAt {
		return e.pairSolo(d0, d1)
	}
	if d1.nextAt < d0.nextAt {
		return e.pairSolo(d1, d0)
	}
	// Coincident super-edge.
	if e.noSkip == 0 {
		k0 := d0.IdleEdges()
		k1 := d1.IdleEdges()
		if k0 > 0 || k1 > 0 {
			d0.wake, d1.wake = d0.wakeFrom(k0), d1.wakeFrom(k1)
			return e.skipPass()
		}
	}
	e.due = append(e.due[:0], d0, d1)
	deliver(e.due)
	return 1
}

// pairSolo delivers an edge due on one domain of a pair, or enters the skip
// pass when the due domain is idle.
func (e *Engine) pairSolo(due, other *Domain) int64 {
	if e.noSkip == 0 {
		if k := due.IdleEdges(); k > 0 {
			due.wake, other.wake = due.wakeFrom(k), other.wakeAt()
			return e.skipPass()
		}
	}
	e.due = append(e.due[:0], due)
	due.tick()
	return 1
}

// eventStepHeap is the event step of engines with three or more domains.
// The heap yields the due set in creation order in O(due · log n); the
// skip pass, taken only when a due domain is idle, asks every domain for
// its wake tick.
func (e *Engine) eventStepHeap() int64 {
	t0 := e.eheap[0].nextAt
	due := e.due[:0]
	for len(e.eheap) > 0 && e.eheap[0].nextAt == t0 {
		due = append(due, e.heapPop())
	}
	e.due = due
	if e.noSkip == 0 {
		for _, d := range due {
			if d.IdleEdges() > 0 {
				// The skip pass re-derives the due set from e.domains and
				// rebuilds the heap wholesale.
				for _, d := range e.domains {
					d.wake = d.wakeAt()
				}
				return e.skipPass()
			}
		}
	}
	deliver(due)
	for _, d := range due {
		e.heapPush(d)
	}
	return 1
}

// skipPass advances the engine to the wake horizon T: the earliest tick at
// which any domain has a non-inert edge, from the wake ticks its caller
// filled in for every domain. Idle domains consume all their (provably
// no-op) edges at ticks <= T in bulk; domains whose first non-inert edge
// lands exactly on T are delivered a normal super-edge there. A skipped
// edge coincident with T is sound to drop silently: its Eval would run
// before any Update at T commits, so it observes exactly the state that
// made it inert. The pass returns the super-edge times consumed and
// rebuilds the heap of an engine that has one.
func (e *Engine) skipPass() int64 {
	T := int64(math.MaxInt64)
	for _, d := range e.domains {
		if d.wake < T {
			T = d.wake
		}
	}
	if T == math.MaxInt64 {
		// Every domain is idle until input that no domain will produce:
		// deliver the earliest (no-op) super-edge so run budgets advance,
		// exactly as lockstep does.
		T = e.domains[0].nextAt
		for _, d := range e.domains[1:] {
			T = min(T, d.nextAt)
		}
		for _, d := range e.domains {
			d.wake = d.nextAt
		}
	}
	consumed := int64(1)
	due := e.due[:0]
	for _, d := range e.domains { // creation order
		if d.nextAt > T {
			continue
		}
		if d.wake == T {
			if s := spanEdges(d, T); s > 0 {
				d.skipEdges(s)
				consumed = max(consumed, s+1)
			}
			due = append(due, d)
		} else {
			s := spanEdges(d, T) + 1
			d.skipEdges(s)
			consumed = max(consumed, s)
		}
	}
	e.due = due
	deliver(due)
	if len(e.domains) >= 3 {
		e.heapInit()
	}
	return consumed
}
