package sim

import "math"

// This file implements the event-driven scheduler: next-edge times in
// integer ticks of the engine's base clock (its fastest domain), and the
// pair's idle bulk-skip pass, which jumps one or both idle domains to the
// wake horizon — the earliest non-inert edge of either. An engine has one
// or two domains (NewDomain refuses a third), so the due set is one compare
// away; a solo engine skips inside runSolo.
//
// Ordering contract: every layout delivers exactly the super-edge the
// lockstep scheduler would deliver, with coincident domains Evaluated and
// Updated in creation order. The differential tests pin this equivalence.

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
	if len(e.domains) == 2 {
		return e.eventStepPair()
	}
	if e.noSkip > 0 {
		// runSolo always skips when it can; RunCycles must not.
		e.domains[0].tick()
		return 1
	}
	var never bool
	n, _ := e.runSolo(&never, nil, 1)
	return n
}

// eventStepPair is the two-domain event step: the due set is one compare
// away. Only the due domains' idleness decides whether to skip; the
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

// skipPass advances a pair to the wake horizon T: the earliest tick at
// which either domain has a non-inert edge, from the wake ticks its caller
// filled in for both. Idle domains consume all their (provably no-op) edges
// at ticks <= T in bulk; domains whose first non-inert edge lands exactly on
// T are delivered a normal super-edge there. A skipped edge coincident with
// T is sound to drop silently: its Eval would run before any Update at T
// commits, so it observes exactly the state that made it inert. The pass
// returns the super-edge times consumed.
func (e *Engine) skipPass() int64 {
	d0, d1 := e.domains[0], e.domains[1]
	T := min(d0.wake, d1.wake)
	if T == math.MaxInt64 {
		// Both domains are idle until input that neither will produce:
		// deliver the earliest (no-op) super-edge so run budgets advance,
		// exactly as lockstep does.
		T = min(d0.nextAt, d1.nextAt)
		d0.wake, d1.wake = d0.nextAt, d1.nextAt
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
	return consumed
}
