package sim

import "math"

// This file implements the event-driven scheduler: a binary min-heap of
// next-edge times for the integer-ratio fast mode, a cross-multiplied
// rational fallback for arbitrary frequencies, and the generalised idle
// bulk-skip that jumps any subset of idle domains to the wake horizon — the
// earliest non-inert edge across all domains — in one pass. The
// single-domain and two-domain integer-ratio layouts (every assembled
// platform) are dispatched through heap-free inline paths with the same
// semantics; the heap carries the n >= 3 boards.
//
// Ordering contract: both modes deliver exactly the super-edge the lockstep
// scheduler would deliver, with coincident domains Evaluated and Updated in
// creation order. The differential tests pin this equivalence.

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
// domains in e.due and returns the number of super-edge times consumed
// (counting skipped idle edges, like the lockstep fast path does).
func (e *Engine) eventStep() int64 {
	switch {
	case len(e.domains) == 1:
		if e.noSkip > 0 {
			// runSolo always skips when it can; RunCycles must not.
			e.domains[0].tick()
			return 1
		}
		var never bool
		n, _ := e.runSolo(&never, nil, 1, 1)
		return n
	case e.fast && len(e.domains) == 2:
		return e.eventStepPair()
	case e.fast:
		return e.eventStepFast()
	default:
		return e.eventStepGeneral()
	}
}

// eventStepPair is the two-domain integer-ratio event step: a pair needs no
// heap, just one compare, mirroring the lockstep inline path — but idleness
// is the generalised kind (bounded compute windows included, any ratio),
// dispatched through the shared pair skip pass.
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
			return e.pairSkip(d0, d1, k0, k1)
		}
	}
	e.due = append(e.due[:0], d0, d1)
	e.deliverPair(d0, d1)
	return 1
}

// pairSolo delivers an edge due on one domain of a pair, or enters the skip
// pass when the due domain is idle.
func (e *Engine) pairSolo(due, other *Domain) int64 {
	if e.noSkip == 0 {
		if k := due.IdleEdges(); k > 0 {
			return e.pairSkip(due, other, k, other.IdleEdges())
		}
	}
	e.due = append(e.due[:0], due)
	due.tick()
	return 1
}

// deliverPair runs a coincident super-edge on two domains in creation
// order: all Evals before any Update.
func (e *Engine) deliverPair(d0, d1 *Domain) {
	if d1.order < d0.order {
		d0, d1 = d1, d0
	}
	for _, t := range d0.tickers {
		t.Eval()
	}
	for _, t := range d1.tickers {
		t.Eval()
	}
	for _, t := range d0.tickers {
		t.Update()
	}
	d0.cycles++
	d0.nextAt += d0.ratio
	for _, t := range d1.tickers {
		t.Update()
	}
	d1.cycles++
	d1.nextAt += d1.ratio
}

// pairSkip is the two-domain wake-horizon pass: T is the earlier of the two
// domains' first non-inert edges; edges at ticks <= T of a domain still
// inert there are consumed in bulk, and domains waking exactly at T get a
// delivered edge. A skipped edge coincident with T is sound to drop
// silently: its Eval would run before any Update at T commits, so it
// observes exactly the state that made it inert.
func (e *Engine) pairSkip(a, b *Domain, ka, kb int64) int64 {
	wa, wb := a.wakeFrom(ka), b.wakeFrom(kb)
	T := wa
	if wb < T {
		T = wb
	}
	if T == math.MaxInt64 {
		// Both idle until input neither will produce: deliver the earliest
		// (no-op) super-edge so run budgets advance, exactly as lockstep.
		if a.nextAt < b.nextAt {
			e.due = append(e.due[:0], a)
			a.tick()
		} else if b.nextAt < a.nextAt {
			e.due = append(e.due[:0], b)
			b.tick()
		} else {
			e.due = append(e.due[:0], a, b)
			e.deliverPair(a, b)
		}
		return 1
	}
	consumed := int64(1)
	var dela, delb bool
	if a.nextAt <= T {
		if wa == T {
			if s := spanEdges(a, T); s > 0 {
				a.skipEdges(s)
				if s+1 > consumed {
					consumed = s + 1
				}
			}
			dela = true
		} else {
			s := spanEdges(a, T) + 1
			a.skipEdges(s)
			if s > consumed {
				consumed = s
			}
		}
	}
	if b.nextAt <= T {
		if wb == T {
			if s := spanEdges(b, T); s > 0 {
				b.skipEdges(s)
				if s+1 > consumed {
					consumed = s + 1
				}
			}
			delb = true
		} else {
			s := spanEdges(b, T) + 1
			b.skipEdges(s)
			if s > consumed {
				consumed = s
			}
		}
	}
	switch {
	case dela && delb:
		e.due = append(e.due[:0], a, b)
		e.deliverPair(a, b)
	case dela:
		e.due = append(e.due[:0], a)
		a.tick()
	default:
		e.due = append(e.due[:0], b)
		b.tick()
	}
	return consumed
}

// eventStepFast is the n >= 3 integer-ratio event step. The heap yields the
// due set in creation order in O(due · log n); the skip pass, taken only
// when a due domain is idle, scans all domains once for the wake horizon.
func (e *Engine) eventStepFast() int64 {
	t0 := e.eheap[0].nextAt
	due := e.due[:0]
	for len(e.eheap) > 0 && e.eheap[0].nextAt == t0 {
		due = append(due, e.heapPop())
	}
	e.due = due
	if e.noSkip == 0 {
		for _, d := range due {
			if d.IdleEdges() > 0 {
				// The popped due set is re-derived from e.domains and the
				// heap rebuilt wholesale by the skip pass.
				return e.eventSkipFast()
			}
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Eval()
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Update()
		}
		d.cycles++
		d.nextAt += d.ratio
	}
	for _, d := range due {
		e.heapPush(d)
	}
	return 1
}

// eventSkipFast advances an n >= 3 engine to the wake horizon T: the
// earliest tick at which any domain has a non-inert edge. Idle domains
// consume all their (provably no-op) edges at ticks <= T in bulk; domains
// whose first non-inert edge lands exactly on T are delivered a normal
// super-edge there.
func (e *Engine) eventSkipFast() int64 {
	T := int64(math.MaxInt64)
	for _, d := range e.domains {
		d.wake = d.wakeAt()
		if d.wake < T {
			T = d.wake
		}
	}
	if T == math.MaxInt64 {
		// Every domain is idle until input that no domain will produce:
		// deliver the earliest (no-op) super-edge so run budgets advance.
		t0 := e.domains[0].nextAt
		for _, d := range e.domains[1:] {
			if d.nextAt < t0 {
				t0 = d.nextAt
			}
		}
		T = t0
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
				if s+1 > consumed {
					consumed = s + 1
				}
			}
			due = append(due, d)
		} else {
			s := spanEdges(d, T) + 1
			d.skipEdges(s)
			if s > consumed {
				consumed = s
			}
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Eval()
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Update()
		}
		d.cycles++
		d.nextAt += d.ratio
	}
	e.due = due
	e.heapInit()
	return consumed
}

// maxBoundedIdle caps bounded idle windows in the rational (non-integer
// ratio) mode so wake-time cross-multiplications cannot overflow int64.
// Skipping fewer edges than a component advertises is always sound — the
// next step simply skips again — so the cap costs only a little speed on
// absurdly long countdowns.
const maxBoundedIdle = int64(1) << 31

// eventStepGeneral is the event step for engines whose frequencies have
// non-integer ratios: next-edge times are the rationals (cycles+1)/freqHz,
// compared by cross-multiplication exactly like the lockstep fallback.
func (e *Engine) eventStepGeneral() int64 {
	earliest := e.domains[0]
	for _, d := range e.domains[1:] {
		if edgeBefore(d, earliest) {
			earliest = d
		}
	}
	if e.noSkip == 0 {
		for _, d := range e.domains {
			if (d == earliest || edgeCoincident(d, earliest)) && d.IdleEdges() > 0 {
				return e.eventSkipGeneral()
			}
		}
	}
	due := e.due[:0]
	for _, d := range e.domains {
		if d == earliest || edgeCoincident(d, earliest) {
			due = append(due, d)
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Eval()
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Update()
		}
		d.cycles++
		d.nextAt += d.ratio
	}
	e.due = due
	return 1
}

// eventSkipGeneral is the rational-time bulk-skip: the wake horizon T is
// the minimum of the per-domain rationals (cycles+1+idle)/freqHz, and a
// domain's edge count up to T is floor(Tnum·freq/Tden) — inside the same
// cross-multiplication bound the comparisons rely on.
func (e *Engine) eventSkipGeneral() int64 {
	var tn, td int64
	haveT := false
	for _, d := range e.domains {
		k := d.IdleEdges()
		if k >= IdleForever {
			d.wake = -1 // idle until input: no wake edge of its own
			continue
		}
		if k > maxBoundedIdle {
			k = maxBoundedIdle
		}
		d.wake = d.cycles + 1 + k
		if !haveT || d.wake*td < tn*d.freqHz {
			tn, td = d.wake, d.freqHz
			haveT = true
		}
	}
	if !haveT {
		// Everything idle until input: deliver the earliest no-op edge.
		earliest := e.domains[0]
		for _, d := range e.domains[1:] {
			if edgeBefore(d, earliest) {
				earliest = d
			}
		}
		tn, td = earliest.cycles+1, earliest.freqHz
		for _, d := range e.domains {
			d.wake = d.cycles + 1
		}
	}
	consumed := int64(1)
	due := e.due[:0]
	for _, d := range e.domains { // creation order
		// Edges of d at times <= T, minus those already delivered.
		r := tn*d.freqHz/td - d.cycles
		if r <= 0 {
			continue
		}
		if d.wake >= 0 && d.wake*td == tn*d.freqHz {
			if r-1 > 0 {
				d.skipEdges(r - 1)
			}
			if r > consumed {
				consumed = r
			}
			due = append(due, d)
		} else {
			d.skipEdges(r)
			if r > consumed {
				consumed = r
			}
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Eval()
		}
	}
	for _, d := range due {
		for _, t := range d.tickers {
			t.Update()
		}
		d.cycles++
		d.nextAt += d.ratio
	}
	e.due = due
	return consumed
}
