// Package seqring is the dense window over a sequence space consumed from
// the front: the one structure behind gcs's per-sender sequence windows and
// ordering table, and behind the invocation layer's per-client reply
// windows and its clients' outstanding call numbers. An entry's state is
// where its slot sits relative to the floor; nothing is hashed.
package seqring

// Ring is a dense window over a sequence space consumed from the front:
// the entry for seq sits at offset seq-floor-1 of a power-of-two circular
// buffer whose capacity survives pops and resets. The dense span is bounded
// by MaxSpan; an entry named further ahead (a corrupt or hostile frame, a
// backlog beyond any sane window) waits in the cold far map, so no input
// forces unbounded growth and no entry is dropped. The zero value is empty;
// pointers from At/Ensure are invalidated by the next Ensure. Not safe for
// concurrent use: each user guards it with the lock it already holds.
type Ring[T any] struct {
	floor uint64 // every sequence number ≤ floor is gone; the front is floor+1
	head  int    // index of the front slot in slots
	n     int    // dense span: slots cover (floor, floor+n]
	slots []T
	far   map[uint64]*T // entries beyond the dense span; never overlaps it
}

// MaxSpan bounds a ring's dense span (1.5 MB of gcs window slots at most).
const MaxSpan = 1 << 16

// Floor is the highest sequence number gone: the front is Floor()+1.
func (r *Ring[T]) Floor() uint64 { return r.floor }

// Span is the dense span: the slots cover (Floor, Floor+Span].
func (r *Ring[T]) Span() int { return r.n }

// FarLen is how many entries wait beyond the dense span.
func (r *Ring[T]) FarLen() int { return len(r.far) }

// Cap is the dense buffer's capacity in slots.
//
//lint:ok unlinked gcs's order-table and window guards (ci.sh runs them by name) read the windows' capacity through it
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Reset empties the ring and returns its floor to zero, keeping its
// capacity.
func (r *Ring[T]) Reset() {
	clear(r.slots)
	r.floor, r.head, r.n, r.far = 0, 0, 0, nil
}

// At returns the entry for seq, or nil when the ring holds none (collected,
// or never named). An entry inside the dense span may be the zero value.
func (r *Ring[T]) At(seq uint64) *T {
	if off := seq - r.floor - 1; off < uint64(r.n) { // seq ≤ floor wraps past n
		return &r.slots[(r.head+int(off))&(len(r.slots)-1)]
	}
	return r.far[seq] // holds no key at or below the floor
}

// Get returns the entry for seq by value, zero when there is none.
func (r *Ring[T]) Get(seq uint64) (e T) {
	if p := r.At(seq); p != nil {
		e = *p
	}
	return e
}

// Ensure returns the entry for seq > floor, creating it if need be.
func (r *Ring[T]) Ensure(seq uint64) *T {
	off := seq - r.floor - 1
	if off >= uint64(r.n) {
		if off >= MaxSpan {
			if r.far == nil {
				r.far = make(map[uint64]*T)
			}
			if r.far[seq] == nil {
				r.far[seq] = new(T)
			}
			return r.far[seq]
		}
		r.grow(int(off) + 1)
	}
	return &r.slots[(r.head+int(off))&(len(r.slots)-1)]
}

// grow extends the dense span to n slots, doubling the buffer when it is
// full and pulling in the far entries the span now covers.
func (r *Ring[T]) grow(n int) {
	if n > len(r.slots) {
		c := 16
		for c < n {
			c *= 2
		}
		s := make([]T, c)
		for i := 0; i < r.n; i++ {
			s[i] = r.slots[(r.head+i)&(len(r.slots)-1)]
		}
		r.slots, r.head = s, 0
	}
	// Pull in the spilled entries the span now covers, walking whichever
	// is shorter: the new slots, or the spill.
	lo, hi := r.floor+1+uint64(r.n), r.floor+uint64(n)
	if len(r.far) < n-r.n {
		for seq, p := range r.far {
			if seq >= lo && seq <= hi {
				r.slots[(r.head+int(seq-r.floor-1))&(len(r.slots)-1)] = *p
				delete(r.far, seq)
			}
		}
	} else {
		for seq := lo; seq <= hi && len(r.far) > 0; seq++ {
			if p, ok := r.far[seq]; ok {
				r.slots[(r.head+int(seq-r.floor-1))&(len(r.slots)-1)] = *p
				delete(r.far, seq)
			}
		}
	}
	r.n = n
}

// PopFront discards the front entry and raises the floor.
func (r *Ring[T]) PopFront() {
	r.floor++
	if r.n > 0 {
		clear(r.slots[r.head : r.head+1])
		r.head = (r.head + 1) & (len(r.slots) - 1)
		r.n--
	} else if len(r.far) > 0 {
		delete(r.far, r.floor)
	}
}

// Advance raises the floor to floor, handing every entry it discards to
// drop first (nil drops silently). The dense span is popped entry by entry;
// past it the floor jumps, so a floor named far ahead costs what the ring
// holds, not the distance. The spilled entries the jump brings within the
// dense bound move back into the dense span, so that the floor's next
// steps pop them one by one: a floor creeping through a large spill walks
// the spill once per dense span, not once per step.
func (r *Ring[T]) Advance(floor uint64, drop func(seq uint64, e *T)) {
	for r.floor < floor && r.n > 0 {
		if drop != nil {
			drop(r.floor+1, &r.slots[r.head])
		}
		r.PopFront()
	}
	if r.floor >= floor {
		return
	}
	reach := floor
	for seq, e := range r.far {
		switch {
		case seq <= floor:
			if drop != nil {
				drop(seq, e)
			}
			delete(r.far, seq)
		case seq-floor <= MaxSpan && seq > reach:
			reach = seq
		}
	}
	r.floor = floor
	if reach > floor {
		r.grow(int(reach - floor))
	}
}

// Trim releases the dense buffer of an empty ring; its floor stays.
func (r *Ring[T]) Trim() {
	if r.n == 0 {
		r.slots, r.head = nil, 0
	}
}

// Each visits every entry (cold paths only): the dense span in ascending
// order, then the far entries in no particular order.
func (r *Ring[T]) Each(fn func(seq uint64, e *T)) {
	for i := 0; i < r.n; i++ {
		fn(r.floor+1+uint64(i), &r.slots[(r.head+i)&(len(r.slots)-1)])
	}
	for seq, e := range r.far {
		fn(seq, e)
	}
}
