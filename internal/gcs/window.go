package gcs

// The sequence window: the one structure behind the retained-message
// store, the pending set, the out-of-order stash and the sequencer's
// ordering table — all contiguous per-sender sequence ranges, so a message's
// state is where its slot sits relative to the cursors (DESIGN.md §10).

// ring is a dense window over a sequence space consumed from the front:
// the entry for seq sits at offset seq-floor-1 of a power-of-two circular
// buffer whose capacity survives pops and resets. The dense span is bounded
// by maxSpan; an entry named further ahead (a corrupt or hostile frame, a
// backlog beyond any sane window) waits in the cold far map, so no input
// forces unbounded growth and no entry is dropped. The zero value is empty;
// pointers from at/ensure are invalidated by the next ensure.
type ring[T any] struct {
	floor uint64 // every sequence number ≤ floor is gone; the front is floor+1
	head  int    // index of the front slot in slots
	n     int    // dense span: slots cover (floor, floor+n]
	slots []T
	far   map[uint64]*T // entries beyond the dense span; never overlaps it
}

// maxSpan bounds a ring's dense span (1.5 MB of window slots at most).
const maxSpan = 1 << 16

// reset empties the ring, keeping its capacity.
func (r *ring[T]) reset() {
	clear(r.slots)
	r.floor, r.head, r.n, r.far = 0, 0, 0, nil
}

// at returns the entry for seq, or nil when the ring holds none (collected,
// or never named). An entry inside the dense span may be the zero value.
func (r *ring[T]) at(seq uint64) *T {
	if off := seq - r.floor - 1; off < uint64(r.n) { // seq ≤ floor wraps past n
		return &r.slots[(r.head+int(off))&(len(r.slots)-1)]
	}
	return r.far[seq] // holds no key at or below the floor
}

// get returns the entry for seq by value, zero when there is none.
func (r *ring[T]) get(seq uint64) (e T) {
	if p := r.at(seq); p != nil {
		e = *p
	}
	return e
}

// ensure returns the entry for seq > floor, creating it if need be.
func (r *ring[T]) ensure(seq uint64) *T {
	off := seq - r.floor - 1
	if off >= uint64(r.n) {
		if off >= maxSpan {
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
func (r *ring[T]) grow(n int) {
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
	for i := r.n; i < n && len(r.far) > 0; i++ {
		seq := r.floor + 1 + uint64(i)
		if p, ok := r.far[seq]; ok {
			r.slots[(r.head+i)&(len(r.slots)-1)] = *p
			delete(r.far, seq)
		}
	}
	r.n = n
}

// popFront discards the front entry and raises the floor.
func (r *ring[T]) popFront() {
	r.floor++
	if r.n > 0 {
		clear(r.slots[r.head : r.head+1])
		r.head = (r.head + 1) & (len(r.slots) - 1)
		r.n--
	} else if len(r.far) > 0 {
		delete(r.far, r.floor)
	}
}

// each visits every entry (cold paths only): the dense span in ascending
// order, then the far entries in no particular order.
func (r *ring[T]) each(fn func(seq uint64, e *T)) {
	for i := 0; i < r.n; i++ {
		fn(r.floor+1+uint64(i), &r.slots[(r.head+i)&(len(r.slots)-1)])
	}
	for seq, e := range r.far {
		fn(seq, e)
	}
}

// seqSlot is the state of one of a sender's sequence numbers.
type seqSlot struct {
	m      *dataMsg // the message, from arrival until release
	global uint64   // sequencer order: its global position (0 = undecided)
	aseq   uint64   // sequencer leader only: own seq that first announced the decision (0 = not yet)
}

// seqWindow is one member position's window of slots. rel splits the
// two-stage release: every message ≤ rel is released, every slot ≤ floor
// is gone (rel > floor only at the sequencer leader, which holds a
// decision until its announcement is stable).
type seqWindow struct {
	ring[seqSlot]
	rel uint64
}

func (w *seqWindow) reset() {
	w.ring.reset()
	w.rel = 0
}

// msgRef names a message by member position and sequence number (pointer-
// free); the zero value marks a free slot, sequence numbers start at 1.
type msgRef struct {
	pos int
	seq uint64
}

// globalRing maps global sequence numbers back to messages (the sequencer's
// delivery check is a single slot load). Globals are handed out densely
// from 1, delivered in order and collected from the bottom.
type globalRing struct {
	ring[msgRef]
	live int // occupied slot count: the group's live ordering decisions
}

func (r *globalRing) reset() {
	r.ring.reset()
	r.live = 0
}

// set records global -> ref; a global at or below the floor was stable
// before the decision arrived again.
func (r *globalRing) set(global uint64, ref msgRef) {
	if global <= r.floor {
		return
	}
	e := r.ensure(global)
	if e.seq == 0 {
		r.live++
	}
	*e = ref
}

// del frees the slot of a garbage-collected ordering decision.
func (r *globalRing) del(global uint64) {
	if e := r.at(global); e != nil && e.seq != 0 {
		*e = msgRef{}
		r.live--
	}
}

// compact slides the window past freed bottom slots, but never past a
// global that has not been delivered: an empty slot above the delivery
// point is a decision still in flight (announcements merge at accept time,
// so a stashed leader message can fill later slots while an earlier
// announcement awaits its resend) and set() would discard it on arrival.
// At or below the delivery point only collection can have emptied a slot.
func (r *globalRing) compact(delivered uint64) {
	for r.floor < delivered && (r.n > 0 || len(r.far) > 0) && r.get(r.floor+1).seq == 0 {
		r.popFront()
	}
}
