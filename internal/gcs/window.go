package gcs

import "newtop/internal/seqring"

// The sequence window (seqring.Ring): the one structure behind the
// retained-message store, the pending set, the out-of-order stash and the
// sequencer's ordering table — all contiguous per-sender sequence ranges, so
// a message's state is where its slot sits relative to the cursors
// (DESIGN.md §10).

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
	seqring.Ring[seqSlot]
	rel uint64
}

func (w *seqWindow) reset() {
	w.Ring.Reset()
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
	seqring.Ring[msgRef]
	live int // occupied slot count: the group's live ordering decisions
}

func (r *globalRing) reset() {
	r.Ring.Reset()
	r.live = 0
}

// set records global -> ref; a global at or below the floor was stable
// before the decision arrived again.
func (r *globalRing) set(global uint64, ref msgRef) {
	if global <= r.Floor() {
		return
	}
	e := r.Ensure(global)
	if e.seq == 0 {
		r.live++
	}
	*e = ref
}

// del frees the slot of a garbage-collected ordering decision.
func (r *globalRing) del(global uint64) {
	if e := r.At(global); e != nil && e.seq != 0 {
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
	for r.Floor() < delivered && (r.Span() > 0 || r.FarLen() > 0) && r.Get(r.Floor()+1).seq == 0 {
		r.PopFront()
	}
}
