package flight

import (
	"slices"
	"sort"
	"sync/atomic"
	_ "unsafe" // go:linkname
)

// procPin pins the calling goroutine to its P until procUnpin, so nothing
// else runs there meanwhile, and returns the P's id. sync.Pool links the
// same runtime pair.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// slot is one ring entry. All words are atomics so concurrent record and
// snapshot race cleanly; seq is the event's journal seq.
type slot struct {
	seq  atomic.Uint64
	at   atomic.Int64
	meta atomic.Uint64 // Type | Proc<<8 | Group<<24 | uint16(Sender)<<40
	view atomic.Uint64
	msg  atomic.Uint64
	a    atomic.Uint64
	b    atomic.Uint64
}

// segment is one share of the ring. Its writer is exclusive — the P that
// owns it, pinned for one event, or the holder of the recorder's shared
// mutex — so its events are in seq order: event j (the j-th it holds)
// lives in slot j&mask until event j+len(slots) overwrites it. head counts
// the events published. A writer stores the seq first and moves head
// last, so only the slot of event head can be half written. The padding
// keeps two segments' headers off one cache line.
type segment struct {
	head  atomic.Uint64
	mask  uint64
	slots []slot
	_     [88]byte
}

func newSegment(n int) *segment {
	s := new(segment)
	s.init(n)
	return s
}

func (s *segment) init(n int) {
	s.slots = make([]slot, n)
	s.mask = uint64(n - 1)
}

// put journals one event in the segment; the caller is its only writer.
func (s *segment) put(ctr *atomic.Uint64, at int64, e *Event) {
	j := s.head.Load()
	sl := &s.slots[j&s.mask]
	sl.seq.Store(ctr.Add(1))
	sl.at.Store(at)
	sl.meta.Store(uint64(e.Type) | uint64(e.Proc)<<8 | uint64(e.Group)<<24 | uint64(uint16(e.Sender))<<40)
	sl.view.Store(uint64(e.View))
	sl.msg.Store(e.MsgSeq)
	sl.a.Store(e.A)
	sl.b.Store(e.B)
	s.head.Store(j + 1)
}

// read copies the segment's events with cursor < seq <= hi, oldest first,
// hi having been read before the call. It copies from the newest event
// down, and a slot that shows a seq no lower than the event copied before
// it, or whose seq changes while it is copied, has been overwritten: it
// and everything older are gone. lost is then, or once the segment has
// wrapped, the seq just below the oldest event copied — at or above every
// event the segment overwrote — and 0 when the copy stopped at cursor or
// nothing was overwritten.
func (s *segment) read(cursor, hi uint64) (run []Event, lost uint64) {
	n := uint64(len(s.slots))
	h := s.head.Load()
	if h == 0 {
		return nil, 0
	}
	oldest := h - min(h, n)
	j := h
	for ; j > oldest; j-- {
		sl := &s.slots[(j-1)&s.mask]
		seq := sl.seq.Load()
		if seq <= cursor {
			return finish(run, hi), 0
		}
		if len(run) > 0 && seq >= run[len(run)-1].Seq {
			break
		}
		e := Event{
			Seq:    seq,
			At:     sl.at.Load(),
			View:   uint32(sl.view.Load()),
			MsgSeq: sl.msg.Load(),
			A:      sl.a.Load(),
			B:      sl.b.Load(),
		}
		meta := sl.meta.Load()
		e.Type = Type(meta & 0xff)
		e.Proc = uint16(meta >> 8)
		e.Group = uint16(meta >> 24)
		e.Sender = int16(uint16(meta >> 40))
		if sl.seq.Load() != seq {
			break
		}
		run = append(run, e)
	}
	switch {
	case s.head.Load() >= h-1+n || len(run) == 0:
		// Lapped while copied: not even the newest copy can be trusted.
		return nil, hi
	case j > oldest || oldest > 0:
		lost = run[len(run)-1].Seq - 1
	}
	return finish(run, hi), lost
}

// finish puts a run copied newest first in seq order, without the events
// published after hi was read.
func finish(run []Event, hi uint64) []Event {
	for len(run) > 0 && run[0].Seq > hi {
		run = run[1:]
	}
	slices.Reverse(run)
	return run
}

// Record journals one event, stamping it with the journal clock. It
// performs no allocation and, on its P's own segment, takes no lock; on a
// nil or disabled recorder it is a no-op.
func (r *Recorder) Record(e Event) {
	if r == nil || r.size == 0 {
		return
	}
	r.RecordAt(Now(), e)
}

// RecordAt journals one event stamped at, a journal timestamp (Now) the
// caller has already read: a recorder that times a stage with the clock
// reads it once for both. Like Record, it allocates nothing and is a
// no-op on a nil or disabled recorder.
func (r *Recorder) RecordAt(at int64, e Event) {
	if r == nil || r.size == 0 {
		return
	}
	if p := procPin(); p < len(r.own) {
		r.own[p].put(&r.ctr, at, &e)
		procUnpin()
		return
	}
	procUnpin()
	r.smu.Lock()
	s := r.shared.Load()
	if s == nil {
		s = newSegment(r.segCap) // GOMAXPROCS grew past the segments: once
		r.shared.Store(s)
	}
	s.put(&r.ctr, at, &e)
	r.smu.Unlock()
}

// Cursor returns the journal sequence of the most recently claimed event;
// pass it to Since to read only newer events.
func (r *Recorder) Cursor() uint64 {
	if r == nil {
		return 0
	}
	return r.ctr.Load()
}

// Since returns the events with journal seq > cursor, oldest first, and
// the number of requested events lost to the ring: a contiguous suffix of
// the journal, merged from the segments. Once any segment has overwritten
// an event, every seq below the oldest event that segment still holds
// counts as dropped and is not returned, so dropped == 0 means the window
// is complete. An event whose seq is taken but whose slot is not yet
// published is skipped; a slot being overwritten is never misread.
func (r *Recorder) Since(cursor uint64) (events []Event, dropped uint64) {
	if !r.Enabled() {
		return nil, 0
	}
	hi := r.ctr.Load()
	if cursor >= hi {
		return nil, 0
	}
	segs := make([]*segment, 0, len(r.own)+1)
	for i := range r.own {
		segs = append(segs, &r.own[i])
	}
	if s := r.shared.Load(); s != nil {
		segs = append(segs, s)
	}
	runs := make([][]Event, len(segs))
	floor := cursor
	for i, s := range segs {
		var lost uint64
		runs[i], lost = s.read(cursor, hi)
		floor = max(floor, min(lost, hi))
	}
	return merge(runs, floor), floor - cursor
}

// merge interleaves runs, each in seq order, into one run in seq order,
// leaving out every event at or below floor.
func merge(runs [][]Event, floor uint64) []Event {
	n := 0
	for i, run := range runs {
		runs[i] = run[sort.Search(len(run), func(k int) bool { return run[k].Seq > floor }):]
		n += len(runs[i])
	}
	out := make([]Event, 0, n)
	for len(out) < n {
		best := -1
		for i, run := range runs {
			if len(run) > 0 && (best < 0 || run[0].Seq < runs[best][0].Seq) {
				best = i
			}
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}
