package gcs

import (
	"slices"

	"newtop/internal/ids"
)

// This file holds the hot-path data structures behind the ordering
// machinery: the per-view member index that turns process identifiers
// into dense array positions, and the stamp-ordered min-heap the delivery
// loop pops from (window.go holds the sequence windows and the ring).
//
// Views are identified by (Seq, Installer) and carry a sorted membership,
// so every member of a view derives the *same* index; that is what makes
// position-keyed vector clocks and acknowledgement vectors meaningful on
// the wire (message.go encodes them as bare count sequences in member
// order, no keys).

// memberIndex is the stable position table of one installed view.
type memberIndex struct {
	members []ids.ProcessID // the view's sorted membership
	me      int             // the local member's position (-1 while joining)
}

func buildMemberIndex(members []ids.ProcessID, me ids.ProcessID) *memberIndex {
	idx := &memberIndex{members: members}
	idx.me = idx.posOf(me)
	return idx
}

// n returns the view size.
func (idx *memberIndex) n() int { return len(idx.members) }

// posOf returns the dense position of p, or -1 when p is not a member: a
// binary search of the sorted membership.
func (idx *memberIndex) posOf(p ids.ProcessID) int {
	if i, ok := slices.BinarySearch(idx.members, p); ok {
		return i
	}
	return -1
}

// stampHeap is a min-heap of data messages keyed by (Lamport time,
// sender) — the same strict total order the symmetric protocol delivers
// in. Hand-rolled rather than container/heap so pushes and pops stay
// free of interface boxing.
type stampHeap struct {
	ms []*dataMsg
}

func (h *stampHeap) len() int { return len(h.ms) }

func (h *stampHeap) reset() {
	clear(h.ms) // release old-view messages for GC
	h.ms = h.ms[:0]
}

func (h *stampHeap) push(m *dataMsg) {
	h.ms = append(h.ms, m)
	i := len(h.ms) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ms[i].stamp().Less(h.ms[parent].stamp()) {
			break
		}
		h.ms[i], h.ms[parent] = h.ms[parent], h.ms[i]
		i = parent
	}
}

func (h *stampHeap) pop() *dataMsg {
	top := h.ms[0]
	last := len(h.ms) - 1
	h.ms[0] = h.ms[last]
	h.ms[last] = nil // release the reference for GC
	h.ms = h.ms[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *stampHeap) siftDown(i int) {
	n := len(h.ms)
	for {
		left, right := 2*i+1, 2*i+2
		small := i
		if left < n && h.ms[left].stamp().Less(h.ms[small].stamp()) {
			small = left
		}
		if right < n && h.ms[right].stamp().Less(h.ms[small].stamp()) {
			small = right
		}
		if small == i {
			return
		}
		h.ms[i], h.ms[small] = h.ms[small], h.ms[i]
		i = small
	}
}
