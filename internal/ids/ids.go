// Package ids defines the identifier types shared by every layer of the
// NewTop reproduction: processes, groups, group views, per-sender message
// identifiers and client call identifiers.
//
// All identifier types are comparable values so they can be used directly
// as map keys, and all ordered types define a total order used by the
// deterministic parts of the protocols (coordinator election, sequencer
// election, symmetric ordering tie-breaks).
package ids

import (
	"fmt"
	"strings"
)

// ProcessID uniquely names a process (a NewTop service object endpoint) in
// the system. The string form is "site/name" by convention, but any
// non-empty string is valid; ordering is plain lexicographic ordering.
type ProcessID string

// GroupID names a group. Groups are created and joined by name.
type GroupID string

// ViewSeq numbers the successive views of one group; the first installed
// view of a group has sequence 1.
type ViewSeq uint64

// MsgID identifies an application or control multicast uniquely within a
// group: the sending process plus that sender's per-group sequence number.
type MsgID struct {
	Sender ProcessID
	Seq    uint64
}

// CallID identifies a client invocation for duplicate suppression across
// retries: the invoking client plus a client-local call number.
type CallID struct {
	Client ProcessID
	Number uint64
}

// Nil reports whether the process identifier is empty.
func (p ProcessID) Nil() bool { return p == "" }

// Site returns the site component of a "site/name" process identifier, or
// the empty string when the identifier has no site prefix.
func (p ProcessID) Site() string {
	if i := strings.IndexByte(string(p), '/'); i >= 0 {
		return string(p[:i])
	}
	return ""
}

// Less reports whether p sorts before q in the canonical process order used
// for coordinator and sequencer election.
func (p ProcessID) Less(q ProcessID) bool { return p < q }

// String implements fmt.Stringer.
//
//lint:ok unlinked the fmt.Stringer gcs's tests and DebugDump print message IDs with
func (m MsgID) String() string { return fmt.Sprintf("%s#%d", m.Sender, m.Seq) }

// String implements fmt.Stringer.
func (c CallID) String() string { return fmt.Sprintf("%s!%d", c.Client, c.Number) }

// MinProcess returns the smallest identifier of a non-empty slice, which is
// the deterministic coordinator/sequencer choice for a view. It returns the
// empty ProcessID for an empty slice.
func MinProcess(ps []ProcessID) ProcessID {
	var min ProcessID
	for i, p := range ps {
		if i == 0 || p.Less(min) {
			min = p
		}
	}
	return min
}

// SortProcesses sorts the slice in place in canonical order and removes
// duplicates, returning the (possibly shorter) slice.
func SortProcesses(ps []ProcessID) []ProcessID {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Less(ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// ContainsProcess reports whether p appears in ps.
func ContainsProcess(ps []ProcessID, p ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// Majority returns the minimum number of members that constitutes a strict
// majority of n members (for n <= 0 it returns 1, the smallest meaningful
// quorum, so callers never wait for zero replies).
func Majority(n int) int {
	if n <= 0 {
		return 1
	}
	return n/2 + 1
}
