// Package vclock provides the Lamport clocks and stamps used by the group
// communication service's symmetric (decentralised) total-order protocol
// and by the invocation layer's session and applied stamps. Causal order
// does not use this package: gcs carries each message's causal context as
// a vector keyed by member position in the view (dataMsg.VC).
//
// A node shares one Lamport clock across every group it belongs to; that is
// what makes the symmetric total order causality-preserving even for
// multi-group (overlapping-group) objects, per fig. 7 of the paper.
package vclock

import (
	"fmt"
	"sync"

	"newtop/internal/ids"
)

// Stamp is a Lamport timestamp extended with the sender identity so that
// the happens-before partial order extends to a strict total order:
// (t1, p1) < (t2, p2) iff t1 < t2, or t1 == t2 and p1 < p2.
type Stamp struct {
	Time   uint64
	Sender ids.ProcessID
}

// Less reports whether s precedes o in the total order.
func (s Stamp) Less(o Stamp) bool {
	if s.Time != o.Time {
		return s.Time < o.Time
	}
	return s.Sender.Less(o.Sender)
}

// String implements fmt.Stringer.
func (s Stamp) String() string { return fmt.Sprintf("(%d,%s)", s.Time, s.Sender) }

// Lamport is a thread-safe Lamport clock. One instance is shared by all
// groups of a node.
type Lamport struct {
	mu   sync.Mutex
	time uint64
}

// NewLamport returns a clock starting at zero.
func NewLamport() *Lamport { return &Lamport{} }

// Next advances the clock for a send event and returns the new time.
func (l *Lamport) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.time++
	return l.time
}

// Witness records an observed remote time (a receive event), advancing the
// local clock past it, and returns the new local time.
func (l *Lamport) Witness(remote uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if remote > l.time {
		l.time = remote
	}
	l.time++
	return l.time
}
