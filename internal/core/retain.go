package core

import (
	"time"

	"newtop/internal/ids"
	"newtop/internal/seqring"
)

// Exactly-once across retries (paper §4.1) rests on what a server retains
// per client, in a window indexed by call number (clientLog). Every request
// carries its client's floor: the lowest of its call numbers it may still
// retry. The server keeps each call at or above the floor — the reply this
// member executed, and, as request manager, the collection that gathered the
// call's reply set — and drops it once the floor passes it. A request below
// the floor that finds no entry is a stale retry: it is refused with an
// error, never executed. Retention is thereby bounded by what clients still
// have outstanding, not by a count, and no load can make a server forget a
// call it may still be asked again.
//
// Only requests delivered in the server group's order raise a floor, so
// every replica drops, and refuses, the same calls at the same point in the
// order. A client's floor passes call N only once N's request is ordered:
// its answer says so, for a call answered from the order (collected,
// closed) and for one a primary answered first (rmPrimary), which relays a
// call into the order before it runs it and answers; for one that ended
// unanswered, a later answer through the same request manager does
// (engine.unsure). And it never passes the call of the request that
// carries it.

// clientLog is what a server retains for one client.
type clientLog struct {
	// win holds the calls at or above the floor, which is win.Floor()+1.
	win seqring.Ring[retained]
	// named holds the calls whose numbers carry no floor: caller-chosen,
	// group-to-group (WithCallID). A client group's members share each
	// number and nothing orders them, so there is no floor to keep them
	// by; they are retained by count instead (DESIGN.md §5).
	named *bounded[uint64, *retained]
	// seen is the highest call number delivered here in order: what a
	// forgotten client's floor becomes (forgetLocked).
	seen uint64
	// closed marks a closed-bound client, a member of the server group: its
	// calls are forgotten when it leaves the group's view.
	closed bool
}

// retained is one call's entry in its client's log.
type retained struct {
	rep  invReply    // this replica's reply, once executed (rep.Server set)
	coll *collection // this member's collection, as request manager
	dup  bool        // a monitor group's copy was served: later copies are duplicates (§4.3)
}

// namedCap bounds the calls retained for a client whose numbers carry no
// floor.
const namedCap = 4096

// staleErr is the error a stale retry is refused with.
const staleErr = "stale retry: the call is below its client's floor and is not retained"

// logLocked returns client's log, creating it (mu held).
func (srv *Server) logLocked(client ids.ProcessID) *clientLog {
	l := srv.clients[client]
	if l == nil {
		l = &clientLog{} // once per client process served
		srv.clients[client] = l
	}
	return l
}

// findLocked returns call's entry, nil if there is none (mu held).
func (srv *Server) findLocked(call ids.CallID) *retained {
	l := srv.clients[call.Client]
	if l == nil {
		return nil
	}
	if e := l.win.At(call.Number); e != nil {
		return e
	}
	if l.named != nil {
		e, _ := l.named.get(call.Number)
		return e
	}
	return nil
}

// entryLocked returns the entry of a call whose request carried floor,
// creating it — unless the call is stale: below its client's floor, with no
// entry (mu held). The pointer is good until the log's next change.
func (srv *Server) entryLocked(call ids.CallID, floor uint64) (e *retained, stale bool) {
	l := srv.logLocked(call.Client)
	if floor == 0 {
		if l.named == nil {
			l.named = newBounded[uint64, *retained](namedCap) // once per group-to-group client
		}
		if e, ok := l.named.get(call.Number); ok {
			return e, false
		}
		e = new(retained) // group-to-group calls are retained by count, one entry each
		if old, evicted := l.named.put(call.Number, e); evicted {
			srv.dropEntry(0, old)
		}
		return e, false
	}
	if call.Number <= l.win.Floor() {
		return nil, true
	}
	return l.win.Ensure(call.Number), false
}

// orderLocked applies what a request delivered in the server group's order
// says about its client: the floor it carries, and that it was seen (mu
// held, and execMu: every replica must apply it at the same point).
func (srv *Server) orderLocked(req *invRequest) {
	l := srv.logLocked(req.Call.Client)
	if req.Call.Number > l.seen {
		l.seen = req.Call.Number
	}
	if req.Style == Closed && !req.Forwarded {
		l.closed = true
	}
	// A floor never passes its own request's call — a client sends no such
	// request (ErrStaleRetry) — so no request can refuse itself.
	if f := min(req.Floor, req.Call.Number); f > l.win.Floor()+1 {
		l.win.Advance(f-1, srv.dropEntry)
	}
}

// dropEntry releases what a dropped entry held: its collection goes back
// to the free list (mu held).
func (srv *Server) dropEntry(_ uint64, e *retained) {
	if c := e.coll; c != nil {
		c.dropped = true
		if c.pins == 0 {
			srv.free = append(srv.free, c) // the free list grows to the most collections ever retained at once, then is reused
		}
	}
}

// forgetLocked drops everything a client's log retains below what this
// member has delivered of it in order, keeping the log as a tombstone whose
// floor refuses any later copy of those calls (execMu and mu held). Calls
// above it are still in flight — gathering here, or executed first by this
// primary and awaiting their relay — and stay until their client's floor,
// or the next forget, passes them.
func (srv *Server) forgetLocked(l *clientLog) {
	if l.seen > l.win.Floor() {
		l.win.Advance(l.seen, srv.dropEntry)
	}
	l.win.Trim()
	l.closed = false
}

// forget handles a delivered forget notice (execMu and mu in order, as an
// execution takes them).
func (srv *Server) forget(client ids.ProcessID) {
	srv.execMu.Lock()
	srv.mu.Lock()
	if l := srv.clients[client]; l != nil {
		srv.forgetLocked(l)
	}
	srv.mu.Unlock()
	srv.execMu.Unlock()
}

// newCollectionLocked returns a collection for call, gathering: one the
// floor has freed, or a fresh one (mu held). It is pinned, and filed among
// the open collections, until its conclusion has sent the answer.
func (srv *Server) newCollectionLocked(call ids.CallID, mode ReplyMode) *collection {
	var c *collection
	if n := len(srv.free); n > 0 {
		c = srv.free[n-1]
		srv.free[n-1] = nil
		srv.free = srv.free[:n-1]
	} else {
		c = new(collection) // one per call retained at once; reused once its client's floor passes it
	}
	c.dropped, c.answered, c.pins = false, false, 1
	c.set = invReplySet{}
	c.mu.Lock()
	clear(c.inline[:])
	c.call, c.mode, c.settled = call, mode, false
	c.replies = c.inline[:0]
	c.mu.Unlock()
	c.openIdx = len(srv.open)
	srv.open = append(srv.open, c) // the open list grows to the most calls ever gathered at once, then is reused
	return c
}

// unpinLocked releases one pin on c; the last one frees it if the floor has
// already dropped it (mu held).
func (srv *Server) unpinLocked(c *collection) {
	c.pins--
	if c.pins == 0 && c.dropped {
		srv.free = append(srv.free, c)
	}
}

// closeLocked takes a concluded collection out of the open ones and marks
// it answered: from here on a retry is answered from its set (mu held).
func (srv *Server) closeLocked(c *collection) {
	last := len(srv.open) - 1
	srv.open[c.openIdx] = srv.open[last]
	srv.open[c.openIdx].openIdx = c.openIdx
	srv.open[last] = nil
	srv.open = srv.open[:last]
	c.answered = true
}

// openCalls returns the open collections with the calls they gather, for a
// cold path (a view change, the deadline sweep) to settle outside mu.
func (srv *Server) openCalls() []gathering {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]gathering, 0, len(srv.open))
	for _, c := range srv.open {
		out = append(out, gathering{c, c.call, c.start})
	}
	return out
}

// gathering is an open collection as a cold path sees it: the call it was
// gathering when listed, which settle checks, since a collection is reused
// once concluded and dropped.
type gathering struct {
	c     *collection
	call  ids.CallID
	start time.Time
}
