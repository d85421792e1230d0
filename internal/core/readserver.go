package core

import (
	"context"
	"errors"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/obs/flight"
	"newtop/internal/vclock"
)

// This file is the server half of the read path: requests arrive as
// point-to-point "read" control calls on the NSO, never through the
// ordering layer. The NSO's inline handler (service.go's readInline)
// answers each one it can on the ORB's receive loop, with no goroutine
// (tryServeRead); a read that would have to wait goes to the control
// servant on a goroutine of the ORB's (serveRead). Three consistencies:
//
//   - Leased (the hot path): one lease check against the group's tick
//     clock, the session floor, one handler run. No group traffic at all.
//     On the receive loop (serveReadNow) the floor must already be covered
//     and the execution mutex free; off it (serveReadLocal) the read waits
//     for both.
//   - Linearizable: a stability-frontier handshake (gcs.ReadIndex) pins
//     the delivered frontier, then the executed prefix is driven up to it
//     before the handler runs. Still no ordered multicast of the read.
//   - Stale: no freshness check; the session floor is still honoured when
//     the client sent one.
//
// Delivery and execution are decoupled (the dispatch stage runs deliveries
// into the handler), so every fresh-read guarantee is anchored on the
// *executed* prefix: waitMinStamp closes the delivered-but-not-yet-
// executed window that a frontier check alone would leave open, parked on
// the signal every advance of the prefix raises. A replica still inside its
// state transfer has no prefix to anchor on and refuses every read.

// serveRead answers one read control call into rep, which the caller owns
// (the reply carries application and lease errors in-band so the client
// can distinguish retryable refusals). It is the servant's half, run on a
// goroutine of the ORB's for a read tryServeRead handed back: one that
// waits for a read-index handshake, a session floor or the execution
// mutex. That goroutine's stack starts small, so the reply is passed down
// rather than returned by value through every level.
func (srv *Server) serveRead(req *readRequest, rep *readReply) {
	start := time.Now()
	if !srv.refuseRead(rep) {
		switch req.Consistency {
		case Linearizable:
			srv.serveReadLinearizable(req, rep)
		case Stale:
			srv.serveReadStale(req, rep)
		default:
			srv.serveReadLocal(req, rep)
		}
	}
	srv.readServed(req, rep, start)
}

// tryServeRead is serveRead on the ORB's receive loop: it answers a read it
// can answer without waiting and reports false, having answered and
// counted nothing, for any other.
func (srv *Server) tryServeRead(req *readRequest, rep *readReply) bool {
	start := time.Now()
	if !srv.refuseRead(rep) && (req.Consistency == Linearizable || !srv.serveReadNow(req, rep)) {
		return false
	}
	srv.readServed(req, rep, start)
	return true
}

// refuseRead answers a read this replica cannot serve at any consistency —
// its group has no read path, or it is inside its state transfer — and
// reports whether it did.
func (srv *Server) refuseRead(rep *readReply) bool {
	switch {
	case srv.group.Config().LeaseTicks <= 0:
		*rep = readReply{Code: readErrDisabled, Err: ErrReadDisabled.Error()}
	case srv.catching.Load():
		*rep = readReply{Code: readErrRetry, Err: "state transfer in progress"}
	default:
		return false
	}
	return true
}

// readServed counts an answered read, and times and journals a served one.
func (srv *Server) readServed(req *readRequest, rep *readReply, start time.Time) {
	srv.svc.metrics.reads.Inc()
	switch rep.Code {
	case readOK:
		d := time.Since(start)
		srv.svc.metrics.readLatency.Observe(d)
		srv.svc.span(req.Trace, flight.StReplicaRead, uint64(req.Consistency), start, d)
	case readErrDisabled: // not a refusal: the group has no read path to refuse from
	default:
		srv.svc.metrics.readRefused.Inc()
	}
}

// serveReadNow is a leased or stale read that waits for nothing: it takes
// the execution mutex only if it is free, needs the session floor already
// covered, and checks the lease under the mutex. It reports false, having
// answered nothing, when the read would have to wait. Nearly every read
// takes this path; TestAllocGuardReadRoundTrip pins it at zero
// allocations through the NSO's inline handler.
func (srv *Server) serveReadNow(req *readRequest, rep *readReply) bool {
	if !srv.execMu.TryLock() {
		return false
	}
	if !srv.coversLocked(req.MinStamp) {
		srv.execMu.Unlock()
		return false
	}
	var age, bound uint64
	if req.Consistency != Stale {
		var err error
		age, bound, err = srv.group.LeaseRead(0)
		if err != nil {
			srv.execMu.Unlock()
			readRefusal(err, age, bound, rep)
			return true
		}
	}
	srv.execReadLocked(req, age, bound, rep)
	srv.execMu.Unlock()
	return true
}

// serveReadLocal is the leased read: the replica's lease is its authority
// to answer from the local executed prefix with bounded staleness — a
// lease check, the session-floor wait and one handler run, with no
// protocol traffic. TestAllocGuardLeasedRead pins it at zero allocations.
func (srv *Server) serveReadLocal(req *readRequest, rep *readReply) {
	age, bound, err := srv.group.LeaseRead(0)
	switch {
	case err != nil:
		readRefusal(err, age, bound, rep)
	case !srv.waitMinStamp(req.MinStamp):
		*rep = readReply{Code: readErrMinStamp, Err: "session floor not reached", AgeTicks: age, BoundTicks: bound}
	default:
		srv.execRead(req, age, bound, rep)
	}
}

// serveReadLinearizable pins the delivered frontier with the read-index
// handshake, drives the executed prefix up to it, then runs the handler:
// every write that completed anywhere before this read began is visible.
func (srv *Server) serveReadLinearizable(req *readRequest, rep *readReply) {
	ctx, cancel := context.WithTimeout(context.Background(), rmWait)
	frontier, err := srv.group.ReadIndex(ctx)
	cancel()
	switch {
	case err != nil:
		readRefusal(err, 0, 0, rep)
	case !srv.waitMinStamp(frontier) || !srv.waitMinStamp(req.MinStamp):
		*rep = readReply{Code: readErrMinStamp, Err: "executed prefix behind the delivery frontier"}
	default:
		srv.execRead(req, 0, 0, rep)
	}
}

// serveReadStale answers with whatever the local executed prefix holds —
// no freshness evidence at all; an explicit session floor is still
// honoured so a session never observes its own writes disappearing.
func (srv *Server) serveReadStale(req *readRequest, rep *readReply) {
	if !srv.waitMinStamp(req.MinStamp) {
		*rep = readReply{Code: readErrMinStamp, Err: "session floor not reached"}
		return
	}
	srv.execRead(req, 0, 0, rep)
}

// execRead runs the handler under the execution mutex (reads interleave
// with ordered executions at a replica-consistent point) and stamps the
// reply with the executed prefix — reads advance the session too.
func (srv *Server) execRead(req *readRequest, age, bound uint64, rep *readReply) {
	srv.execMu.Lock()
	srv.execReadLocked(req, age, bound, rep)
	srv.execMu.Unlock()
}

// execReadLocked is execRead with the execution mutex held.
func (srv *Server) execReadLocked(req *readRequest, age, bound uint64, rep *readReply) {
	payload, err := srv.cfg.Handler(req.Method, req.Args)
	stamp := srv.lastExec
	if err != nil {
		*rep = readReply{Code: readErrApp, Err: err.Error(), Stamp: stamp, AgeTicks: age, BoundTicks: bound}
		return
	}
	*rep = readReply{Code: readOK, Payload: payload, Stamp: stamp, AgeTicks: age, BoundTicks: bound}
}

// readRefusal maps a gcs read-path error to its wire code.
func readRefusal(err error, age, bound uint64, rep *readReply) {
	code := readErrRetry
	switch {
	case errors.Is(err, gcs.ErrLeaseExpired):
		code = readErrLease
	case errors.Is(err, gcs.ErrNotSequencer):
		code = readErrNotSeq
	case errors.Is(err, gcs.ErrNoLease):
		code = readErrDisabled
	}
	*rep = readReply{Code: code, Err: err.Error(), AgeTicks: age, BoundTicks: bound}
}

// waitMinStamp blocks until the executed prefix covers min (a session
// floor or a read-index frontier), bounded by the request-manager wait
// budget. The fast path — floor already covered, the common case for a
// session reading where it wrote — is one lock and one compare; otherwise
// the read parks on srv.advanced until the prefix moves.
func (srv *Server) waitMinStamp(min vclock.Stamp) bool {
	var deadline *time.Timer
	for {
		srv.execMu.Lock()
		if srv.coversLocked(min) {
			srv.execMu.Unlock()
			if deadline != nil {
				deadline.Stop()
			}
			return true
		}
		if srv.advanced == nil {
			srv.advanced = make(chan struct{})
		}
		advanced := srv.advanced
		srv.execMu.Unlock()
		if deadline == nil {
			deadline = time.NewTimer(rmWait)
		}
		select {
		case <-advanced:
		case <-deadline.C:
			return false
		}
	}
}
