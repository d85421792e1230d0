package core

import (
	"context"
	"errors"
	"fmt"

	"newtop/internal/ids"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// State transfer (paper §2.2): "in order to support passive replication,
// some form of state transfer facility would have to be implemented". A
// server group member configured with Snapshot/Restore hooks can admit
// new replicas into a running group: the joiner parks the execution
// requests delivered to it, pulls a snapshot from an existing member,
// discards the parked requests the snapshot already covers, replays the
// rest, and only then starts serving — reads included.
//
// The splice is the donor's executed prefix, the per-sender Applied vector
// (see Server.coversLocked): one sender's deliveries reach every member in
// its send order with growing Lamport times, so a parked request is inside
// the snapshot exactly when its stamp's time is at most what Applied holds
// for its sender. The donor's snapshot corresponds to a prefix of the
// common execution sequence and the joiner's parked deliveries to a suffix
// of it. It covers the standard execution paths (closed requests and
// open-group forwarded requests); under the asynchronous-forwarding
// optimisation the primary executes outside the group order, so a *backup*
// must act as donor — any contact other than the group leader satisfies
// that.

// stateSnapshot is the control-call answer carrying the donor's state.
type stateSnapshot struct {
	// HasState distinguishes "no snapshot support" from empty state.
	HasState bool
	// Stamp is the total-order position of the last request executed
	// into the snapshot (zero if none yet).
	Stamp vclock.Stamp
	// Applied is the donor's executed prefix: per sender, the stamp of its
	// newest delivery executed into the snapshot (see Server.coversLocked).
	Applied []vclock.Stamp
	// Data is the application snapshot.
	Data []byte
}

func encodeStateSnapshot(s *stateSnapshot) []byte {
	w := wire.GetWriter()
	w.Bool(s.HasState)
	putStamp(w, s.Stamp)
	w.Uvarint(uint64(len(s.Applied)))
	for _, a := range s.Applied {
		putStamp(w, a)
	}
	w.Blob(s.Data)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeStateSnapshot(b []byte) (*stateSnapshot, error) {
	r := wire.NewReader(b)
	s := &stateSnapshot{HasState: r.Bool(), Stamp: getStamp(r)}
	if n := r.Uvarint(); r.Err() == nil && n <= uint64(r.Remaining()) {
		s.Applied = make([]vclock.Stamp, 0, n)
		for i := uint64(0); i < n; i++ {
			s.Applied = append(s.Applied, getStamp(r))
		}
	}
	s.Data = r.Blob()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// takeSnapshot captures the application state under execMu, paired with
// the executed prefix it reflects.
func (srv *Server) takeSnapshot() (*stateSnapshot, error) {
	if srv.cfg.Snapshot == nil {
		return &stateSnapshot{}, nil
	}
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	data, err := srv.cfg.Snapshot()
	if err != nil {
		return nil, err
	}
	snap := &stateSnapshot{HasState: true, Stamp: srv.lastExec, Data: data}
	for p, t := range srv.applied {
		snap.Applied = append(snap.Applied, vclock.Stamp{Time: t, Sender: p})
	}
	return snap, nil
}

// catchUp pulls a snapshot from the donor and installs it, returning what
// the snapshot covers: per sender, the time of its newest delivery executed
// into it. Only state-neutral deliveries have been applied here so far.
func (srv *Server) catchUp(ctx context.Context, donor ids.ProcessID) (map[ids.ProcessID]uint64, error) {
	raw, err := srv.svc.invokeControl(ctx, donor, "state", []byte(srv.cfg.Group))
	if err != nil {
		return nil, fmt.Errorf("core: fetch state from %s: %w", donor, err)
	}
	snap, err := decodeStateSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("core: decode state: %w", err)
	}
	if !snap.HasState {
		return nil, errors.New("core: donor has no snapshot support")
	}
	srv.execMu.Lock() // a read runs the handler under it too
	defer srv.execMu.Unlock()
	if err := srv.cfg.Restore(snap.Data); err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	cover := make(map[ids.ProcessID]uint64, len(snap.Applied))
	for _, a := range snap.Applied {
		cover[a.Sender] = a.Time
		// A sender seen leaving stays out: coversLocked's not-in-view rule
		// covers it, and an entry would outlive it until a later view.
		if srv.view.Contains(a.Sender) {
			srv.applyLocked(a)
		}
	}
	srv.lastExec = snap.Stamp
	return cover, nil
}

// ServeReplica joins a running server group with state transfer: the
// configuration must include Handler, Snapshot and Restore; Contact names
// the donor member. The returned server is fully caught up — its state
// equals what a founding member's would be at the same point in the
// group's total order.
func (s *Service) ServeReplica(ctx context.Context, cfg ServeConfig) (*Server, error) {
	if cfg.Snapshot == nil || cfg.Restore == nil {
		return nil, errors.New("core: ServeReplica needs Snapshot and Restore hooks")
	}
	if cfg.Contact.Nil() {
		return nil, errors.New("core: ServeReplica needs a contact (the state donor)")
	}
	return s.serve(ctx, cfg, true)
}

// bufferedReq is one execution request delivered during the prologue.
type bufferedReq struct {
	stamp  vclock.Stamp
	sender ids.ProcessID
	req    *invRequest
}

// bufferForCatchup parks req, delivered from sender at stamp, if it is an
// execution request delivered while the snapshot is still being fetched,
// and reports whether it did. Everything else (hellos, views, replies) flows
// through the regular machinery so the roster and views stay current.
func (srv *Server) bufferForCatchup(req *invRequest, sender ids.ProcessID, stamp vclock.Stamp) bool {
	if !srv.catching.Load() || !req.executes() {
		return false
	}
	srv.catchMu.Lock()
	defer srv.catchMu.Unlock()
	if !srv.catching.Load() { // the replay ended while we waited for it
		return false
	}
	srv.catchBuf = append(srv.catchBuf, bufferedReq{stamp: stamp, sender: sender, req: req})
	return true
}

// transferState fetches and installs the snapshot while the dispatch stage
// keeps consuming — the fetch is an ORB call and must not block the delivery
// stream (the donor may need our flush participation to make progress) —
// then works through the buffered requests in order and lets executions
// through. Each was delivered in a view that has this member in it, so its
// request manager (or closed client) may be counting on this member's
// answer: a request the snapshot does not cover executes here and is
// answered as if it had just been delivered; one the snapshot covers took
// effect at the donor, whose result this member does not have — it retains
// and answers that fact, so that neither the original nor a retry can
// execute it a second time on top of the restored state.
func (srv *Server) transferState(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, rmWait)
	defer cancel()
	cover, err := srv.catchUp(ctx, srv.cfg.Contact)
	if err != nil {
		return err
	}
	srv.catchMu.Lock()
	defer srv.catchMu.Unlock()
	for _, e := range srv.catchBuf {
		if cover[e.stamp.Sender] >= e.stamp.Time { // already inside the snapshot
			srv.execMu.Lock()
			srv.replies.put(e.req.Call, invReply{Call: e.req.Call, Server: srv.svc.ID(), Stamp: e.stamp,
				Err: "executed before this replica's state transfer; its result stayed with the donor"})
			srv.execMu.Unlock()
		}
		srv.execute(e.req, e.sender, e.stamp)
	}
	srv.catchBuf = nil
	srv.catching.Store(false)
	return nil
}
