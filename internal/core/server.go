package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// Handler implements the replicated application object hosted by a server
// group member. Invocations are executed in delivery (total) order, one at
// a time, so deterministic handlers keep replicas consistent. A read runs
// between them, usually on the ORB's receive loop, so a read method must
// not block: the process's other ORB traffic waits while it runs.
//
// args is valid for the call only: a handler copies what it keeps. The
// returned slice is retained — the server answers a retried call from it
// until its client's floor passes the call — and handed to the client, so
// it must never be mutated afterwards; a servant that rewrites its state in
// place (shard.Store) returns copies of that state, never slices of it, and
// may share one read-only reply between calls.
type Handler func(method string, args []byte) ([]byte, error)

// ServeConfig configures one member of a server group.
type ServeConfig struct {
	// Group is the server group identifier.
	Group ids.GroupID
	// Contact is an existing member to join through; empty founds the
	// group.
	Contact ids.ProcessID
	// Handler is the application object.
	Handler Handler
	// Snapshot captures the application state (optional; with Restore it
	// enables state transfer so new replicas can join a running group,
	// see ServeReplica). Called with executions quiesced.
	Snapshot func() ([]byte, error)
	// Restore installs a snapshot taken by another member's Snapshot.
	Restore func([]byte) error
	// GCS is the group communication configuration of the server group
	// (ordering protocol, liveness, timers). Defaults: sequencer order,
	// event-driven liveness.
	GCS gcs.GroupConfig
	// ClientProbe is how often a server pings the clients of its
	// client/server groups to garbage-collect bindings whose client died
	// while the group was idle (default 30s; a Service probes for all its
	// servers at the shortest of theirs).
	ClientProbe time.Duration
}

// Server is one member of a server group: it executes requests delivered
// through the server group and serves as request manager for any open
// client/server or client monitor groups it has been pulled into.
type Server struct {
	svc   *Service
	cfg   ServeConfig
	group *gcs.Group

	// execMu serializes handler executions (and the forwards that must
	// mirror their order) so replica state evolves deterministically.
	execMu sync.Mutex
	// The executed prefix. applied is, per sender, the Lamport time of its
	// newest delivery applied here; lastExec is the newest applied delivery
	// of all, which names this member's position in the total order; view is
	// the membership as the delivery stream last showed it. advanced is
	// closed by the next change to them, if a read waits (waitMinStamp).
	applied  map[ids.ProcessID]uint64
	lastExec vclock.Stamp
	view     gcs.View
	advanced chan struct{}
	// cover is what the snapshot a joined replica started from holds, as
	// applied holds it, per sender until that sender's deliveries here
	// have passed it (see snapshotCoversLocked); nil for a founding member.
	cover map[ids.ProcessID]uint64

	mu sync.Mutex
	// clients is what this member retains per client for exactly-once
	// (retain.go): executed replies and, as request manager, the
	// collections that gathered reply sets. Its floors move only under
	// execMu as well, so an execution's entry outlives a release of mu.
	clients map[ids.ProcessID]*clientLog
	// open holds the collections still gathering: the work list of a view
	// change and of the deadline sweep. free holds the collections whose
	// calls their clients' floors have passed, for reuse.
	open     []*collection
	free     []*collection
	bindings map[ids.GroupID]*gcs.Group
	closed   bool

	// A replica's state-transfer prologue (statetransfer.go): while
	// catching is set, execution requests park in catchBuf (under catchMu)
	// and reads are refused.
	catching atomic.Bool
	catchMu  sync.Mutex
	catchBuf []bufferedReq

	// ctx is cancelled by Close before it leaves any group, so a binding
	// handler parked in relay never holds up the Leave of its own group.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// defaultClientProbe is ServeConfig.ClientProbe's default.
const defaultClientProbe = 30 * time.Second

// rmWait bounds what a server waits for on a peer's behalf: a request
// manager gathering replies before it answers with what it has, a
// linearizable read's frontier, a read's session floor, a state transfer.
const rmWait = 10 * time.Second

// Serve creates (or joins) a server group and starts serving it with the
// given handler. Joining a group that already processed traffic without
// state transfer yields a replica whose state starts empty; use
// ServeReplica with Snapshot/Restore hooks to catch up instead.
func (s *Service) Serve(ctx context.Context, cfg ServeConfig) (*Server, error) {
	return s.serve(ctx, cfg, false)
}

func (s *Service) serve(ctx context.Context, cfg ServeConfig, replica bool) (*Server, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("core: serve %q: nil handler", cfg.Group)
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	if cfg.ClientProbe <= 0 {
		cfg.ClientProbe = defaultClientProbe
	}

	var group *gcs.Group
	var err error
	if cfg.Contact.Nil() {
		group, err = s.node.Create(cfg.Group, cfg.GCS)
	} else {
		group, err = s.node.Join(ctx, cfg.Group, cfg.Contact, cfg.GCS)
	}
	if err != nil {
		return nil, fmt.Errorf("core: serve %q: %w", cfg.Group, err)
	}

	srv := &Server{
		svc:      s,
		cfg:      cfg,
		group:    group,
		applied:  make(map[ids.ProcessID]uint64),
		clients:  make(map[ids.ProcessID]*clientLog),
		bindings: make(map[ids.GroupID]*gcs.Group),
	}
	srv.ctx, srv.cancel = context.WithCancel(s.ctx)
	srv.catching.Store(replica)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		srv.cancel()
		_ = group.Leave()
		return nil, ErrClosed
	}
	s.servers[cfg.Group] = srv
	s.mu.Unlock()

	// Export this server's aggregated group-communication counters as
	// labeled gauges (core_server_*{group="..."}), computed lazily at
	// snapshot time. A sharded node serves one group per shard, so the
	// per-group label is the per-shard breakdown; the service-level
	// collector (NewServiceObs) emits the cross-shard group="_total" sum.
	pfx := "core_server_" + obs.Sanitize(string(cfg.Group)) + "_"
	s.obs.Reg.SetCollector(pfx, func(emit func(name string, v int64)) {
		emitServerStats(emit, string(cfg.Group), srv.Stats())
	})

	// Every server, a joining replica too, runs straight off the dispatch
	// stage: a dispatch worker hands the group's events to handleGroupEvent
	// in delivery order, with no consumer goroutine or channel hop. Leave()
	// quiesces the dispatch queue, so no handler call survives Close.
	srv.group.SetHandler(srv.handleGroupEvent)
	if replica {
		if err := srv.transferState(ctx); err != nil {
			_ = srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// emitServerStats emits one group's stats as core_server_* gauges labeled
// with the group name ("_total" for the service-wide aggregate).
func emitServerStats(emit func(name string, v int64), group string, st gcs.Stats) {
	l := func(base string) string { return obs.Labeled("core_server_"+base, "group", group) }
	emit(l("app_sent"), int64(st.AppSent))
	emit(l("nulls_sent"), int64(st.NullSent))
	emit(l("app_delivered"), int64(st.AppDelivered))
	emit(l("resent"), int64(st.Resent))
	emit(l("bytes_out"), int64(st.BytesSent))
	emit(l("bytes_in"), int64(st.BytesReceived))
	emit(l("views"), int64(st.ViewsInstalled))
	emit(l("pending"), int64(st.Pending))
	emit(l("store"), int64(st.StoreSize))
	emit(l("members"), int64(st.Members))
}

// ServerRoster returns the servers of the server group's installed view: its
// members less the closed-bound clients sharing the group. A joining server
// is in it at every member once its Serve returns — at the coordinator,
// which installs a view as it commits it, and at the others as the commit
// reaches them.
func (srv *Server) ServerRoster() []ids.ProcessID {
	servers, _ := srv.group.Servers()
	return slices.Clone(servers)
}

// GroupView returns the server group's current view.
func (srv *Server) GroupView() gcs.View { return srv.group.View() }

// Stats aggregates the group-communication counters of the server group
// and every binding (client/server and client monitor) group this server
// currently serves. The serve loop's periodic stats line and the /metrics
// collector both read it.
func (srv *Server) Stats() gcs.Stats {
	st := srv.group.Stats()
	for _, b := range srv.bindingList() {
		st = st.Plus(b.Stats())
	}
	return st
}

// bindingList returns the binding groups this server serves.
func (srv *Server) bindingList() []*gcs.Group {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	bindings := make([]*gcs.Group, 0, len(srv.bindings))
	for _, b := range srv.bindings {
		bindings = append(bindings, b)
	}
	return bindings
}

// Close leaves every binding group, then the server group.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true // from here on detachBinding leaves the bindings to us
	for _, c := range srv.open {
		c.settle(c.call, nil, true) // nobody is left to answer
	}
	srv.mu.Unlock()

	srv.svc.mu.Lock()
	delete(srv.svc.servers, srv.cfg.Group)
	srv.svc.mu.Unlock()
	srv.svc.obs.Reg.DropCollector("core_server_" + obs.Sanitize(string(srv.cfg.Group)) + "_")

	srv.cancel()
	for _, b := range srv.bindingList() {
		_ = b.Leave()
	}
	_ = srv.group.Leave()
	srv.wg.Wait()
	return nil
}

// handleGroupEvent dispatches one server-group event.
func (srv *Server) handleGroupEvent(ev gcs.Event) {
	switch ev.Type {
	case gcs.EventDeliver:
		var p payload
		if decodePayload(ev.Deliver.Payload, &srv.svc.strs, &p) == nil {
			switch p.Kind {
			case payloadRequest:
				if srv.bufferForCatchup(&p.Req, ev.Deliver.Sender, ev.Deliver.Stamp) ||
					srv.execute(&p.Req, ev.Deliver.Sender, ev.Deliver.Stamp) {
					return
				}
			case payloadForget:
				srv.forget(p.Forget)
			}
		}
		// Every delivered position is applied once handled: requests by
		// executeDelivered (the return above), everything else (forgets,
		// unparseable payloads) vacuously. Reads wait on delivery stamps (session
		// floors, read-index frontiers), so the executed frontier must
		// cover non-request traffic too or a read could stall on a stamp
		// no execution will ever carry.
		srv.noteApplied(ev.Deliver.Stamp)
	case gcs.EventView:
		srv.onGroupView(ev.View)
	}
}

// execute runs one request delivered in the server group — a request
// manager's forward (paper fig. 4(ii)→(iii)) or a closed-bound client's own
// multicast (fig. 3(i)) — exactly once, in the same total order at every
// member, and answers whoever gathers its replies point-to-point over the
// ORB (a retried call gets the retained reply again, §4.1): the client, or
// the request manager that forwarded it, which thereby stays the only member
// multicasting in the server group — what the restricted group of §4.2 is
// built on. It reports false for a request that is neither, which executes
// nothing.
func (srv *Server) execute(req *invRequest, sender ids.ProcessID, stamp vclock.Stamp) bool {
	if !req.executes() {
		return false
	}
	rep := srv.executeDelivered(req, stamp)
	switch {
	case req.AsyncFwd || req.Mode == OneWay: // nobody gathers replies
	case !req.Forwarded:
		srv.svc.sendReply(req.Client, srv.cfg.Group, replyMsg{To: toClosed, Reply: rep})
	case sender == srv.svc.ID():
		srv.collectReply(rep) // our own execution: no envelope, no frame
	default:
		srv.svc.sendReply(sender, srv.cfg.Group, replyMsg{To: toRM, Reply: rep})
	}
	return true
}

// executes reports whether req asks the server group's members to execute
// it: a request manager's forward, or a closed-bound client's own.
func (req *invRequest) executes() bool { return req.Forwarded || req.Style == Closed }

// noteApplied advances the executed prefix past a consumed, state-neutral
// delivery.
func (srv *Server) noteApplied(stamp vclock.Stamp) {
	srv.execMu.Lock()
	srv.applyLocked(stamp)
	srv.execMu.Unlock()
}

// applyLocked advances the executed prefix past the delivery stamped stamp.
func (srv *Server) applyLocked(stamp vclock.Stamp) {
	if stamp.Time > srv.applied[stamp.Sender] {
		srv.applied[stamp.Sender] = stamp.Time
		srv.lastExec = stamp
		srv.advanceLocked()
	}
}

// advanceLocked wakes the reads waiting for the executed prefix, if any.
func (srv *Server) advanceLocked() {
	if srv.advanced != nil {
		close(srv.advanced)
		srv.advanced = nil
	}
}

// coversLocked reports whether the executed prefix includes the delivery
// stamped s — and with it, the total order being one, everything any member
// had applied before s. One sender's deliveries arrive in its send order
// with growing Lamport times under either ordering protocol, so the test is
// per sender. Comparing whole stamps is right only under the symmetric
// protocol: the sequencer may order a later-stamped message of one sender
// before an earlier-stamped one of another, and a member that has applied
// just the first would claim the second.
func (srv *Server) coversLocked(s vclock.Stamp) bool {
	if t, ok := srv.applied[s.Sender]; ok {
		return t >= s.Time
	}
	// Nothing applied from s.Sender since it was last in a view: all it sent
	// was delivered before it left — here, or into the snapshot this member
	// started from.
	return !srv.view.Contains(s.Sender)
}

// executeDelivered runs the handler for a request delivered in the server
// group exactly once; retries get the retained reply (the paper's standard
// retry/dedup technique, §4.1), and a stale retry — below its client's floor,
// no longer retained — an error. A request inside the snapshot this member
// started from took effect at the donor, whose result this member does not
// have: it retains and answers that fact instead, so that neither the
// original nor a retry runs a second time on top of the restored state.
func (srv *Server) executeDelivered(req *invRequest, stamp vclock.Stamp) invReply {
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	rep, _ := srv.executeLocked(req, stamp, true, srv.snapshotCoversLocked(stamp))
	return rep
}

// snapshotCoversLocked reports whether the snapshot this member started
// from covers the delivery stamped s. Every delivery the snapshot covers
// counts, not only those buffered while it was fetched: one that reached
// this member late (lost, then resent) is delivered after the transfer
// ended. A sender's deliveries arrive with growing times, so its cover is
// forgotten at the first one past it.
func (srv *Server) snapshotCoversLocked(s vclock.Stamp) bool {
	t, ok := srv.cover[s.Sender]
	if !ok {
		return false
	}
	if s.Time <= t {
		return true
	}
	delete(srv.cover, s.Sender)
	return false
}

// executeLocked runs the handler for a call exactly once, or returns the
// retained reply, or refuses a stale retry (execMu held); it reports whether
// the handler ran. ordered says the request was delivered in the server
// group's order, where alone its floor applies (orderLocked); covered, that
// the snapshot this member started from holds its effect.
func (srv *Server) executeLocked(req *invRequest, stamp vclock.Stamp, ordered, covered bool) (invReply, bool) {
	srv.applyLocked(stamp) // a retry's delivery is a position too
	srv.mu.Lock()
	if ordered {
		srv.orderLocked(req)
	}
	e, stale := srv.entryLocked(req.Call, req.Floor)
	switch {
	case stale:
		srv.mu.Unlock()
		return invReply{Call: req.Call, Server: srv.svc.ID(), Err: staleErr}, false
	case e.rep.Server == "" && covered:
		e.rep = invReply{Call: req.Call, Server: srv.svc.ID(), Stamp: stamp,
			Err: "executed before this replica's state transfer; its result stayed with the donor"}
		fallthrough
	case e.rep.Server != "":
		rep := e.rep
		srv.mu.Unlock()
		return rep, false
	}
	srv.mu.Unlock()
	start := time.Now()
	payload, err := srv.cfg.Handler(req.Method, req.Args)
	d := time.Since(start)
	rep := invReply{Call: req.Call, Server: srv.svc.ID(), Payload: payload, Stamp: stamp}
	if err != nil {
		rep.Err = err.Error()
	}
	// Floors move under execMu alone, so the entry is still there; the
	// request manager may have grown the log meanwhile, so find it again.
	srv.mu.Lock()
	if e, _ := srv.entryLocked(req.Call, req.Floor); e != nil {
		e.rep = rep
	}
	srv.mu.Unlock()
	srv.svc.metrics.execLatency.Observe(d)
	srv.svc.span(req.Trace, flight.StReplicaExecute, 0, start, d)
	return rep, true
}

// collectReply files one replica's reply with the call's collection, if
// this member is still gathering for it, and answers the client when it
// completes the quorum (see collector).
func (srv *Server) collectReply(rep invReply) {
	srv.mu.Lock()
	var c *collection
	if e := srv.findLocked(rep.Call); e != nil {
		c = e.coll
	}
	srv.mu.Unlock()
	if c != nil && c.add(rep) {
		srv.conclude(c)
	}
}

// onGroupView records the new view for the executed prefix and the closed
// clients' logs, and re-evaluates the open collections (e.g. wait-for-all
// with a crashed member).
func (srv *Server) onGroupView(v *gcs.View) {
	srv.execMu.Lock()
	srv.view = v.Clone()
	for p := range srv.applied {
		if !v.Contains(p) {
			delete(srv.applied, p) // see coversLocked
		}
	}
	srv.advanceLocked() // a departed sender's deliveries are all covered now
	srv.mu.Lock()
	for client, l := range srv.clients {
		if l.closed && !v.Contains(client) {
			srv.forgetLocked(l) // a closed client left: at the same point at every member
		}
	}
	srv.mu.Unlock()
	srv.execMu.Unlock()
	for _, g := range srv.openCalls() {
		if g.c.settle(g.call, v, false) {
			srv.conclude(g.c)
		}
	}
}

// joinBindingGroup pulls this server into a client/server or client
// monitor group and starts serving it.
func (srv *Server) joinBindingGroup(req *bindRequest) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return ErrClosed
	}
	if _, ok := srv.bindings[req.Group]; ok {
		srv.mu.Unlock()
		return nil // idempotent: bind retries are harmless
	}
	srv.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b, err := srv.svc.node.Join(ctx, req.Group, req.Contact, req.Config)
	if err != nil {
		return fmt.Errorf("core: join binding group %q: %w", req.Group, err)
	}

	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		_ = b.Leave()
		return ErrClosed
	}
	srv.bindings[req.Group] = b
	srv.mu.Unlock()
	b.SetHandler(srv.bindingHandler(b, req))
	srv.svc.startProbing()
	return nil
}

// bindingHandler returns the consumer of one client/server (or client
// monitor) group, run off the dispatch stage like the server group's: the
// request manager serves each client request on the worker that delivers
// it, a client that leaves is forgotten if it is gone for good, and the
// view that shows every client gone detaches the binding.
func (srv *Server) bindingHandler(b *gcs.Group, bind *bindRequest) func(gcs.Event) {
	me := srv.svc.ID()
	detached := false // handler calls are serialised
	var clients []ids.ProcessID
	return func(ev gcs.Event) {
		switch {
		case detached:
		case ev.Type == gcs.EventDeliver:
			if ev.Deliver.Sender == me {
				return // our own reply-set multicasts (client monitor groups)
			}
			var p payload
			if decodePayload(ev.Deliver.Payload, &srv.svc.strs, &p) == nil &&
				p.Kind == payloadRequest && !p.Req.Forwarded && bind.Style == Open {
				srv.serveAsRM(b, bind, &p.Req)
			}
		case ev.Type == gcs.EventView:
			for _, c := range clients {
				if !ev.View.Contains(c) {
					srv.forgetIfGone(c)
				}
			}
			clients = srv.clientsOf(ev.View, clients[:0])
			if len(clients) == 0 {
				// Every client has gone: the group has served its purpose.
				detached = true
				srv.detachBinding(bind.Group, b)
			}
		}
	}
}

// forgetIfGone has the server group forget a client that left one of this
// request manager's binding groups, if the client is gone for good: one that
// still answers a ping may retry its calls through another binding, and its
// next request's floor garbage-collects them anyway. The forget is relayed
// in the server group's order, so every replica drops the client's calls at
// the same point (forgetLocked).
func (srv *Server) forgetIfGone(client ids.ProcessID) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return
	}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		ctx, cancel := context.WithTimeout(srv.ctx, srv.cfg.ClientProbe/2)
		_, err := srv.svc.invokeControl(ctx, client, "ping", nil)
		cancel()
		if err != nil && srv.ctx.Err() == nil {
			_ = srv.group.Multicast(srv.ctx, encodeForget(client)) //lint:ok errdrop best-effort: a client not forgotten costs the few calls it left retained
		}
	}()
}

// probeClients pings the client members of every binding group this server
// serves, one goroutine per group for the round; a client that stopped
// answering is reported to the membership service so the group disbands
// even if it was idle when the client died (an idle event-driven group runs
// no suspector of its own).
func (srv *Server) probeClients() {
	sg := srv.group.View()
	var round sync.WaitGroup
	for _, b := range srv.bindingList() {
		round.Add(1)
		go func() {
			defer round.Done()
			for _, m := range b.View().Members {
				if m == srv.svc.ID() || sg.Contains(m) {
					continue // ourselves or fellow servers
				}
				ctx, cancel := context.WithTimeout(srv.ctx, srv.cfg.ClientProbe/2)
				_, err := srv.svc.invokeControl(ctx, m, "ping", nil)
				cancel()
				if err != nil && srv.ctx.Err() == nil {
					b.Suspect(m)
				}
			}
		}()
	}
	round.Wait()
}

// clientsOf appends to dst the clients of a binding view: its members
// besides local server members of the served group.
func (srv *Server) clientsOf(v *gcs.View, dst []ids.ProcessID) []ids.ProcessID {
	sg := srv.group.View()
	for _, m := range v.Members {
		if m != srv.svc.ID() && !sg.Contains(m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// detachBinding forgets a binding group and leaves it. It runs in the
// group's own handler, which cannot Leave — Leave waits out the running
// drain — so one goroutine takes the Leave; once Close has begun, Close
// leaves the group instead.
func (srv *Server) detachBinding(gid ids.GroupID, b *gcs.Group) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed || srv.bindings[gid] != b {
		return
	}
	delete(srv.bindings, gid)
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		_ = b.Leave()
	}()
}

// rmPolicy is how the request manager serves one call (fig. 4, §4.2): who
// executes first, when the client is answered, whom that waits for.
type rmPolicy uint8

const (
	rmCollect rmPolicy = iota // group order first; answer on the mode's quorum over the servers of the call's view
	rmPrimary                 // the sequencer relays, runs first, outside the order, and answers at once (§4.2)
	rmOneWay                  // group order; nobody answered or waited for
)

func rmPolicyOf(bind *bindRequest, req *invRequest) rmPolicy {
	switch {
	case req.Mode == OneWay:
		return rmOneWay
	case bind.AsyncFwd && req.Mode == First:
		return rmPrimary
	}
	return rmCollect
}

// serveAsRM is the request manager (paper fig. 4): the one path of every
// request delivered in an open client/server or client monitor group. What
// it retains for the call lives in the call's entry of its client's log.
func (srv *Server) serveAsRM(b *gcs.Group, bind *bindRequest, req *invRequest) {
	client := req.Client
	if bind.Monitor {
		client = "" // every member of the client group must see the set: multicast it
	}
	pol := rmPolicyOf(bind, req)
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	e, stale := srv.entryLocked(req.Call, req.Floor)
	var c *collection
	switch {
	case stale:
		// A retry of a call its client's floor has passed: its client has
		// completed it, or given it up, and nothing of it is retained.
		srv.mu.Unlock()
		if req.Mode != OneWay {
			srv.answer(b, client, &invReplySet{Call: req.Call, Err: staleErr}, 0)
		}
		return
	case bind.Monitor && e.dup:
		// Filter the duplicate requests that every client-group member
		// issues (paper §4.3): first copy wins.
		srv.mu.Unlock()
		srv.svc.metrics.monitorDups.Inc()
		return
	case e.coll != nil && e.coll.answered:
		// Retried call: resend the retained aggregated reply (§4.1). This is
		// also what repairs a lost or late answer. The pin keeps the
		// collection from reuse while its set is sent.
		c = e.coll
		c.pins++
		set := c.set
		srv.mu.Unlock()
		if req.Mode != OneWay {
			srv.answer(b, client, &set, 0)
		}
		srv.mu.Lock()
		srv.unpinLocked(c)
		srv.mu.Unlock()
		return
	case e.coll != nil:
		// Retried while still gathering: a direct reply may have been lost
		// (it rides no reliable multicast). Forward again — every replica
		// answers a call it has executed from its retained reply, so the
		// missing one arrives and nothing executes twice.
		srv.mu.Unlock()
		srv.relay(req, false)
		return
	}
	e.dup = bind.Monitor
	now := time.Now()
	srv.svc.span(req.Trace, flight.StRMReceive, uint64(req.Mode), now, 0)
	if pol == rmCollect {
		srv.openLocked(e, b, client, req, now)
	}
	srv.mu.Unlock()

	if pol == rmOneWay {
		srv.relay(req, false)
		return
	}
	// Stay audible in the client/server group while serving: the waiting
	// client holds the group's attention and would suspect a silent
	// manager whose reply is delayed by server-group work.
	b.Attend()
	if pol == rmPrimary {
		if srv.servePrimary(b, client, req) {
			b.Unattend()
			return
		}
		// Not the server group's sequencer: nothing has run and nothing has
		// been sent, so the call is gathered from the order instead.
		srv.mu.Lock()
		e, stale := srv.entryLocked(req.Call, req.Floor)
		open := !srv.closed && !stale && e.coll == nil
		if open {
			srv.openLocked(e, b, client, req, time.Now())
		}
		srv.mu.Unlock()
		if !open { // closed, or a concurrent copy of the call is gathering it
			b.Unattend()
			return
		}
	}
	// Gather the direct replies: the completing one, a view change that
	// shrinks the quorum or the deadline concludes. Hold the server group's
	// attention meanwhile: a replica that dies before replying must be
	// suspected so the quorum shrinks.
	srv.group.Attend()
	srv.relay(req, false)
}

// openLocked opens the collection that gathers a call's replies into its
// entry e (mu held), received at now.
func (srv *Server) openLocked(e *retained, b *gcs.Group, client ids.ProcessID, req *invRequest, now time.Time) {
	c := srv.newCollectionLocked(req.Call, req.Mode)
	c.trace, c.b, c.client, c.start = req.Trace, b, client, now
	if need := c.mode.need(c.live); need > len(c.inline) {
		c.replies = make([]invReply, 0, need)
	}
	e.coll = c
}

// servePrimary serves a call as the paper's primary (rmPrimary, §4.2): the
// server group's sequencer relays it into the order, executes it at once,
// outside the order, and answers. The relay is ordered as it is sent
// (MulticastAsSequencer), so the answer says the call is ordered, and the
// backups apply requests in exactly the primary's execution order: both
// happen under execMu. When the relay comes back in order, this member
// finds the call's entry and runs nothing. A retried call is answered from
// its entry, and a stale one refused, with nothing sent. It reports false,
// having run and sent nothing, when this member is not the sequencer.
func (srv *Server) servePrimary(b *gcs.Group, client ids.ProcessID, req *invRequest) bool {
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	srv.mu.Lock()
	e, stale := srv.entryLocked(req.Call, req.Floor)
	fresh := !stale && e.rep.Server == ""
	srv.mu.Unlock()
	if fresh && !srv.relay(req, true) {
		return false
	}
	rep, _ := srv.executeLocked(req, srv.lastExec, false, false)
	set := invReplySet{Call: req.Call}
	var one [1]invReply
	if rep.Err == staleErr {
		set.Err = staleErr
	} else {
		one[0] = rep
		set.Replies = one[:]
	}
	srv.answer(b, client, &set, req.Trace)
	return true
}

// relay forwards a client's request into the server group (fig. 4(ii)). A
// primary's relay goes out only if this member sequences the server group,
// and relay reports whether it went.
func (srv *Server) relay(req *invRequest, primary bool) bool {
	fwd := *req
	fwd.Forwarded, fwd.AsyncFwd = true, primary
	start := time.Now()
	w := wire.GetWriter()
	putRequest(w, &fwd)
	var err error
	if primary {
		//lint:ok lockblock deliberate: the primary relays under execMu so backups see its execution order (§4.2)
		err = srv.group.MulticastAsSequencer(srv.ctx, w.Bytes())
	} else {
		//lint:ok lockblock only a primary's relay runs under execMu (servePrimary)
		_ = srv.group.Multicast(srv.ctx, w.Bytes()) //lint:ok errdrop best-effort: a collection answers with what arrives by its deadline, one-way promises nothing
	}
	wire.PutWriter(w)
	if err != nil {
		return false
	}
	srv.svc.metrics.rmRelays.Inc()
	srv.svc.span(req.Trace, flight.StRMForward, 0, start, time.Since(start))
	return true
}

// collection is one call this request manager is gathering replies for,
// and then the reply set that answers it, retained in the call's entry of
// its client's log for retries (set, whose Call names it). The replies ride
// inline while the mode's quorum fits. The service's sweep
// (sweepCollections) is its deadline. Once the client's floor has passed
// the call and nobody holds it, it goes back to its server's free list and
// serves another call: the collector's call, checked under its lock, keeps a
// late reply or a stale settle from touching the next one.
type collection struct {
	collector
	set    invReplySet
	trace  uint64
	b      *gcs.Group    // the client/server or client monitor group of the call
	client ids.ProcessID // whom the answer goes to (see answer)
	start  time.Time
	inline [inlineReplies]invReply

	// Under the server's mu: openIdx is its place among the open
	// collections while it gathers; answered says its set has gone out;
	// pins counts who holds it outside mu — the gathering until its answer
	// is sent, a retry's resend; dropped says its call's entry is gone.
	openIdx  int
	answered bool
	pins     int
	dropped  bool
}

// inlineReplies is how many replies a collection holds without a separate
// allocation: the quorum of any mode over three replicas, a majority of
// five.
const inlineReplies = 3

// conclude answers a settled collection with the replies it gathered.
func (srv *Server) conclude(c *collection) {
	srv.svc.span(c.trace, flight.StRMCollect, uint64(len(c.replies)), c.start, time.Since(c.start))
	c.set.Call, c.set.Replies = c.call, c.replies
	if len(c.replies) == 0 {
		c.set.Err = "request manager: no replies before deadline"
	}
	srv.mu.Lock()
	srv.closeLocked(c)
	srv.mu.Unlock()
	srv.answer(c.b, c.client, &c.set, c.trace)
	srv.group.Unattend()
	c.b.Unattend()
	srv.mu.Lock()
	srv.unpinLocked(c)
	srv.mu.Unlock()
}

// concludeOlder concludes, with whatever has arrived, the collections begun
// before cutoff: the request manager's deadline, run by the service's sweep.
func (srv *Server) concludeOlder(cutoff time.Time) {
	for _, g := range srv.openCalls() {
		if g.start.Before(cutoff) && g.c.settle(g.call, nil, true) {
			srv.conclude(g.c)
		}
	}
}

// answer returns a call's reply set to the client of b (a resend passes
// trace zero: no journal). An open binding's client gets it point-to-point,
// with one ORB one-way (fig. 4(iv)): b stays where its request is ordered
// and its request manager's failure detected, and a lost or late answer is
// repaired by the retry's resend of the retained set. In a client monitor
// group (client empty) every member of the client group must see the set,
// so it is multicast in b.
func (srv *Server) answer(b *gcs.Group, client ids.ProcessID, set *invReplySet, trace uint64) {
	start := time.Now()
	if client != "" {
		srv.svc.sendReply(client, b.ID(), replyMsg{To: toOpen, Set: set})
	} else {
		srv.multicastSet(b, set)
	}
	srv.svc.span(trace, flight.StRMReply, 0, start, time.Since(start))
}

// multicastSet multicasts a reply set in a client monitor group. It runs on
// whatever completed the set — the ORB's receive loop, a dispatch worker,
// the deadline, the primary — so it must not wait for a view install: a
// spent context declines that, and a goroutine takes the send.
func (srv *Server) multicastSet(b *gcs.Group, set *invReplySet) {
	payload := encodeReplySet(set)
	//lint:ok lockblock under the spent context Multicast sends or returns at once; it never waits
	if err := b.Multicast(spentCtx, payload); errors.Is(err, context.Canceled) {
		srv.mu.Lock()
		if !srv.closed {
			srv.wg.Add(1)
			go func() {
				defer srv.wg.Done()
				_ = b.Multicast(context.Background(), payload) //lint:ok errdrop best-effort: it fails only once b is left, which breaks every member's attachment
			}()
		}
		srv.mu.Unlock()
	}
}

// spentCtx is an already-cancelled context: Multicast under it sends if the
// group is in its normal state and returns at once if not.
var spentCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// collector gathers the servers' point-to-point replies to one call — at
// the request manager of an open call, at the client of a closed one —
// until the reply mode's quorum over the call's servers is met. Whoever
// settles it (add and settle report true exactly once between them) owns
// the replies from then on; later arrivals are dropped, and so is anything
// for another call than the one it gathers for.
//
// The call's servers (base) are those of a view installed at its gatherer
// when the call arrived (seq), less those a later view lost (live counts the
// rest): at a request manager, the server group's view installed then; at a
// closed client, its own view as its handler last saw it. The request is
// ordered in that view or a later one, so every server still counted
// delivers and answers it; a server that joined since — after the call was
// ordered, or while it was on its way — may answer too, but it is not
// waited for and its reply is not counted.
type collector struct {
	mode ReplyMode

	mu      sync.Mutex
	call    ids.CallID
	base    []ids.ProcessID // shared with the view's other calls: never modified
	seq     ids.ViewSeq
	live    int
	replies []invReply // ordered by server
	settled bool
}

// begin starts the collection of call's replies over the servers of view
// seq (c.mu held, or c not yet shared).
func (c *collector) begin(call ids.CallID, servers []ids.ProcessID, seq ids.ViewSeq) {
	c.call, c.base, c.seq, c.live, c.settled = call, servers, seq, len(servers), false
}

// add files one server's reply — a retry's copy replaces the original —
// and reports whether it completed the quorum.
func (c *collector) add(rep invReply) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled || rep.Call != c.call || !ids.ContainsProcess(c.base, rep.Server) {
		return false
	}
	i := 0
	for i < len(c.replies) && c.replies[i].Server.Less(rep.Server) {
		i++
	}
	if i == len(c.replies) || c.replies[i].Server != rep.Server {
		c.replies = append(c.replies, invReply{})
		copy(c.replies[i+1:], c.replies[i:])
	}
	c.replies[i] = rep
	c.settled = len(c.replies) >= c.mode.need(c.live)
	return c.settled
}

// settle ends the collection of call's replies if those already in meet
// the quorum — a view v that lost some of the call's servers shrank it:
// wait-for-all with a crashed member — or, with force, whatever has
// arrived (the deadline). A view no later than the call's changes nothing.
func (c *collector) settle(call ids.CallID, v *gcs.View, force bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled || call != c.call {
		return false
	}
	if v != nil && v.Seq > c.seq {
		c.live = 0
		for _, p := range c.base {
			if v.Contains(p) {
				c.live++
			}
		}
	}
	if !force && len(c.replies) < c.mode.need(c.live) {
		return false
	}
	c.settled = true
	return true
}

// drop ends the collection for good, settled or not: nothing reaches it
// any more, and it lets go of the storage it gathered in, which is its
// call's window slot's (a closed call's collector at the client).
func (c *collector) drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.replies)
	c.call, c.replies, c.base, c.settled = ids.CallID{}, nil, nil, true
}
