package core

import (
	"context"
	"errors"
	"fmt"
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
	execMu  sync.Mutex
	replies *bounded[ids.CallID, invReply] // executed calls: exactly-once across retries
	// The executed prefix. applied is, per sender, the Lamport time of its
	// newest delivery applied here; lastExec is the newest applied delivery
	// of all, which names this member's position in the total order; view is
	// the membership as the delivery stream last showed it. advanced is
	// closed by the next change to them, if a read waits (waitMinStamp).
	applied  map[ids.ProcessID]uint64
	lastExec vclock.Stamp
	view     gcs.View
	advanced chan struct{}

	mu         sync.Mutex
	roster     map[ids.ProcessID]bool // fellow servers (hello ∩ view)
	lastView   int                    // size of the previously observed view
	collectors map[ids.CallID]*collection
	sets       *bounded[ids.CallID, *invReplySet] // request-manager answers, for retries
	bindings   map[ids.GroupID]*gcs.Group
	seen       *bounded[ids.CallID, struct{}] // monitor-group duplicate filter
	closed     bool

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

// cacheCap bounds the retained-reply, reply-set and duplicate-filter
// caches.
const cacheCap = 4096

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
		svc:        s,
		cfg:        cfg,
		group:      group,
		replies:    newBounded[ids.CallID, invReply](cacheCap),
		applied:    make(map[ids.ProcessID]uint64),
		roster:     map[ids.ProcessID]bool{s.ID(): true},
		collectors: make(map[ids.CallID]*collection),
		sets:       newBounded[ids.CallID, *invReplySet](cacheCap),
		bindings:   make(map[ids.GroupID]*gcs.Group),
		seen:       newBounded[ids.CallID, struct{}](cacheCap),
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
	// Announce ourselves so the existing members add us to the server
	// roster (and, via their re-announcements, we learn them).
	_ = group.Multicast(ctx, encodeHello()) //lint:ok errdrop best-effort: roster repair re-announces on every membership change
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

// ServerRoster returns the current server membership (excluding any
// closed-bound clients sharing the group).
func (srv *Server) ServerRoster() []ids.ProcessID {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := make([]ids.ProcessID, 0, len(srv.roster))
	for p := range srv.roster {
		out = append(out, p)
	}
	return ids.SortProcesses(out)
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
	for _, c := range srv.collectors {
		c.settle(0, true) // nobody is left to answer
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
			case payloadHello:
				srv.mu.Lock()
				srv.roster[ev.Deliver.Sender] = true
				srv.mu.Unlock()
			}
		}
		// Every delivered position is applied once handled: requests by
		// executeOnce (the return above), everything else (roster hellos,
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
	rep, _ := srv.executeOnce(req.Call, req.Method, req.Args, stamp, req.Trace)
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

// executeOnce runs the handler for a call exactly once; retries get the
// retained reply (the paper's standard retry/dedup technique, §4.1).
func (srv *Server) executeOnce(call ids.CallID, method string, args []byte, stamp vclock.Stamp, trace uint64) (invReply, bool) {
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	return srv.executeLocked(call, method, args, stamp, trace)
}

// executeLocked is executeOnce for a caller that holds execMu.
func (srv *Server) executeLocked(call ids.CallID, method string, args []byte, stamp vclock.Stamp, trace uint64) (invReply, bool) {
	srv.applyLocked(stamp) // a retry's delivery is a position too
	if rep, ok := srv.replies.get(call); ok {
		return rep, false
	}
	start := time.Now()
	payload, err := srv.cfg.Handler(method, args)
	d := time.Since(start)
	rep := invReply{Call: call, Server: srv.svc.ID(), Payload: payload, Stamp: stamp}
	if err != nil {
		rep.Err = err.Error()
	}
	srv.replies.put(call, rep)
	srv.svc.metrics.execLatency.Observe(d)
	srv.svc.span(trace, flight.StReplicaExecute, 0, d)
	return rep, true
}

// collectReply files one replica's reply with the call's collection, if
// this member is still gathering for it, and answers the client when it
// completes the quorum (the live server roster; closed clients in the view
// never reply).
func (srv *Server) collectReply(rep invReply) {
	srv.mu.Lock()
	c := srv.collectors[rep.Call]
	servers := len(srv.roster)
	srv.mu.Unlock()
	if c != nil && c.add(rep, servers) {
		srv.conclude(c)
	}
}

// onGroupView intersects the roster with the new view, re-announces when
// newcomers appear (so late joiners learn the roster), and re-evaluates
// pending collectors (e.g. wait-for-all with a crashed member).
func (srv *Server) onGroupView(v *gcs.View) {
	srv.execMu.Lock()
	srv.view = v.Clone()
	for p := range srv.applied {
		if !v.Contains(p) {
			delete(srv.applied, p) // see coversLocked
		}
	}
	srv.advanceLocked() // a departed sender's deliveries are all covered now
	srv.execMu.Unlock()
	srv.mu.Lock()
	for p := range srv.roster {
		if !v.Contains(p) {
			delete(srv.roster, p)
		}
	}
	grew := len(v.Members) > srv.lastView
	srv.lastView = len(v.Members)
	servers := len(srv.roster)
	cs := make([]*collection, 0, len(srv.collectors))
	for _, c := range srv.collectors {
		cs = append(cs, c)
	}
	closed := srv.closed
	srv.mu.Unlock()

	if grew && !closed {
		_ = srv.group.Multicast(context.Background(), encodeHello()) //lint:ok errdrop best-effort: roster repair re-announces on every membership change
	}
	for _, c := range cs {
		if c.settle(servers, false) {
			srv.conclude(c)
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
// it, and the view that shows every client gone detaches the binding.
func (srv *Server) bindingHandler(b *gcs.Group, bind *bindRequest) func(gcs.Event) {
	me := srv.svc.ID()
	detached := false // handler calls are serialised
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
		case ev.Type == gcs.EventView && srv.clientsGone(ev.View):
			// Every client has gone: the group has served its purpose.
			detached = true
			srv.detachBinding(bind.Group, b)
		}
	}
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

// clientsGone reports whether a binding view contains no process besides
// local server members of the served group.
func (srv *Server) clientsGone(v *gcs.View) bool {
	sg := srv.group.View()
	for _, m := range v.Members {
		if m == srv.svc.ID() {
			continue
		}
		if !sg.Contains(m) {
			return false // a client (non-server) is still present
		}
	}
	return true
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
	rmCollect rmPolicy = iota // group order first; answer on the mode's quorum over the roster
	rmPrimary                 // this member first, outside the order; answer at once, then forward (§4.2)
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
// request delivered in an open client/server or client monitor group.
func (srv *Server) serveAsRM(b *gcs.Group, bind *bindRequest, req *invRequest) {
	srv.mu.Lock()
	if bind.Monitor && !srv.seen.put(req.Call, struct{}{}) {
		// Filter the duplicate requests that every client-group member
		// issues (paper §4.3): first copy wins.
		srv.mu.Unlock()
		srv.svc.metrics.monitorDups.Inc()
		return
	}
	set, answered := srv.sets.get(req.Call)
	_, gathering := srv.collectors[req.Call]
	srv.mu.Unlock()
	client := req.Client
	if bind.Monitor {
		client = "" // every member of the client group must see the set: multicast it
	}
	switch {
	case answered:
		// Retried call: resend the retained aggregated reply (§4.1). This is
		// also what repairs a lost or late answer.
		if req.Mode != OneWay {
			srv.answer(b, client, set, 0)
		}
		return
	case gathering:
		// Retried while still gathering: a direct reply may have been lost
		// (it rides no reliable multicast). Forward again — every replica
		// answers a call it has executed from its retained reply, so the
		// missing one arrives and nothing executes twice.
		srv.relay(req, false)
		return
	}
	srv.svc.span(req.Trace, flight.StRMReceive, uint64(req.Mode), 0)

	pol := rmPolicyOf(bind, req)
	if pol == rmOneWay {
		srv.relay(req, false)
		return
	}
	// Stay audible in the client/server group while serving: the waiting
	// client holds the group's attention and would suspect a silent
	// manager whose reply is delayed by server-group work.
	b.Attend()
	if pol == rmPrimary {
		// The reply carries the newest stamp applied so far. It leaves before
		// the forward, which is what must stay off the critical path (§4.2);
		// the forward stays under execMu so the backups apply requests in
		// exactly the primary's execution order.
		srv.execMu.Lock()
		rep, fresh := srv.executeLocked(req.Call, req.Method, req.Args, srv.lastExec, req.Trace)
		srv.answer(b, client, primaryAnswer(rep), req.Trace)
		if fresh {
			srv.relay(req, true)
		}
		srv.execMu.Unlock()
		b.Unattend()
		return
	}
	// Gather the direct replies: the completing one, a view change that
	// shrinks the quorum or the deadline concludes. Hold the server group's
	// attention meanwhile: a replica that dies before replying must be
	// suspected so the quorum shrinks.
	c := &collection{trace: req.Trace, b: b, client: client, start: time.Now()}
	c.set.Call, c.mode = req.Call, req.Mode
	srv.group.Attend()
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	c.replies = c.inline[:0]
	if need := c.mode.need(len(srv.roster)); need > len(c.inline) {
		c.replies = make([]invReply, 0, need)
	}
	srv.collectors[req.Call] = c
	srv.mu.Unlock()
	srv.relay(req, false)
}

// primarySet is the reply set of a primary's answer (rmPrimary): its one
// reply rides inline, so the answer is one allocation.
type primarySet struct {
	invReplySet
	one [1]invReply
}

func primaryAnswer(rep invReply) *invReplySet {
	p := &primarySet{one: [1]invReply{rep}}
	p.Call, p.Replies = rep.Call, p.one[:]
	return &p.invReplySet
}

// relay forwards a client's request into the server group (fig. 4(ii)),
// marked as the primary's when it executed first.
func (srv *Server) relay(req *invRequest, primary bool) {
	fwd := *req
	fwd.Forwarded, fwd.AsyncFwd = true, primary
	srv.svc.metrics.rmRelays.Inc()
	start := time.Now()
	w := wire.GetWriter()
	putRequest(w, &fwd)
	//lint:ok lockblock deliberate: the primary forwards under execMu so backups see its execution order (§4.2)
	_ = srv.group.Multicast(srv.ctx, w.Bytes()) //lint:ok errdrop best-effort: a collection answers with what arrives by its deadline, a primary's client has its reply, one-way promises nothing
	wire.PutWriter(w)
	srv.svc.span(req.Trace, flight.StRMForward, 0, time.Since(start))
}

// collection is one call this request manager is gathering replies for, in
// one allocation: the replies ride inline while the mode's quorum fits, and
// the reply set that answers the call (set, whose Call names it) is part of
// it. The service's sweep (sweepCollections) is its deadline.
type collection struct {
	collector
	set    invReplySet
	trace  uint64
	b      *gcs.Group    // the client/server or client monitor group of the call
	client ids.ProcessID // whom the answer goes to (see answer)
	start  time.Time
	inline [inlineReplies]invReply
}

// inlineReplies is how many replies a collection holds without a separate
// allocation: the quorum of any mode over three replicas, a majority of
// five.
const inlineReplies = 3

// conclude answers a settled collection with the replies it gathered.
func (srv *Server) conclude(c *collection) {
	srv.svc.span(c.trace, flight.StRMCollect, uint64(len(c.replies)), time.Since(c.start))
	c.set.Replies = c.replies
	if len(c.replies) == 0 {
		c.set.Err = "request manager: no replies before deadline"
	}
	srv.answer(c.b, c.client, &c.set, c.trace)
	srv.group.Unattend()
	c.b.Unattend()
}

// concludeOlder concludes, with whatever has arrived, the collections begun
// before cutoff: the request manager's deadline, run by the service's sweep.
func (srv *Server) concludeOlder(cutoff time.Time) {
	srv.mu.Lock()
	var due []*collection
	for _, c := range srv.collectors {
		if c.start.Before(cutoff) {
			due = append(due, c)
		}
	}
	srv.mu.Unlock()
	for _, c := range due {
		if c.settle(0, true) {
			srv.conclude(c)
		}
	}
}

// answer retains a call's reply set for retries and returns it to the
// client of b (a resend passes trace zero: no journal). An open binding's
// client gets it point-to-point, with one ORB one-way (fig. 4(iv)): b stays
// where its request is ordered and its request manager's failure detected,
// and a lost or late answer is repaired by the retry's resend of the
// retained set. In a client monitor group (client empty) every member of the
// client group must see the set, so it is multicast in b.
func (srv *Server) answer(b *gcs.Group, client ids.ProcessID, set *invReplySet, trace uint64) {
	srv.mu.Lock()
	delete(srv.collectors, set.Call)
	srv.sets.put(set.Call, set)
	srv.mu.Unlock()

	start := time.Now()
	if client != "" {
		srv.svc.sendReply(client, b.ID(), replyMsg{To: toOpen, Set: set})
	} else {
		srv.multicastSet(b, set)
	}
	srv.svc.span(trace, flight.StRMReply, 0, time.Since(start))
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
// until the reply mode's quorum over the live servers is met. Whoever
// settles it (add and settle report true exactly once between them) owns
// the replies from then on; later arrivals are dropped.
type collector struct {
	mode ReplyMode

	mu      sync.Mutex
	replies []invReply // ordered by server
	settled bool
}

// add files one server's reply — a retry's copy replaces the original —
// and reports whether it completed the quorum of mode over servers.
func (c *collector) add(rep invReply, servers int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled {
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
	c.settled = len(c.replies) >= c.mode.need(servers)
	return c.settled
}

// settle ends the collection if the replies already in meet the quorum over
// servers — a membership change shrank it: wait-for-all with a crashed
// member — or, with force, whatever has arrived (the deadline).
func (c *collector) settle(servers int, force bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled || !force && len(c.replies) < c.mode.need(servers) {
		return false
	}
	c.settled = true
	return true
}

// DebugGroup exposes the server group for white-box diagnostics.
func (srv *Server) DebugGroup() *gcs.Group { return srv.group }
