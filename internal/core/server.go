package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// Handler implements the replicated application object hosted by a server
// group member. Invocations are executed in delivery (total) order, one at
// a time, so deterministic handlers keep replicas consistent.
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
	// RMWait bounds how long this member, acting as a request manager,
	// gathers replies before answering with what it has (default 10s).
	RMWait time.Duration
	// ClientProbe is how often a server pings the clients of its
	// client/server groups to garbage-collect bindings whose client died
	// while the group was idle (default 30s).
	ClientProbe time.Duration
}

// Server is one member of a server group: it executes requests delivered
// through the server group and serves as request manager for any open
// client/server or client monitor groups it has been pulled into.
type Server struct {
	svc    *Service
	cfg    ServeConfig
	group  *gcs.Group
	rmWait time.Duration

	// execMu serializes handler executions (and the forwards that must
	// mirror their order) so replica state evolves deterministically.
	execMu   sync.Mutex
	replies  *replyCache  // executed calls: exactly-once across retries
	lastExec vclock.Stamp // total-order position of the last execution

	mu         sync.Mutex
	roster     map[ids.ProcessID]bool // fellow servers (hello ∩ view)
	lastView   int                    // size of the previously observed view
	collectors map[ids.CallID]*collector
	sets       map[ids.CallID]*invReplySet // request-manager answers, for retries
	setOrder   []ids.CallID
	bindings   map[ids.GroupID]*gcs.Group
	seen       map[ids.CallID]bool // monitor-group duplicate filter
	seenOrder  []ids.CallID
	closed     bool

	// A replica's state-transfer prologue (statetransfer.go): while
	// catching is set, groupLoop parks execution requests in catchBuf.
	catchMu  sync.Mutex
	catching bool
	catchBuf []bufferedReq

	loopDone chan struct{}
	wg       sync.WaitGroup
}

// cacheCap bounds the retained-reply, reply-set and duplicate-filter
// caches.
const cacheCap = 4096

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
	if cfg.RMWait <= 0 {
		cfg.RMWait = defaultRMWait
	}
	if cfg.ClientProbe <= 0 {
		cfg.ClientProbe = 30 * time.Second
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
		rmWait:     cfg.RMWait,
		replies:    newReplyCache(cacheCap),
		roster:     map[ids.ProcessID]bool{s.ID(): true},
		collectors: make(map[ids.CallID]*collector),
		sets:       make(map[ids.CallID]*invReplySet),
		bindings:   make(map[ids.GroupID]*gcs.Group),
		seen:       make(map[ids.CallID]bool),
		loopDone:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
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

	if replica {
		// A replica buffers its deliveries until the snapshot is in, so
		// it consumes through its own goroutine for its lifetime (a group
		// has exactly one consumption mode).
		srv.catching = true
		go srv.groupLoop()
	} else {
		// Plain servers run straight off the dispatch stage: the group's
		// events are handed to handleGroupEvent by a dispatch worker, in
		// delivery order, with no per-server consumer goroutine or channel
		// hop. Leave() quiesces the dispatch queue, so no handler call
		// survives Close.
		close(srv.loopDone)
		srv.group.SetHandler(srv.handleGroupEvent)
	}
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
	srv.mu.Lock()
	bindings := make([]*gcs.Group, 0, len(srv.bindings))
	for _, b := range srv.bindings {
		bindings = append(bindings, b)
	}
	srv.mu.Unlock()
	st := srv.group.Stats()
	for _, b := range bindings {
		st = st.Plus(b.Stats())
	}
	return st
}

// Close leaves the server group and every binding group.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.closed = true
	bindings := make([]*gcs.Group, 0, len(srv.bindings))
	for _, b := range srv.bindings {
		bindings = append(bindings, b)
	}
	for _, c := range srv.collectors {
		c.cancel()
	}
	srv.mu.Unlock()

	srv.svc.mu.Lock()
	delete(srv.svc.servers, srv.cfg.Group)
	srv.svc.mu.Unlock()
	srv.svc.obs.Reg.DropCollector("core_server_" + obs.Sanitize(string(srv.cfg.Group)) + "_")

	for _, b := range bindings {
		_ = b.Leave()
	}
	_ = srv.group.Leave()
	<-srv.loopDone
	srv.wg.Wait()
	return nil
}

// groupLoop consumes a replica's server-group delivery stream, parking
// execution requests while the state transfer runs. Plain servers skip
// this goroutine entirely (SetHandler in serve).
func (srv *Server) groupLoop() {
	defer close(srv.loopDone)
	consumeEvents(srv.group, func(ev gcs.Event) bool {
		if !srv.bufferForCatchup(ev) {
			srv.handleGroupEvent(ev)
		}
		return true
	})
}

// handleGroupEvent dispatches one server-group event.
func (srv *Server) handleGroupEvent(ev gcs.Event) {
	switch ev.Type {
	case gcs.EventDeliver:
		if srv.uncollectedReply(ev.Deliver.Payload) {
			srv.noteApplied(ev.Deliver.Stamp)
			return
		}
		msg, err := decodePayload(ev.Deliver.Payload)
		if err == nil {
			switch m := msg.(type) {
			case *invRequest:
				switch {
				case m.Forwarded:
					srv.serveForwarded(m, ev.Deliver.Stamp)
				case m.Style == Closed:
					// A closed-bound client (a fellow group member)
					// multicast this request; execute and reply straight
					// to it (fig. 3(i)).
					srv.serveClosed(m, ev.Deliver.Stamp)
				}
			case *invReply:
				srv.collectReply(*m)
			case helloMsg:
				srv.mu.Lock()
				srv.roster[ev.Deliver.Sender] = true
				srv.mu.Unlock()
			}
		}
		// Every delivered position is applied once handled: requests by
		// executeOnce above, everything else (gathered replies, roster
		// hellos, unparseable payloads) vacuously. Reads wait on delivery
		// stamps (session floors, read-index frontiers), so the executed
		// frontier must cover non-request traffic too or a read could
		// stall on a stamp no execution will ever carry.
		srv.noteApplied(ev.Deliver.Stamp)
	case gcs.EventView:
		srv.onGroupView(ev.View)
	}
}

// uncollectedReply reports whether payload is a replica's reply to a call
// this member gathers no replies for. Every member is delivered every
// reply, but only the call's request manager holds a collector; the others
// skip the decode.
func (srv *Server) uncollectedReply(payload []byte) bool {
	client, number, ok := peekReplyCall(payload)
	if !ok {
		return false
	}
	srv.mu.Lock()
	_, collecting := srv.collectors[ids.CallID{Client: ids.ProcessID(client), Number: number}]
	srv.mu.Unlock()
	return !collecting
}

// noteApplied advances the executed-prefix stamp past a consumed,
// state-neutral delivery.
func (srv *Server) noteApplied(stamp vclock.Stamp) {
	srv.execMu.Lock()
	if srv.lastExec.Less(stamp) {
		srv.lastExec = stamp
	}
	srv.execMu.Unlock()
}

// serveForwarded executes a request distributed through the server group
// (paper fig. 4(ii)→(iii)): every member executes it in the same total
// order and, unless the optimised asynchronous-forwarding path or one-way
// mode suppresses replies, multicasts its reply within the group.
func (srv *Server) serveForwarded(req *invRequest, stamp vclock.Stamp) {
	rep, fresh := srv.executeOnce(req.Call, req.Method, req.Args, stamp, req.Trace)
	if req.AsyncFwd || req.Mode == OneWay {
		return
	}
	_ = fresh                                                       // a retried call re-multicasts the retained reply (§4.1)
	_ = srv.group.Multicast(context.Background(), encodeReply(rep)) //lint:ok errdrop best-effort: the client retries and gets the retained reply
}

// executeOnce runs the handler for a call exactly once; retries get the
// retained reply (the paper's standard retry/dedup technique, §4.1).
func (srv *Server) executeOnce(call ids.CallID, method string, args []byte, stamp vclock.Stamp, trace uint64) (invReply, bool) {
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	if rep, ok := srv.replies.get(call); ok {
		rep.Trace = trace
		return rep, false
	}
	start := time.Now()
	payload, err := srv.cfg.Handler(method, args)
	d := time.Since(start)
	rep := invReply{Call: call, Server: srv.svc.ID(), Payload: payload, Trace: trace, ExecNanos: int64(d), Stamp: stamp}
	if err != nil {
		rep.Err = err.Error()
	}
	srv.replies.put(call, rep)
	if srv.lastExec.Less(stamp) {
		srv.lastExec = stamp
	}
	srv.svc.metrics.execLatency.Observe(d)
	srv.svc.obs.Tracer.Record(obs.Span{
		Trace: obs.TraceID(trace),
		Stage: "replica.execute",
		Proc:  string(srv.svc.ID()),
		Depth: 3,
		Start: start,
		Dur:   d,
		Note:  "method=" + method,
	})
	return rep, true
}

// collectReply routes a server-group reply to the collector gathering it.
func (srv *Server) collectReply(rep invReply) {
	// Reconstruct the remote replica's execution span from the envelope's
	// self-reported duration (our own executions are recorded locally with
	// true wall-clock positions, so skip those). Anchoring at receipt time
	// keeps the span clock-skew-free at the cost of a small transit shift.
	if rep.Trace != 0 && rep.Server != srv.svc.ID() && rep.ExecNanos > 0 {
		d := time.Duration(rep.ExecNanos)
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: obs.TraceID(rep.Trace),
			Stage: "replica.execute",
			Proc:  string(rep.Server),
			Depth: 3,
			Start: time.Now().Add(-d),
			Dur:   d,
			Note:  "reported by envelope",
		})
	}
	srv.mu.Lock()
	c := srv.collectors[rep.Call]
	srv.mu.Unlock()
	if c != nil {
		c.add(rep, srv.need(c.mode))
	}
}

// need computes the reply quorum for a mode against the live server
// roster (closed clients in the view never reply).
func (srv *Server) need(mode ReplyMode) int {
	srv.mu.Lock()
	n := len(srv.roster)
	srv.mu.Unlock()
	return mode.need(n)
}

// onGroupView intersects the roster with the new view, re-announces when
// newcomers appear (so late joiners learn the roster), and re-evaluates
// pending collectors (e.g. wait-for-all with a crashed member).
func (srv *Server) onGroupView(v *gcs.View) {
	srv.mu.Lock()
	for p := range srv.roster {
		if !v.Contains(p) {
			delete(srv.roster, p)
		}
	}
	grew := len(v.Members) > srv.lastView
	srv.lastView = len(v.Members)
	cs := make([]*collector, 0, len(srv.collectors))
	for _, c := range srv.collectors {
		cs = append(cs, c)
	}
	closed := srv.closed
	srv.mu.Unlock()

	if grew && !closed {
		_ = srv.group.Multicast(context.Background(), encodeHello()) //lint:ok errdrop best-effort: roster repair re-announces on every membership change
	}
	for _, c := range cs {
		c.recheck(srv.need(c.mode))
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

	probeStop := make(chan struct{})
	srv.wg.Add(2)
	go func() {
		defer srv.wg.Done()
		defer close(probeStop)
		srv.bindingLoop(b, req)
	}()
	go func() {
		defer srv.wg.Done()
		srv.probeClients(b, probeStop)
	}()
	return nil
}

// probeClients periodically pings the client members of a binding group;
// a client that stopped answering is reported to the membership service
// so the group disbands even if it was idle when the client died (an
// idle event-driven group runs no suspector of its own).
func (srv *Server) probeClients(b *gcs.Group, stop <-chan struct{}) {
	ticker := time.NewTicker(srv.cfg.ClientProbe)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		sg := srv.group.View()
		for _, m := range b.View().Members {
			if m == srv.svc.ID() || sg.Contains(m) {
				continue // ourselves or fellow servers
			}
			ctx, cancel := context.WithTimeout(context.Background(), srv.cfg.ClientProbe/2)
			_, err := srv.svc.invokeControl(ctx, m, "ping", nil)
			cancel()
			if err != nil {
				b.Suspect(m)
			}
		}
	}
}

// bindingLoop serves one client/server (or client monitor) group.
func (srv *Server) bindingLoop(b *gcs.Group, bind *bindRequest) {
	me := srv.svc.ID()
	consumeEvents(b, func(ev gcs.Event) bool {
		switch ev.Type {
		case gcs.EventDeliver:
			if ev.Deliver.Sender == me {
				return true // our own reply-set multicasts
			}
			msg, err := decodePayload(ev.Deliver.Payload)
			if err != nil {
				return true
			}
			if req, ok := msg.(*invRequest); ok && !req.Forwarded && bind.Style == Open {
				srv.serveAsRM(b, bind, req)
			}
		case gcs.EventView:
			// When every client has gone, the client/server group has
			// served its purpose: leave it.
			if srv.clientsGone(ev.View) {
				srv.detachBinding(bind.Group, b)
				return false
			}
		}
		return true
	})
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

// detachBinding removes and leaves a binding group.
func (srv *Server) detachBinding(gid ids.GroupID, b *gcs.Group) {
	srv.mu.Lock()
	delete(srv.bindings, gid)
	srv.mu.Unlock()
	_ = b.Leave()
}

// serveClosed handles a request delivered in a closed client/server
// group: execute and reply straight to the client (paper fig. 3(i)).
func (srv *Server) serveClosed(req *invRequest, stamp vclock.Stamp) {
	rep, _ := srv.executeOnce(req.Call, req.Method, req.Args, stamp, req.Trace)
	if req.Mode == OneWay {
		return
	}
	srv.svc.sendDirectReply(req.Client, rep)
}

// serveAsRM handles a request delivered in an open client/server or
// client monitor group, acting as the request manager (paper fig. 4).
func (srv *Server) serveAsRM(b *gcs.Group, bind *bindRequest, req *invRequest) {
	srv.mu.Lock()
	if bind.Monitor {
		// Filter the duplicate requests that every client-group member
		// issues (paper §4.3): first copy wins.
		if srv.seen[req.Call] {
			srv.mu.Unlock()
			srv.svc.metrics.monitorDups.Inc()
			return
		}
		srv.seen[req.Call] = true
		srv.seenOrder = append(srv.seenOrder, req.Call)
		if len(srv.seenOrder) > cacheCap {
			delete(srv.seen, srv.seenOrder[0])
			srv.seenOrder = srv.seenOrder[1:]
		}
	}
	if set, ok := srv.sets[req.Call]; ok {
		// Retried call: resend the retained aggregated reply (§4.1).
		srv.mu.Unlock()
		if req.Mode != OneWay {
			resend := *set
			resend.Trace = req.Trace
			_ = b.Multicast(context.Background(), encodeReplySet(&resend)) //lint:ok errdrop best-effort: a lost resend just triggers another client retry
		}
		return
	}
	if _, inFlight := srv.collectors[req.Call]; inFlight {
		srv.mu.Unlock()
		return
	}
	srv.mu.Unlock()

	srv.recordRMReceive(req)

	if req.Mode == OneWay {
		// Distribute and return: nobody is waiting.
		fwd := *req
		fwd.Forwarded = true
		srv.svc.metrics.rmRelays.Inc()
		_ = srv.group.Multicast(context.Background(), encodeRequest(&fwd)) //lint:ok errdrop best-effort: one-way semantics promise no delivery guarantee to the caller
		return
	}
	// Stay audible in the client/server group while serving: the waiting
	// client holds the group's attention and would suspect a silent
	// manager whose reply is delayed by server-group work.
	b.Attend()
	if bind.AsyncFwd && req.Mode == First {
		defer b.Unattend()
		srv.serveAsyncForward(b, req)
		return
	}
	srv.serveCollected(b, req)
}

// recordRMReceive stitches the request manager's end of the trace: a
// synthesized client.send span from the envelope's departure timestamp
// (clients and request manager may disagree on clocks — the span is
// labelled as reported) and the rm.receive marker itself.
func (srv *Server) recordRMReceive(req *invRequest) {
	if req.Trace == 0 {
		return
	}
	now := time.Now()
	tid := obs.TraceID(req.Trace)
	if req.SentAt > 0 {
		sent := time.Unix(0, req.SentAt)
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: tid,
			Stage: "client.send",
			Proc:  string(req.Client),
			Depth: 0,
			Start: sent,
			Note:  "reported by envelope",
		})
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: tid,
			Stage: "rm.receive",
			Proc:  string(srv.svc.ID()),
			Depth: 1,
			Start: now,
			Note:  "mode=" + req.Mode.String() + " transit≈" + now.Sub(sent).Round(time.Microsecond).String(),
		})
		return
	}
	srv.svc.obs.Tracer.Record(obs.Span{
		Trace: tid,
		Stage: "rm.receive",
		Proc:  string(srv.svc.ID()),
		Depth: 1,
		Start: now,
		Note:  "mode=" + req.Mode.String(),
	})
}

// serveAsyncForward is the restricted-group + asynchronous-message-
// forwarding optimisation (§4.2): the request manager executes and
// replies immediately, forwarding the request one-way for the other
// members to apply.
func (srv *Server) serveAsyncForward(b *gcs.Group, req *invRequest) {
	srv.execMu.Lock()
	rep, fresh := func() (invReply, bool) {
		if r, ok := srv.replies.get(req.Call); ok {
			r.Trace = req.Trace
			return r, false
		}
		start := time.Now()
		payload, err := srv.cfg.Handler(req.Method, req.Args)
		d := time.Since(start)
		r := invReply{Call: req.Call, Server: srv.svc.ID(), Payload: payload, Trace: req.Trace, ExecNanos: int64(d), Stamp: srv.lastExec}
		if err != nil {
			r.Err = err.Error()
		}
		srv.replies.put(req.Call, r)
		srv.svc.metrics.execLatency.Observe(d)
		srv.svc.obs.Tracer.Record(obs.Span{
			Trace: obs.TraceID(req.Trace),
			Stage: "replica.execute",
			Proc:  string(srv.svc.ID()),
			Depth: 3,
			Start: start,
			Dur:   d,
			Note:  "method=" + req.Method,
		})
		return r, true
	}()
	// The client's reply leaves before the one-way forwarding starts —
	// the forwarding is what must not sit on the critical path (that is
	// the whole point of the optimisation, §4.2). Both stay under execMu
	// so the backups apply requests in exactly the primary's execution
	// order.
	set := &invReplySet{Call: req.Call, Replies: []invReply{rep}, Trace: req.Trace}
	srv.storeSet(set)
	replyStart := time.Now()
	//lint:ok lockblock deliberate: both multicasts stay under execMu so backups see the primary's execution order (§4.2)
	_ = b.Multicast(context.Background(), encodeReplySet(set)) //lint:ok errdrop best-effort: the client retries and gets the retained reply set
	srv.recordRMSpan(req.Trace, "rm.reply", replyStart, "async-forward")
	if fresh {
		fwd := *req
		fwd.Forwarded = true
		fwd.AsyncFwd = true
		srv.svc.metrics.rmRelays.Inc()
		fwdStart := time.Now()
		//lint:ok lockblock deliberate: both multicasts stay under execMu so backups see the primary's execution order (§4.2)
		_ = srv.group.Multicast(context.Background(), encodeRequest(&fwd)) //lint:ok errdrop best-effort: backups only lose a state refresh, the reply already left
		srv.recordRMSpan(req.Trace, "rm.forward", fwdStart, "one-way")
	}
	srv.execMu.Unlock()
}

// recordRMSpan records one request-manager stage span.
func (srv *Server) recordRMSpan(trace uint64, stage string, start time.Time, note string) {
	if trace == 0 {
		return
	}
	srv.svc.obs.Tracer.Record(obs.Span{
		Trace: obs.TraceID(trace),
		Stage: stage,
		Proc:  string(srv.svc.ID()),
		Depth: 2,
		Start: start,
		Dur:   time.Since(start),
		Note:  note,
	})
}

// serveCollected is the standard open-group path: distribute the request
// in the server group, gather replies per the reply mode, return the
// aggregate to the client group.
func (srv *Server) serveCollected(b *gcs.Group, req *invRequest) {
	c := newCollector(req.Call, req.Mode)
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.collectors[req.Call] = c
	srv.mu.Unlock()

	fwd := *req
	fwd.Forwarded = true
	// Hold the server group's attention while gathering: a replica that
	// dies after receiving the forwarded request but before replying must
	// be suspected so the quorum shrinks.
	srv.group.Attend()
	srv.svc.metrics.rmRelays.Inc()
	fwdStart := time.Now()
	_ = srv.group.Multicast(context.Background(), encodeRequest(&fwd)) //lint:ok errdrop best-effort: the collector times out and aggregates whatever replies arrive
	srv.recordRMSpan(req.Trace, "rm.forward", fwdStart, "server-group multicast")

	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		defer srv.group.Unattend()
		defer b.Unattend()
		collectStart := time.Now()
		set := c.wait(srv.rmWait)
		srv.recordRMSpan(req.Trace, "rm.collect", collectStart, fmt.Sprintf("replies=%d", len(set.Replies)))
		srv.mu.Lock()
		delete(srv.collectors, req.Call)
		srv.mu.Unlock()
		set.Trace = req.Trace
		srv.storeSet(set)
		replyStart := time.Now()
		_ = b.Multicast(context.Background(), encodeReplySet(set)) //lint:ok errdrop best-effort: the client retries and gets the retained reply set
		srv.recordRMSpan(req.Trace, "rm.reply", replyStart, "client-group multicast")
	}()
}

// storeSet retains an aggregated reply for retries.
func (srv *Server) storeSet(set *invReplySet) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, ok := srv.sets[set.Call]; ok {
		return
	}
	srv.sets[set.Call] = set
	srv.setOrder = append(srv.setOrder, set.Call)
	if len(srv.setOrder) > cacheCap {
		delete(srv.sets, srv.setOrder[0])
		srv.setOrder = srv.setOrder[1:]
	}
}

// collector gathers server replies for one request-managed call.
type collector struct {
	call ids.CallID
	mode ReplyMode

	mu      sync.Mutex
	replies map[ids.ProcessID]invReply
	done    chan struct{}
	closed  bool
}

func newCollector(call ids.CallID, mode ReplyMode) *collector {
	return &collector{
		call:    call,
		mode:    mode,
		replies: make(map[ids.ProcessID]invReply),
		done:    make(chan struct{}),
	}
}

func (c *collector) add(rep invReply, need int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.replies[rep.Server] = rep
	if len(c.replies) >= need {
		c.closed = true
		close(c.done)
	}
}

func (c *collector) recheck(need int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed && len(c.replies) >= need {
		c.closed = true
		close(c.done)
	}
}

func (c *collector) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
}

// wait blocks for completion (or the deadline) and snapshots the result.
func (c *collector) wait(timeout time.Duration) *invReplySet {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	timedOut := false
	select {
	case <-c.done:
	case <-timer.C:
		timedOut = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := &invReplySet{Call: c.call, Replies: make([]invReply, 0, len(c.replies))}
	for _, rep := range c.replies {
		set.Replies = append(set.Replies, rep)
	}
	sort.Slice(set.Replies, func(i, j int) bool {
		return set.Replies[i].Server.Less(set.Replies[j].Server)
	})
	if timedOut && len(set.Replies) == 0 {
		set.Err = "request manager: no replies before deadline"
	}
	return set
}

// replyCache retains executed replies for exactly-once retry semantics.
type replyCache struct {
	m     map[ids.CallID]invReply
	order []ids.CallID
	cap   int
}

func newReplyCache(capacity int) *replyCache {
	return &replyCache{m: make(map[ids.CallID]invReply, capacity), cap: capacity}
}

func (rc *replyCache) get(call ids.CallID) (invReply, bool) {
	rep, ok := rc.m[call]
	return rep, ok
}

func (rc *replyCache) put(call ids.CallID, rep invReply) {
	if _, ok := rc.m[call]; ok {
		return
	}
	rc.m[call] = rep
	rc.order = append(rc.order, call)
	if len(rc.order) > rc.cap {
		delete(rc.m, rc.order[0])
		rc.order = rc.order[1:]
	}
}

// DebugGroup exposes the server group for white-box diagnostics.
func (srv *Server) DebugGroup() *gcs.Group { return srv.group }
