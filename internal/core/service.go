package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/orb"
	"newtop/internal/transport"
)

// controlObject is the ORB servant every Service registers; clients use it
// to discover server-group membership and to pull servers into client/server
// groups, and servers to deliver their direct replies.
const controlObject = "newtop"

// Service is one process's NewTop service object (NSO). It owns the
// process's transport endpoint, multiplexing it between the group
// communication service and the mini-ORB, and hosts any number of server
// roles and client bindings.
type Service struct {
	mux     *transport.Mux
	node    *gcs.Node
	orb     *orb.ORB
	obs     *obs.Obs
	metrics *coreMetrics
	fr      *flight.Recorder
	frProc  uint16

	mu       sync.Mutex
	servers  map[ids.GroupID]*Server
	waiters  map[ids.CallID]*callWaiter
	nextCall uint64
	closed   bool
}

// callWaiter receives the answer to one outstanding invocation: the
// request manager's reply set (open style), or the servers' direct replies
// once they meet the call's quorum (closed style).
type callWaiter struct {
	set chan *invReplySet
	// direct is the closed binding whose live servers the quorum is taken
	// over; nil for an open-style call, which gathers nothing itself.
	direct *Binding
	collector
}

// NewService starts an NSO on the endpoint. The service owns the
// endpoint. Instruments register in the process-wide observability
// domain; use NewServiceObs to direct them elsewhere.
func NewService(ep transport.Endpoint) *Service { return NewServiceObs(ep, obs.Default()) }

// NewServiceObs is NewService with an explicit observability domain (the
// bench harness gives each experiment world its own).
func NewServiceObs(ep transport.Endpoint, o *obs.Obs) *Service {
	return NewServiceCfg(ep, o, gcs.NodeConfig{})
}

// NewServiceCfg is NewServiceObs with an explicit delivery-engine
// configuration for the underlying gcs node (newtop-node threads its
// -dispatch-workers flag through here).
func NewServiceCfg(ep transport.Endpoint, o *obs.Obs, nc gcs.NodeConfig) *Service {
	mux := transport.NewMuxObs(ep, o)
	s := &Service{
		mux:     mux,
		node:    gcs.NewNodeCfg(mux.Channel(transport.ProtoGCS), o, nc),
		orb:     orb.NewObs(mux.Channel(transport.ProtoORB), o),
		obs:     o,
		metrics: newCoreMetrics(o),
		fr:      o.Flight,
		frProc:  o.Flight.Proc(string(ep.ID())),
		servers: make(map[ids.GroupID]*Server),
		waiters: make(map[ids.CallID]*callWaiter),
	}
	s.orb.Register(controlObject, s.control)
	s.orb.HandleOneWay(controlObject, "reply", s.routeReply)
	// The cross-group aggregate: every server role this service hosts,
	// summed field-wise and emitted as group="_total". On a sharded node
	// (one server group per shard) this is the fabric-wide view next to
	// the per-shard breakdown each role's own collector emits.
	o.Reg.SetCollector(s.aggCollectorKey(), func(emit func(name string, v int64)) {
		emitServerStats(emit, "_total", s.StatsTotal())
	})
	return s
}

// aggCollectorKey names the service's aggregate collector; keyed by
// process ID because bench worlds share one registry across services.
func (s *Service) aggCollectorKey() string {
	return "core_service_total_" + obs.Sanitize(string(s.mux.ID())) + "_"
}

// StatsTotal aggregates the group-communication counters of every server
// role this service currently hosts.
func (s *Service) StatsTotal() gcs.Stats {
	s.mu.Lock()
	servers := make([]*Server, 0, len(s.servers))
	for _, srv := range s.servers {
		servers = append(servers, srv)
	}
	s.mu.Unlock()
	var st gcs.Stats
	for _, srv := range servers {
		st = st.Plus(srv.Stats())
	}
	return st
}

// Obs returns the service's observability domain (registry + tracer).
func (s *Service) Obs() *obs.Obs { return s.obs }

// frRecord notes an invocation-layer flight event. MsgSeq carries the
// trace ID so journal entries join against the tracer's spans.
func (s *Service) frRecord(t flight.Type, trace, a, b uint64) {
	s.fr.Record(flight.Event{Type: t, Proc: s.frProc, Sender: flight.NoSender, MsgSeq: trace, A: a, B: b})
}

// ID returns the process identifier.
func (s *Service) ID() ids.ProcessID { return s.node.ID() }

// Node exposes the underlying group communication service (for peer
// participation groups, which need no invocation machinery).
func (s *Service) Node() *gcs.Node { return s.node }

// ORB exposes the underlying object request broker.
func (s *Service) ORB() *orb.ORB { return s.orb }

// Close shuts down every server role and binding, then the GCS node, the
// ORB and the endpoint.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	servers := make([]*Server, 0, len(s.servers))
	for _, srv := range s.servers {
		servers = append(servers, srv)
	}
	s.mu.Unlock()

	s.obs.Reg.DropCollector(s.aggCollectorKey())
	for _, srv := range servers {
		_ = srv.Close()
	}
	_ = s.node.Close()
	_ = s.orb.Close()
	return s.mux.Close()
}

// newCall allocates a fresh call identifier.
func (s *Service) newCall() ids.CallID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextCall++
	return ids.CallID{Client: s.ID(), Number: s.nextCall}
}

// registerWaiter installs the reply sink for one call. direct is the
// binding a closed-style call gathers its servers' replies against; an
// open-style call passes nil and is answered through set alone.
func (s *Service) registerWaiter(call ids.CallID, mode ReplyMode, direct *Binding) *callWaiter {
	w := &callWaiter{set: make(chan *invReplySet, 1), direct: direct}
	w.mode = mode
	if direct != nil {
		w.replies = make([]invReply, 0, len(direct.sgMembers))
	}
	s.mu.Lock()
	s.waiters[call] = w
	s.mu.Unlock()
	return w
}

// dropWaiter removes w as the reply sink of its call. A retry under the
// same call identifier may already have installed its own sink (a
// completed call's goroutine gets here after its caller has moved on);
// that one stays.
func (s *Service) dropWaiter(call ids.CallID, w *callWaiter) {
	s.mu.Lock()
	if s.waiters[call] == w {
		delete(s.waiters, call)
	}
	s.mu.Unlock()
}

// routeReply is the sink of the "reply" one-way, the single fan-in of
// point-to-point replies: a reply that names a server group is one of its
// replicas answering this process as request manager; any other answers a
// closed-style call of this process. It runs on the ORB's receive loop.
func (s *Service) routeReply(args []byte) {
	rmOf, rep, err := decodeReply(args)
	if err != nil {
		return
	}
	if rmOf != "" {
		if srv := s.serverFor(rmOf); srv != nil {
			srv.collectReply(rep)
		}
		return
	}
	s.mu.Lock()
	w := s.waiters[rep.Call]
	s.mu.Unlock()
	// A late reply finds no waiter; an open-style waiter of the same call
	// identifier (a retry through another binding) gathers no replies.
	if w != nil && w.direct != nil && w.add(rep, w.direct.liveServers()) {
		w.deliverDirect(rep.Call)
	}
}

// deliverDirect completes a closed-style call with its settled replies.
func (w *callWaiter) deliverDirect(call ids.CallID) {
	select {
	case w.set <- &invReplySet{Call: call, Replies: w.replies}:
	default:
	}
}

// recheckDirect re-evaluates the quorum of b's outstanding closed-style
// calls after a membership change (wait-for-all with a crashed server).
func (s *Service) recheckDirect(b *Binding) {
	servers := b.liveServers()
	s.mu.Lock()
	defer s.mu.Unlock()
	for call, w := range s.waiters {
		if w.direct == b && w.settle(servers, false) {
			w.deliverDirect(call)
		}
	}
}

// routeReplySet hands an open-style aggregated reply to its waiter and
// reports whether the call has one.
func (s *Service) routeReplySet(set *invReplySet) bool {
	s.mu.Lock()
	w := s.waiters[set.Call]
	s.mu.Unlock()
	if w == nil {
		return false
	}
	select {
	case w.set <- set:
	default:
	}
	return true
}

// consumeEvents hands g's events to fn in delivery order, one blocking
// batch pull at a time, until g closes (Leave or node close) or fn returns
// false. Every group loop of the invocation layer runs on it.
func consumeEvents(g *gcs.Group, fn func(gcs.Event) bool) {
	evs := make([]gcs.Event, transport.RecvBurst)
	for {
		n, ok := g.Recv(evs)
		if !ok {
			return
		}
		for _, ev := range evs[:n] {
			if !fn(ev) {
				return
			}
		}
		clear(evs[:n]) // an idle loop must not pin the last burst's payloads
	}
}

// serverFor returns the local server role for a group.
func (s *Service) serverFor(gid ids.GroupID) *Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.servers[gid]
}

// control is the "newtop" ORB servant.
func (s *Service) control(method string, args []byte) ([]byte, error) {
	switch method {
	case "info":
		srv := s.serverFor(ids.GroupID(args))
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", args)
		}
		return encodeProcs(srv.ServerRoster()), nil
	case "bind":
		req, err := decodeBindRequest(args)
		if err != nil {
			return nil, err
		}
		return nil, s.handleBind(req)
	case "state":
		srv := s.serverFor(ids.GroupID(args))
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", args)
		}
		snap, err := srv.takeSnapshot()
		if err != nil {
			return nil, err
		}
		return encodeStateSnapshot(snap), nil
	case "read":
		// The read path: a point-to-point read served outside the
		// ordering layer (see readserver.go). Refusals travel in-band in
		// the readReply code so the client can try another replica.
		req, err := decodeReadRequest(args)
		if err != nil {
			return nil, err
		}
		srv := s.serverFor(req.Group)
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", req.Group)
		}
		return encodeReadReply(srv.serveRead(req)), nil
	case "ping":
		return []byte("pong"), nil
	default:
		return nil, fmt.Errorf("core: unknown control method %q", method)
	}
}

// handleBind joins this server into a client/server (or client monitor)
// group and starts serving it.
func (s *Service) handleBind(req *bindRequest) error {
	srv := s.serverFor(req.ServerGroup)
	if srv == nil {
		return fmt.Errorf("core: not serving group %q", req.ServerGroup)
	}
	return srv.joinBindingGroup(req)
}

// sendDirectReply delivers one server's reply straight to the NSO gathering
// it — a closed-bound client, or (rmOf set) the request manager of that
// server group — as the paper's m5: one CORBA invocation, no multicast.
// Best-effort: a lost reply is repaired by the client's retry, which every
// server answers from its retained reply.
func (s *Service) sendDirectReply(to ids.ProcessID, rmOf ids.GroupID, rep invReply) {
	_ = s.orb.InvokeOneWay(orb.Ref{Target: to, Object: controlObject}, "reply", encodeReply(rmOf, rep))
}

// invokeControl performs a control call on a remote NSO.
func (s *Service) invokeControl(ctx context.Context, target ids.ProcessID, method string, args []byte) ([]byte, error) {
	return s.orb.Invoke(ctx, orb.Ref{Target: target, Object: controlObject}, method, args)
}

// ServerGroupMembers asks any member of a server group for its current
// membership.
func (s *Service) ServerGroupMembers(ctx context.Context, contact ids.ProcessID, group ids.GroupID) ([]ids.ProcessID, error) {
	b, err := s.invokeControl(ctx, contact, "info", []byte(group))
	if err != nil {
		return nil, err
	}
	return decodeProcs(b)
}

// defaultRMWait bounds how long a request manager gathers replies before
// answering with what it has.
const defaultRMWait = 10 * time.Second

// ensure the gcs config template carries the right defaults for
// request-reply groups: event-driven liveness unless the caller chose.
func requestReplyDefaults(cfg gcs.GroupConfig) gcs.GroupConfig {
	if cfg.Order == 0 {
		cfg.Order = gcs.OrderSequencer
	}
	if cfg.Liveness == 0 {
		cfg.Liveness = gcs.EventDriven
	}
	return cfg
}

// DebugNewCall exposes call allocation for white-box tests.
func (s *Service) DebugNewCall() ids.CallID { return s.newCall() }
