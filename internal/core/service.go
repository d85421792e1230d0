package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/orb"
	"newtop/internal/seqring"
	"newtop/internal/transport"
	"newtop/internal/wire"
)

// controlObject is the ORB servant every Service registers; clients use it
// to discover server-group membership and to pull servers into client/server
// groups, and servers to deliver their point-to-point answers.
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
	// strs interns the identifiers every decoded envelope names.
	strs interner

	mu      sync.Mutex
	servers map[ids.GroupID]*Server
	// attached holds the client-side attachments by the group they formed —
	// a closed binding's server group, an open binding's client/server group
	// — which is what a "reply" one-way for them names (routeReply).
	attached map[ids.GroupID]*engine
	nextCall uint64
	// calls counts the holds on each call number above the floor: one per
	// call outstanding under it (its allocator's, a Proxy's across all its
	// attempts, a WithCallID retry's), which an async-forward call that ended
	// unanswered keeps past its end until its relay is known to be ordered
	// (engine.unsure).
	// The floor every request carries — the lowest number this process may
	// still retry — is calls.Floor()+1: every number below it is done.
	calls  seqring.Ring[uint32]
	closed bool
	// binds numbers this process's client/server groups.
	binds   atomic.Uint64
	probing bool // probeClients and sweepCollections are running

	// ctx is cancelled by Close; it ends the client prober and the
	// collection sweep and parents the servers' contexts.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewService starts an NSO on the endpoint. The service owns the
// endpoint. Instruments register in the process-wide observability
// domain; use NewServiceObs to direct them elsewhere.
func NewService(ep transport.Endpoint) *Service { return NewServiceObs(ep, obs.Default()) }

// NewServiceObs is NewService with an explicit observability domain (the
// bench harness gives each experiment world its own).
func NewServiceObs(ep transport.Endpoint, o *obs.Obs) *Service {
	mux := transport.NewMuxObs(ep, o)
	s := &Service{
		mux:      mux,
		node:     gcs.NewNodeObs(mux.Channel(transport.ProtoGCS), o),
		orb:      orb.NewObs(mux.Channel(transport.ProtoORB), o),
		obs:      o,
		metrics:  newCoreMetrics(o),
		fr:       o.Flight,
		frProc:   o.Flight.Proc(string(ep.ID())),
		servers:  make(map[ids.GroupID]*Server),
		attached: make(map[ids.GroupID]*engine),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.orb.Register(controlObject, s.control)
	s.orb.HandleOneWay(controlObject, "reply", s.routeReply)
	s.orb.HandleTwoWay(controlObject, "read", s.readInline)
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
	var st gcs.Stats
	for _, srv := range s.serverList() {
		st = st.Plus(srv.Stats())
	}
	return st
}

// Obs returns the service's observability domain (registry + journal).
func (s *Service) Obs() *obs.Obs { return s.obs }

// span journals one stage this process ran in an invocation's trace: begun
// at start, a clock reading, and run for d. The event is stamped at the
// stage's end, start+d, so the clock read that timed the stage also stamps
// it. Each process journals its own stages; the call's tree is the merge of
// the journals (flight.Traces).
func (s *Service) span(trace uint64, stage flight.CallStage, detail uint64, start time.Time, d time.Duration) {
	if trace != 0 {
		s.fr.RecordAt(flight.Stamp(start)+int64(d), flight.Event{Type: flight.EvStage, Proc: s.frProc,
			Sender: flight.NoSender, MsgSeq: trace, A: flight.StageWord(stage, detail), B: uint64(d)})
	}
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
	s.mu.Unlock()

	s.cancel()
	s.obs.Reg.DropCollector(s.aggCollectorKey())
	for _, srv := range s.serverList() {
		_ = srv.Close()
	}
	s.wg.Wait()
	_ = s.node.Close()
	// The node has left every group, so no view will break the attachments
	// still held: break them here.
	s.mu.Lock()
	attached := s.attached
	s.attached = make(map[ids.GroupID]*engine)
	s.mu.Unlock()
	for _, e := range attached {
		e.mu.Lock()
		doomed := e.breakLocked()
		e.mu.Unlock()
		failAll(doomed)
	}
	_ = s.orb.Close()
	return s.mux.Close()
}

// newCall allocates a fresh call identifier, held by its caller until it
// releases it, and returns it with the floor: the lowest number not done.
func (s *Service) newCall() (ids.CallID, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextCall++
	*s.calls.Ensure(s.nextCall) = 1
	return ids.CallID{Client: s.ID(), Number: s.nextCall}, s.calls.Floor() + 1
}

// holdNamed takes a hold on a call a request names (WithCallID) for as long
// as the call is outstanding, and returns the floor the request carries:
// none for another client's call. One of this process's own numbers that
// is done is a stale retry, refused before anything is sent — so a request
// never carries a floor past its own call. A number this process never
// allocated is not held.
func (s *Service) holdNamed(call ids.CallID) (floor uint64, held bool, err error) {
	if call.Client != s.ID() {
		return 0, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case call.Number <= s.calls.Floor():
		return 0, false, ErrStaleRetry
	case call.Number <= s.nextCall:
		*s.calls.At(call.Number)++
		held = true
	}
	return s.calls.Floor() + 1, held, nil
}

// release drops one hold on n; the floor rises past every number left with
// none.
func (s *Service) release(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.calls.At(n); h != nil && *h > 0 {
		*h--
	}
	for s.calls.Floor() < s.nextCall {
		if h := s.calls.At(s.calls.Floor() + 1); h != nil && *h > 0 {
			break
		}
		s.calls.PopFront()
	}
}

// routeReply is the sink of the "reply" one-way, the single fan-in of
// point-to-point answers. The envelope names the group an answer is for, and
// one map lookup finds its addressee: a replica's reply to this process as
// request manager of that server group, a replica's reply to this process's
// closed binding to it, or a request manager's reply set for this process's
// open binding through that client/server group. It runs on the ORB's
// receive loop. An answer whose addressee is gone — a late one, after the
// view change that broke its attachment — finds nothing and is dropped; the
// retry that replaced it is answered afresh.
func (s *Service) routeReply(args []byte) {
	var m inboundReply
	if decodeReplyMsg(args, &s.strs, &m) != nil {
		return
	}
	var srv *Server
	var e *engine
	s.mu.Lock()
	if m.To == toRM {
		srv = s.servers[ids.GroupID(m.Group)]
	} else {
		e = s.attached[ids.GroupID(m.Group)]
	}
	s.mu.Unlock()
	switch {
	case srv != nil:
		srv.collectReply(m.Reply)
	case e == nil:
	case m.To == toOpen:
		e.onAnswer(m.Answer)
	default:
		e.onDirectReply(m.Reply)
	}
}

// startProbing starts the service's client prober and its collection
// sweep, once: the first binding group any of its servers joins starts
// them, and only a binding brings a request manager calls to collect.
func (s *Service) startProbing() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probing || s.closed {
		return
	}
	s.probing = true
	s.wg.Add(2)
	go s.probeClients()
	go s.sweepCollections()
}

// sweepsPerWait is how many collection sweeps run per rmWait: a collection
// that hears too little concludes between rmWait and rmWait plus one sweep
// period after it began.
const sweepsPerWait = 10

// sweepCollections is the one deadline of every collection its servers
// hold, so that a call costs no timer: each sweep concludes, with whatever
// has arrived, the collections older than rmWait.
func (s *Service) sweepCollections() {
	defer s.wg.Done()
	t := time.NewTicker(rmWait / sweepsPerWait)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-t.C:
			for _, srv := range s.serverList() {
				srv.concludeOlder(now.Add(-rmWait))
			}
		}
	}
}

// probeClients is the service's one client prober: each round, the shortest
// ClientProbe of its servers after the last, every server pings the clients
// of its binding groups.
func (s *Service) probeClients() {
	defer s.wg.Done()
	for {
		every := defaultClientProbe
		for i, srv := range s.serverList() {
			if i == 0 || srv.cfg.ClientProbe < every {
				every = srv.cfg.ClientProbe
			}
		}
		t := time.NewTimer(every)
		select {
		case <-s.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		for _, srv := range s.serverList() {
			srv.probeClients()
		}
	}
}

// serverList returns the server roles this service hosts.
func (s *Service) serverList() []*Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	servers := make([]*Server, 0, len(s.servers))
	for _, srv := range s.servers {
		servers = append(servers, srv)
	}
	return servers
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
		srv := s.serverFor(req.ServerGroup)
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", req.ServerGroup)
		}
		return nil, srv.joinBindingGroup(req)
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
		var req readRequest
		if err := decodeReadRequest(args, &s.strs, &req); err != nil {
			return nil, err
		}
		srv := s.serverFor(req.Group)
		if srv == nil {
			return nil, fmt.Errorf("core: not serving group %q", req.Group)
		}
		var rep readReply
		srv.serveRead(&req, &rep)
		return encodeReadReply(&rep), nil
	case "ping":
		return []byte("pong"), nil
	default:
		return nil, fmt.Errorf("core: unknown control method %q", method)
	}
}

// readInline is the "read" control call's inline handler: the ORB runs it
// on its receive loop, and a read it answers there (tryServeRead) costs no
// goroutine, its reply written straight into the reply frame. Any other
// read — one that would have to wait, or one control must refuse — goes
// back to the ORB, which hands it to control on a goroutine of its own.
func (s *Service) readInline(args []byte, w *wire.Writer) error {
	var req readRequest
	if decodeReadRequest(args, &s.strs, &req) != nil {
		return orb.ErrWouldBlock
	}
	srv := s.serverFor(req.Group)
	var rep readReply
	if srv == nil || !srv.tryServeRead(&req, &rep) {
		return orb.ErrWouldBlock
	}
	putReadReply(w, &rep)
	return nil
}

// sendReply answers whoever gathers a call's replies point-to-point — a
// replica's reply to the request manager or a closed-bound client (the
// paper's m5), a request manager's reply set to an open binding's client —
// with one "reply" one-way: one CORBA invocation, no multicast, the envelope
// written straight into the ORB frame; it names group, the group m is for.
// Best-effort: a lost answer is repaired by the client's retry, which every
// server answers from its retained reply and a request manager from its
// retained reply set.
func (s *Service) sendReply(to ids.ProcessID, group ids.GroupID, m replyMsg) {
	m.Group = []byte(group)
	_ = s.orb.InvokeOneWay(orb.Ref{Target: to, Object: controlObject}, "reply", m.put)
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

// DebugNewCall allocates a call identifier for a test to issue, and retry,
// by hand (WithCallID). Nothing releases it: the process's floor stays at
// it, so the servers retain every call from it on.
func (s *Service) DebugNewCall() ids.CallID {
	id, _ := s.newCall()
	return id
}
