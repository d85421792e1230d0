package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// G2G is a group-to-group binding (paper §4.3): the members of a client
// group gx invoke a server group gy through a client monitor group
// gz = gx ∪ {request manager ∈ gy}. Every gx member issues each call with
// the same deterministic call number; the request manager filters the
// duplicates, forwards one copy into gy, gathers the replies and
// multicasts the aggregate in gz so every member of gx receives it
// atomically. Only one inter-group multicast occurs per call — the design
// goal the paper states for minimising gx↔gy traffic.
type G2G struct {
	svc         *Service
	clientGroup ids.GroupID
	serverGroup ids.GroupID
	group       *gcs.Group // gz, the client monitor group
	rm          ids.ProcessID
	readCons    Consistency // default Read consistency (BindConfig.ReadConsistency)

	mu       sync.Mutex
	broken   bool
	brokenCh chan struct{}
	closed   bool
	// sessStamp is this member's session token (newest applied stamp seen
	// in any aggregated reply); its reads use it as their session floor.
	sessStamp vclock.Stamp
	// early retains reply sets that arrived before this member issued the
	// call they answer. Every member of the client group issues the same
	// call and the request manager answers the first copy it sees, so the
	// answer can overtake a slower member's own launch — whose copy of the
	// request is then filtered as a duplicate and never answered again.
	early      map[ids.CallID]*invReplySet
	earlyOrder []ids.CallID

	loopDone chan struct{}
}

// earlyCap bounds the retained early reply sets.
const earlyCap = 256

// BindGroupToGroup attaches this member of clientGroup to a server group
// through a shared client monitor group. Every member of the client group
// must call it with the same configuration; cfg.Contact names the server
// that acts as request manager. The client group's leader (lowest member)
// creates the monitor group and pulls the request manager in; the other
// members join through the leader.
func (s *Service) BindGroupToGroup(ctx context.Context, clientGroup *gcs.Group, cfg BindConfig) (*G2G, error) {
	if cfg.Contact.Nil() {
		return nil, errors.New("core: group-to-group bind needs a contact (the request manager)")
	}
	if cfg.BindTimeout <= 0 {
		cfg.BindTimeout = 10 * time.Second
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	ctx, cancel := context.WithTimeout(ctx, cfg.BindTimeout)
	defer cancel()

	gzID := ids.GroupID(fmt.Sprintf("gz/%s/%s", clientGroup.ID(), cfg.ServerGroup))
	rm := cfg.Contact
	gcfg := cfg.GCS
	gcfg.Leader = rm

	cv := clientGroup.View()
	leader := ids.MinProcess(cv.Members)

	var gz *gcs.Group
	var err error
	if s.ID() == leader {
		gz, err = s.node.Create(gzID, gcfg)
		if err != nil {
			return nil, fmt.Errorf("core: create monitor group: %w", err)
		}
		bind := encodeBindRequest(&bindRequest{
			Group:       gzID,
			ServerGroup: cfg.ServerGroup,
			Contact:     s.ID(),
			Style:       Open,
			Monitor:     true,
			AsyncFwd:    cfg.AsyncForward,
			Config:      gcfg,
		})
		if _, err := s.invokeControl(ctx, rm, "bind", bind); err != nil {
			_ = gz.Leave()
			return nil, fmt.Errorf("core: bind request manager: %w", err)
		}
	} else {
		gz, err = s.node.Join(ctx, gzID, leader, gcfg)
		if err != nil {
			return nil, fmt.Errorf("core: join monitor group: %w", err)
		}
	}

	g := &G2G{
		svc:         s,
		clientGroup: clientGroup.ID(),
		serverGroup: cfg.ServerGroup,
		group:       gz,
		rm:          rm,
		readCons:    cfg.ReadConsistency,
		brokenCh:    make(chan struct{}),
		loopDone:    make(chan struct{}),
	}

	// Wait for the request manager (and ourselves) to be in the view.
	for {
		v := gz.View()
		if v.Contains(rm) && v.Contains(s.ID()) {
			break
		}
		select {
		case <-ctx.Done():
			_ = gz.Leave()
			return nil, fmt.Errorf("core: monitor group formation: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	go g.loop()
	return g, nil
}

// Group exposes the client monitor group.
func (g *G2G) Group() *gcs.Group { return g.group }

// RequestManager returns the server acting as request manager.
func (g *G2G) RequestManager() ids.ProcessID { return g.rm }

// Broken reports whether the request manager has left the monitor group.
func (g *G2G) Broken() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.broken
}

// Close departs the monitor group.
func (g *G2G) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	if !g.broken {
		g.broken = true
		close(g.brokenCh)
	}
	g.mu.Unlock()
	err := g.group.Leave()
	<-g.loopDone
	return err
}

func (g *G2G) loop() {
	defer close(g.loopDone)
	formedSeq := g.group.View().Seq
	consumeEvents(g.group, func(ev gcs.Event) bool {
		switch ev.Type {
		case gcs.EventDeliver:
			if ev.Deliver.Sender != g.rm {
				return true // sibling members' duplicate requests
			}
			if msg, err := decodePayload(ev.Deliver.Payload); err == nil {
				if set, ok := msg.(*invReplySet); ok {
					g.routeOrRetain(set)
				}
			}
		case gcs.EventView:
			if ev.View.Seq >= formedSeq && !ev.View.Contains(g.rm) {
				g.mu.Lock()
				if !g.broken {
					g.broken = true
					close(g.brokenCh)
				}
				g.mu.Unlock()
			}
		}
		return true
	})
}

// routeOrRetain hands a reply set to the call waiting for it, or keeps it
// for a call this member has yet to issue. g.mu makes route-or-retain
// atomic against claimEarly, which runs after the waiter is registered:
// whichever goes first, the set reaches the waiter.
func (g *G2G) routeOrRetain(set *invReplySet) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.svc.routeReplySet(set) {
		return
	}
	if _, dup := g.early[set.Call]; dup {
		return
	}
	if g.early == nil {
		g.early = make(map[ids.CallID]*invReplySet)
	}
	g.early[set.Call] = set
	g.earlyOrder = append(g.earlyOrder, set.Call)
	if len(g.earlyOrder) > earlyCap {
		delete(g.early, g.earlyOrder[0])
		g.earlyOrder = g.earlyOrder[1:]
	}
}

// claimEarly delivers to w the answer that overtook this member's launch
// of call, if there is one.
func (g *G2G) claimEarly(call ids.CallID, w *callWaiter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if set, ok := g.early[call]; ok {
		delete(g.early, call)
		select {
		case w.set <- set:
		default: // a resent copy was routed to w in the meantime
		}
	}
}

// SessionStamp returns this member's session token: the newest applied
// stamp observed in any aggregated reply.
func (g *G2G) SessionStamp() vclock.Stamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sessStamp
}

// noteStamp folds one reply's applied stamp into the session token.
func (g *G2G) noteStamp(s vclock.Stamp) {
	if s == (vclock.Stamp{}) {
		return
	}
	g.mu.Lock()
	if g.sessStamp.Less(s) {
		g.sessStamp = s
	}
	g.mu.Unlock()
}

// Read serves one read-only invocation at the request manager (Invoker
// surface): a point-to-point control call, outside both the monitor
// group's and the server group's ordering. Unlike Call, reads need no
// shared call number — they execute nowhere but the serving replica, so
// there are no duplicate copies to filter; each client-group member reads
// independently against its own session floor. A refused leased read
// escalates once to Linearizable at the same replica.
func (g *G2G) Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error) {
	o := resolveCallOpts(opts)
	cons := o.consistency
	if cons == 0 {
		cons = g.readCons
	}
	if cons == 0 {
		cons = Leased
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	min := o.minStamp
	if !o.hasMin && cons != Stale {
		min = g.SessionStamp()
	}
	g.mu.Lock()
	closed, broken := g.closed, g.broken
	g.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if broken {
		return nil, ErrBindingBroken
	}
	payload, err := g.readAt(ctx, cons, method, args, min, o.maxStale, uint64(o.trace))
	if err != nil && cons == Leased && errors.Is(err, ErrLeaseExpired) {
		payload, err = g.readAt(ctx, Linearizable, method, args, min, 0, uint64(o.trace))
	}
	return payload, err
}

// readAt performs one read control call on the request manager.
func (g *G2G) readAt(ctx context.Context, cons Consistency, method string, args []byte, min vclock.Stamp, maxStale time.Duration, trace uint64) ([]byte, error) {
	req := encodeReadRequest(&readRequest{
		Group:       g.serverGroup,
		Method:      method,
		Args:        args,
		Consistency: cons,
		MaxStale:    int64(maxStale),
		MinStamp:    min,
		Trace:       trace,
	})
	raw, err := g.svc.invokeControl(ctx, g.rm, "read", req)
	if err != nil {
		return nil, err
	}
	rep, err := decodeReadReply(raw)
	if err != nil {
		return nil, err
	}
	switch rep.Code {
	case readOK:
		g.noteStamp(rep.Stamp)
		return rep.Payload, nil
	case readErrApp:
		g.noteStamp(rep.Stamp)
		return nil, fmt.Errorf("core: read %s at %s: %s", method, g.rm, rep.Err)
	case readErrDisabled:
		return nil, ErrReadDisabled
	case readErrLease:
		return nil, fmt.Errorf("%w: %s", ErrLeaseExpired, rep.Err)
	case readErrNotSeq:
		return nil, fmt.Errorf("%w: %s", ErrNotLinearizable, rep.Err)
	default:
		return nil, fmt.Errorf("core: read at %s: %s", g.rm, rep.Err)
	}
}

// Call performs one group-to-group invocation and blocks for the
// aggregated reply (Invoker surface). WithCallID is mandatory: its
// Number is the deterministic per-call number every client-group member
// must share so the request manager can filter the duplicate copies; the
// Client component is overridden with the monitor group's identity.
func (g *G2G) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	c, err := g.InvokeAsync(ctx, method, args, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Cancel()
	return c.Await(ctx)
}

// InvokeAsync launches one group-to-group invocation and returns its
// future (see Call for the WithCallID requirement). Pipelined calls from
// a client group member keep their issue order on the wire.
func (g *G2G) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	o := resolveCallOpts(opts)
	if !o.hasCall {
		return nil, ErrNeedCallNumber
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClosed
	}
	if g.broken {
		g.mu.Unlock()
		return nil, ErrBindingBroken
	}
	g.mu.Unlock()

	call := ids.CallID{Client: ids.ProcessID("g2g/" + string(g.group.ID())), Number: o.call.Number}
	if o.trace == 0 {
		// Every client-group member derives the same trace identifier from
		// the call's coordinates, so all duplicate copies of the request —
		// and the request manager's processing of the surviving one — share
		// one trace.
		o.trace = obs.DeriveTraceID("g2g/"+string(g.group.ID()), call.Number)
	}
	g.svc.metrics.asyncCalls.Inc()
	w := g.svc.registerWaiter(call, o.mode, nil)
	g.claimEarly(call, w)
	g.group.Attend()

	start := time.Now()
	req := &invRequest{
		Call:   call,
		Mode:   o.mode,
		Method: method,
		Args:   args,
		Client: g.svc.ID(),
		Style:  Open,
		Trace:  uint64(o.trace),
		SentAt: start.UnixNano(),
	}
	record := func() {
		d := time.Since(start)
		g.svc.metrics.invokeHist(o.mode).Observe(d)
		g.svc.obs.Tracer.Record(obs.Span{
			Trace: o.trace,
			Stage: "client.invoke",
			Proc:  string(g.svc.ID()),
			Depth: 0,
			Start: start,
			Dur:   d,
			Note:  "mode=" + o.mode.String() + " style=g2g",
		})
	}
	if err := g.group.Multicast(ctx, encodeRequest(req)); err != nil {
		g.group.Unattend()
		g.svc.dropWaiter(call, w)
		record()
		if errors.Is(err, gcs.ErrLeft) {
			return nil, ErrBindingBroken
		}
		return nil, err
	}

	c := newCallFuture(call, o.mode, ctx)
	if o.mode == OneWay {
		g.group.Unattend()
		g.svc.dropWaiter(call, w)
		record()
		c.complete(nil, nil)
		return c, nil
	}
	go func() {
		defer func() {
			g.group.Unattend()
			g.svc.dropWaiter(call, w)
		}()
		replies, err := awaitReplySet(c.ctx, w, g.brokenCh, g)
		if errors.Is(err, context.Canceled) {
			g.svc.metrics.asyncCancelled.Inc()
		}
		record()
		c.complete(replies, err)
	}()
	return c, nil
}
