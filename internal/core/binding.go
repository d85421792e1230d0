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
	"newtop/internal/obs/flight"
	"newtop/internal/vclock"
)

// BindConfig configures a client's binding to a server group.
type BindConfig struct {
	// ServerGroup is the group to invoke.
	ServerGroup ids.GroupID
	// Contact is any member of the server group (the bootstrap address).
	Contact ids.ProcessID
	// Style selects closed or open interaction (default Open).
	Style Style
	// Restricted, for open bindings, binds to the server group's leader
	// instead of an arbitrary member, so every client shares one request
	// manager — the restricted-group optimisation of §4.2, under which
	// the request manager never waits for its own forwarding multicast.
	Restricted bool
	// AsyncForward additionally enables the asynchronous-message-
	// forwarding optimisation for wait-for-first calls (§4.2): the
	// request manager replies from its own execution and forwards
	// one-way. Combined with Restricted this is the paper's
	// passive-replication configuration.
	AsyncForward bool
	// GCS is the configuration template for the client/server group
	// (ordering protocol, timers). Leader is filled in automatically with
	// the request manager. Defaults: sequencer order, event-driven.
	GCS gcs.GroupConfig
	// BindTimeout bounds group formation (default 10s).
	BindTimeout time.Duration
	// Window bounds the outstanding InvokeAsync calls on the binding —
	// the pipelining depth. When the window is full, InvokeAsync blocks
	// until a call completes (backpressure). Synchronous calls occupy a
	// slot for their whole duration too, since they are an InvokeAsync
	// awaited immediately. Default 16.
	Window int
	// ReadConsistency is the default consistency of Read calls that carry
	// no WithConsistency option (default Leased). Writes are unaffected.
	ReadConsistency Consistency
	// ReadRenew is how long a binding's leased/stale reads favour one
	// replica before rotating to the next — long enough that a replica's
	// caches stay warm, short enough that read load spreads across the
	// group and a replica with an expiring lease is abandoned promptly.
	// Default 1s.
	ReadRenew time.Duration
}

// defaultWindow is the pipelining depth when BindConfig.Window is unset.
const defaultWindow = 16

// defaultReadRenew is the replica-rotation period when BindConfig.ReadRenew
// is unset.
const defaultReadRenew = time.Second

// windowOf resolves the configured pipelining depth.
func windowOf(cfg BindConfig) int {
	if cfg.Window > 0 {
		return cfg.Window
	}
	return defaultWindow
}

// Binding is a client's attachment to a server group through a
// client/server group (closed: client + every server; open: client +
// request manager).
type Binding struct {
	svc   *Service
	cfg   BindConfig
	group *gcs.Group
	rm    ids.ProcessID // request manager (open style)
	// sgMembers is the server group membership learned at bind time,
	// kept for rebinding after a request manager failure.
	sgMembers []ids.ProcessID

	mu      sync.Mutex
	servers []ids.ProcessID // servers bound into the group (closed style)
	// view is the client/server group view as this binding last observed
	// it, cached under mu so that Servers and Broken answer from the same
	// instant: onView installs the new view and the broken judgement in
	// one critical section, where reading the group's live view here
	// would race the membership callback during a rebind.
	view     gcs.View
	broken   bool
	brokenCh chan struct{}
	closed   bool

	// sessStamp is the session token: the newest applied stamp observed
	// in any reply (writes and reads both advance it). Reads default
	// their session floor to it — that is read-your-writes across
	// replicas.
	sessStamp vclock.Stamp
	// readIdx/readPickAt rotate leased and stale reads across replicas:
	// the favourite advances every cfg.ReadRenew.
	readIdx    int
	readPickAt time.Time

	// window is the outstanding-call semaphore: one slot per in-flight
	// invocation, capacity BindConfig.Window. Acquired in InvokeAsync,
	// released when the call completes.
	window chan struct{}

	loopDone chan struct{}
}

// Bind forms a client/server group with the configured style and returns
// the binding (paper fig. 3). The client learns the server group's
// membership from the contact, creates the group, and pulls the chosen
// server(s) in.
func (s *Service) Bind(ctx context.Context, cfg BindConfig) (*Binding, error) {
	if cfg.Style == 0 {
		cfg.Style = Open
	}
	if cfg.BindTimeout <= 0 {
		cfg.BindTimeout = 10 * time.Second
	}
	if cfg.ReadRenew <= 0 {
		cfg.ReadRenew = defaultReadRenew
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	ctx, cancel := context.WithTimeout(ctx, cfg.BindTimeout)
	defer cancel()

	members, err := s.ServerGroupMembers(ctx, cfg.Contact, cfg.ServerGroup)
	if err != nil {
		return nil, fmt.Errorf("core: bind %q: %w", cfg.ServerGroup, err)
	}
	if len(members) == 0 {
		return nil, ErrNoServers
	}
	if cfg.Style == Closed {
		return s.bindClosed(ctx, cfg, members)
	}

	// Choose the request manager (open) or the group anchor (closed):
	// the restricted optimisation pins it to the server group's leader.
	rm := cfg.Contact
	if !ids.ContainsProcess(members, rm) || cfg.Restricted {
		rm = ids.MinProcess(members)
	}

	s.mu.Lock()
	s.nextCall++
	gid := ids.GroupID(fmt.Sprintf("cs/%s/%s/%d", cfg.ServerGroup, s.ID(), s.nextCall))
	s.mu.Unlock()

	gcfg := cfg.GCS
	gcfg.Leader = rm
	group, err := s.node.Create(gid, gcfg)
	if err != nil {
		return nil, fmt.Errorf("core: bind %q: %w", cfg.ServerGroup, err)
	}

	b := &Binding{
		svc:       s,
		cfg:       cfg,
		group:     group,
		rm:        rm,
		sgMembers: members,
		brokenCh:  make(chan struct{}),
		window:    make(chan struct{}, windowOf(cfg)),
		loopDone:  make(chan struct{}),
	}

	bound, err := s.pullServers(ctx, b, gid, []ids.ProcessID{rm}, gcfg)
	if err != nil {
		_ = group.Leave()
		return nil, err
	}
	b.servers = bound

	if err := b.awaitFormation(ctx); err != nil {
		_ = group.Leave()
		return nil, err
	}
	b.view = group.View() // seed the cache; onView keeps it current
	go b.clientLoop()
	return b, nil
}

// bindClosed forms a closed binding (paper fig. 3(i)): the client becomes
// a member of the server group itself — its client/server group fully
// overlaps the server group — so its requests travel through the group\'s
// own total-order multicast and it participates in the group\'s protocol
// traffic like any member. That participation is exactly what the paper
// identifies as the closed approach\'s cost on high-latency paths and at
// high client counts, and its benefit: server failures are masked by the
// membership service with no rebinding.
//
// The client\'s cfg.GCS must match the configuration the server group was
// created with (ordering protocol and liveness), as for any group join.
func (s *Service) bindClosed(ctx context.Context, cfg BindConfig, members []ids.ProcessID) (*Binding, error) {
	if cfg.ReadRenew <= 0 {
		cfg.ReadRenew = defaultReadRenew
	}
	group, err := s.node.Join(ctx, cfg.ServerGroup, cfg.Contact, cfg.GCS)
	if err != nil {
		return nil, fmt.Errorf("core: closed bind %q: %w", cfg.ServerGroup, err)
	}
	b := &Binding{
		svc:       s,
		cfg:       cfg,
		group:     group,
		rm:        ids.MinProcess(members), // informational: the group leader
		sgMembers: members,
		servers:   members,
		brokenCh:  make(chan struct{}),
		window:    make(chan struct{}, windowOf(cfg)),
		loopDone:  make(chan struct{}),
	}
	b.view = group.View()
	go b.clientLoop()
	return b, nil
}

// pullServers issues the control binds that make the request manager join
// the client/server group, in parallel (the paper\'s multithreaded measure
// for a synchronous-only ORB).
func (s *Service) pullServers(ctx context.Context, b *Binding, gid ids.GroupID, targets []ids.ProcessID, gcfg gcs.GroupConfig) ([]ids.ProcessID, error) {
	req := encodeBindRequest(&bindRequest{
		Group:       gid,
		ServerGroup: b.cfg.ServerGroup,
		Contact:     s.ID(),
		Style:       b.cfg.Style,
		AsyncFwd:    b.cfg.AsyncForward,
		Config:      gcfg,
	})
	var (
		mu    sync.Mutex
		bound []ids.ProcessID
		wg    sync.WaitGroup
	)
	for _, t := range targets {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.invokeControl(ctx, t, "bind", req); err == nil {
				mu.Lock()
				bound = append(bound, t)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(bound) == 0 {
		return nil, fmt.Errorf("core: bind %q: %w", b.cfg.ServerGroup, ErrNoServers)
	}
	return ids.SortProcesses(bound), nil
}

// awaitFormation waits until every bound server appears in the
// client/server group's view.
func (b *Binding) awaitFormation(ctx context.Context) error {
	for {
		v := b.group.View()
		all := true
		for _, srv := range b.servers {
			if !v.Contains(srv) {
				all = false
				break
			}
		}
		if all {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: client/server group formation: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// RequestManager returns the member acting as request manager (open
// style), or the group anchor (closed style).
func (b *Binding) RequestManager() ids.ProcessID { return b.rm }

// Group exposes the client/server group (for tests and diagnostics).
func (b *Binding) Group() *gcs.Group { return b.group }

// KnownServers returns the server group membership observed at bind time.
func (b *Binding) KnownServers() []ids.ProcessID {
	out := make([]ids.ProcessID, len(b.sgMembers))
	copy(out, b.sgMembers)
	return out
}

// Servers returns the live servers reachable through the binding: for an
// open binding, the members of the client/server group besides the client;
// for a closed binding, the known servers still present in the (shared)
// group view — the view also contains this client and possibly other
// closed clients, which must not count towards reply quorums.
func (b *Binding) Servers() []ids.ProcessID {
	me := b.svc.ID()
	b.mu.Lock()
	v := b.view
	b.mu.Unlock()
	var out []ids.ProcessID
	if b.cfg.Style == Closed {
		for _, m := range b.sgMembers {
			if m != me && v.Contains(m) {
				out = append(out, m)
			}
		}
		return out
	}
	for _, m := range v.Members {
		if m != me {
			out = append(out, m)
		}
	}
	return out
}

// liveServers is len(Servers()) of a closed binding, without the slice.
func (b *Binding) liveServers() int {
	me := b.svc.ID()
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, m := range b.sgMembers {
		if m != me && b.view.Contains(m) {
			n++
		}
	}
	return n
}

// Broken reports whether the binding has lost its request manager (open)
// or all of its servers (closed).
func (b *Binding) Broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}

// Close departs the client/server group; the servers observe the view
// change and release their end.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.markBrokenLocked()
	b.mu.Unlock()
	err := b.group.Leave()
	<-b.loopDone
	return err
}

func (b *Binding) markBrokenLocked() {
	if !b.broken {
		b.broken = true
		close(b.brokenCh)
	}
}

// clientLoop consumes the client/server group's delivery stream, routing
// aggregated replies and watching the membership.
func (b *Binding) clientLoop() {
	defer close(b.loopDone)
	me := b.svc.ID()
	// The event stream replays history from the founding singleton view;
	// membership judgements only start at the fully-formed view observed
	// by awaitFormation.
	formedSeq := b.group.View().Seq
	consumeEvents(b.group, func(ev gcs.Event) bool {
		switch ev.Type {
		case gcs.EventDeliver:
			if ev.Deliver.Sender == me {
				return true
			}
			if msg, err := decodePayload(ev.Deliver.Payload); err == nil {
				if set, ok := msg.(*invReplySet); ok {
					b.svc.routeReplySet(set)
				}
			}
		case gcs.EventView:
			if ev.View.Seq >= formedSeq {
				b.onView(ev.View)
			}
		}
		return true
	})
	b.mu.Lock()
	b.markBrokenLocked()
	b.mu.Unlock()
}

// onView reacts to a membership change of the client/server group. The
// cached view and the broken judgement change in the same critical
// section, so Servers and Broken can never contradict each other
// mid-transition (the rebind race the view cache exists to close).
func (b *Binding) onView(v *gcs.View) {
	b.mu.Lock()
	b.view = v.Clone()
	switch b.cfg.Style {
	case Open:
		if !v.Contains(b.rm) {
			// The request manager failed or disconnected: the binding is
			// disbanded and the client must rebind (paper §2.1).
			b.markBrokenLocked()
		}
	case Closed:
		// Server failures are masked; the binding only breaks once every
		// known server has gone.
		alive := 0
		for _, m := range b.sgMembers {
			if v.Contains(m) {
				alive++
			}
		}
		if alive == 0 {
			b.markBrokenLocked()
		}
	}
	b.mu.Unlock()
	if b.cfg.Style == Closed {
		b.svc.recheckDirect(b) // the quorum is over the live servers
	}
}

// SessionStamp returns the binding's session token: the newest applied
// stamp observed in any reply. Reads default their session floor to it,
// and a smart proxy carries it into its replacement binding on rebind.
func (b *Binding) SessionStamp() vclock.Stamp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sessStamp
}

// noteStamp folds one reply's applied stamp into the session token.
func (b *Binding) noteStamp(s vclock.Stamp) {
	if s == (vclock.Stamp{}) {
		return
	}
	b.mu.Lock()
	if b.sessStamp.Less(s) {
		b.sessStamp = s
	}
	b.mu.Unlock()
}

// Read serves one read-only invocation outside the ordering layer
// (Invoker surface): a point-to-point control call on one replica's NSO,
// never an ordered multicast. Consistency resolves per call (WithConsistency)
// over the binding default (BindConfig.ReadConsistency) over Leased; the
// session floor defaults to the binding's session stamp except for Stale
// reads (WithMinStamp overrides either way). When every replica refuses a
// leased read — expired leases during a partition or view change — the
// read escalates once to Linearizable at the ordering authority, which is
// at least as fresh as what the caller asked for.
func (b *Binding) Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error) {
	o := resolveCallOpts(opts)
	cons := o.consistency
	if cons == 0 {
		cons = b.cfg.ReadConsistency
	}
	if cons == 0 {
		cons = Leased
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	min := o.minStamp
	if !o.hasMin && cons != Stale {
		min = b.SessionStamp()
	}

	b.mu.Lock()
	closed, broken := b.closed, b.broken
	b.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if broken {
		return nil, ErrBindingBroken
	}

	start := time.Now()
	payload, final, err := b.readOnce(ctx, cons, method, args, min, o.maxStale, uint64(o.trace))
	if err != nil && !final && cons == Leased {
		payload, _, err = b.readOnce(ctx, Linearizable, method, args, min, 0, uint64(o.trace))
	}
	b.svc.obs.Tracer.Record(obs.Span{
		Trace: o.trace,
		Stage: "client.read",
		Proc:  string(b.svc.ID()),
		Depth: 0,
		Start: start,
		Dur:   time.Since(start),
		Note:  "consistency=" + cons.String(),
	})
	return payload, err
}

// readOnce encodes the request once and tries each candidate replica in
// turn. final reports that the error is not improvable by escalating the
// consistency (an application error, a disabled read path, a spent
// context); everything else — lease refusals, session floors out of
// reach, transport failures — leaves escalation open to the caller.
func (b *Binding) readOnce(ctx context.Context, cons Consistency, method string, args []byte, min vclock.Stamp, maxStale time.Duration, trace uint64) (payload []byte, final bool, err error) {
	req := encodeReadRequest(&readRequest{
		Group:       b.cfg.ServerGroup,
		Method:      method,
		Args:        args,
		Consistency: cons,
		MaxStale:    int64(maxStale),
		MinStamp:    min,
		Trace:       trace,
	})
	targets := b.readTargets(cons)
	if len(targets) == 0 {
		return nil, true, ErrNoServers
	}
	var lastErr error
	leaseRefused := false
	for _, t := range targets {
		raw, cerr := b.svc.invokeControl(ctx, t, "read", req)
		if cerr != nil {
			if ctx.Err() != nil {
				return nil, true, ctx.Err()
			}
			lastErr = cerr
			continue
		}
		rep, derr := decodeReadReply(raw)
		if derr != nil {
			lastErr = derr
			continue
		}
		switch rep.Code {
		case readOK:
			b.noteStamp(rep.Stamp)
			return rep.Payload, true, nil
		case readErrApp:
			b.noteStamp(rep.Stamp)
			return nil, true, fmt.Errorf("core: read %s at %s: %s", method, t, rep.Err)
		case readErrDisabled:
			return nil, true, ErrReadDisabled
		case readErrLease:
			leaseRefused = true
			lastErr = fmt.Errorf("core: read at %s: %s", t, rep.Err)
		default: // readErrNotSeq, readErrMinStamp, readErrRetry
			lastErr = fmt.Errorf("core: read at %s: %s", t, rep.Err)
		}
	}
	if leaseRefused {
		return nil, false, fmt.Errorf("%w: %v", ErrLeaseExpired, lastErr)
	}
	return nil, false, lastErr
}

// readTargets orders the candidate replicas for one read. Reads are
// point-to-point, so the pool is the whole server group — not the
// client/server group, which for an open binding holds only the request
// manager. Linearizable reads go lowest-identifier first (that member is
// the sequencer, the only replica that can serve them without a redirect);
// leased and stale reads rotate, advancing the favourite every ReadRenew.
func (b *Binding) readTargets(cons Consistency) []ids.ProcessID {
	var pool []ids.ProcessID
	if b.cfg.Style == Closed {
		pool = b.Servers() // bind-time membership filtered by the live view
	}
	if len(pool) == 0 {
		pool = b.KnownServers()
	}
	pool = ids.SortProcesses(pool)
	if cons == Linearizable || len(pool) < 2 {
		return pool
	}
	b.mu.Lock()
	now := time.Now()
	if b.readPickAt.IsZero() || now.Sub(b.readPickAt) >= b.cfg.ReadRenew {
		b.readIdx++
		b.readPickAt = now
	}
	first := b.readIdx % len(pool)
	b.mu.Unlock()
	out := make([]ids.ProcessID, 0, len(pool))
	for i := 0; i < len(pool); i++ {
		out = append(out, pool[(first+i)%len(pool)])
	}
	return out
}

// Call performs one invocation and blocks for the mode's reply quorum
// (Invoker surface). It is InvokeAsync awaited immediately, so it
// occupies one window slot for its duration.
func (b *Binding) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	c, err := b.InvokeAsync(ctx, method, args, opts...)
	if err != nil {
		return nil, err
	}
	defer c.Cancel()
	return c.Await(ctx)
}

// InvokeAsync launches one invocation and returns its future. The
// request is multicast synchronously (so a pipelining client's issue
// order is its per-sender FIFO order on the wire); gathering the replies
// happens in the background and completes the future. A full
// outstanding-call window blocks here until a slot frees — that is the
// pipelining backpressure.
func (b *Binding) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	o := resolveCallOpts(opts)
	if !o.hasCall {
		o.call = b.svc.newCall()
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if b.broken {
		b.mu.Unlock()
		return nil, ErrBindingBroken
	}
	b.mu.Unlock()

	// Acquire an outstanding-call slot (window backpressure).
	select {
	case b.window <- struct{}{}:
	case <-b.brokenCh:
		return nil, ErrBindingBroken
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	release := func() { <-b.window }
	b.svc.metrics.asyncCalls.Inc()
	b.svc.metrics.asyncInflightHigh.SetMax(int64(len(b.window)))

	var direct *Binding // a closed call gathers the servers' replies itself
	if b.cfg.Style == Closed {
		direct = b
	}
	w := b.svc.registerWaiter(o.call, o.mode, direct)
	// Keep the group's failure detection alive while we wait: an idle
	// event-driven group would otherwise never notice a request manager
	// that died after the request stabilised but before replying.
	b.group.Attend()

	b.svc.frRecord(flight.EvCallStart, uint64(o.trace), uint64(o.mode), 0)
	start := time.Now()
	req := &invRequest{
		Call:   o.call,
		Mode:   o.mode,
		Method: method,
		Args:   args,
		Client: b.svc.ID(),
		Style:  b.cfg.Style,
		Trace:  uint64(o.trace),
		SentAt: start.UnixNano(),
	}
	record := func() {
		d := time.Since(start)
		b.svc.metrics.invokeHist(o.mode).Observe(d)
		b.svc.obs.Tracer.Record(obs.Span{
			Trace: o.trace,
			Stage: "client.invoke",
			Proc:  string(b.svc.ID()),
			Depth: 0,
			Start: start,
			Dur:   d,
			Note:  "mode=" + o.mode.String() + " style=" + b.cfg.Style.String(),
		})
	}
	if err := b.group.Multicast(ctx, encodeRequest(req)); err != nil {
		b.group.Unattend()
		b.svc.dropWaiter(o.call, w)
		release()
		record()
		b.svc.frRecord(flight.EvCallDone, uint64(o.trace), 1, 0)
		if errors.Is(err, gcs.ErrLeft) {
			return nil, ErrBindingBroken
		}
		return nil, err
	}

	c := newCallFuture(o.call, o.mode, ctx)
	if o.mode == OneWay {
		b.group.Unattend()
		b.svc.dropWaiter(o.call, w)
		release()
		record()
		b.svc.frRecord(flight.EvCallDone, uint64(o.trace), 0, 0)
		c.complete(nil, nil)
		return c, nil
	}
	go func() {
		defer func() {
			b.group.Unattend()
			b.svc.dropWaiter(o.call, w)
			release()
		}()
		replies, err := awaitReplySet(c.ctx, w, b.brokenCh, b)
		if errors.Is(err, context.Canceled) {
			b.svc.metrics.asyncCancelled.Inc()
		}
		record()
		var failed uint64
		if err != nil {
			failed = 1
		}
		b.svc.frRecord(flight.EvCallDone, uint64(o.trace), failed, 0)
		c.complete(replies, err)
	}()
	return c, nil
}

// awaitReplySet waits for a call's answer — the request manager's
// aggregate or, closed style, the direct replies that met the quorum — and
// folds the replies' stamps into the caller's session. broken fires when
// the binding the call went through breaks.
func awaitReplySet(ctx context.Context, w *callWaiter, broken <-chan struct{}, session interface{ noteStamp(vclock.Stamp) }) ([]Reply, error) {
	select {
	case set := <-w.set:
		if set.Err != "" {
			return nil, fmt.Errorf("core: request manager: %s", set.Err)
		}
		out := make([]Reply, 0, len(set.Replies))
		for _, rep := range set.Replies {
			session.noteStamp(rep.Stamp)
			out = append(out, rep.toReply())
		}
		if len(out) == 0 {
			return nil, errors.New("core: empty reply set")
		}
		return out, nil
	case <-broken:
		return nil, ErrBindingBroken
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
