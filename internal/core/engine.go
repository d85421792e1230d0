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

// engine is the client side of one attachment to a server group: everything
// a Binding or a G2G does once its group is formed. The paper presents
// closed, open and group-to-group invocation as one facility with three
// parameters — who multicasts the request, who gathers the replies, how many
// to wait for — and so does the code: the public types embed an engine and
// differ only in the policy fixed at bind time (style, groupClient, servers).
//
// An outstanding call is one *Call in the calls table, from launch until
// whatever ends it — the reply set, the direct reply that meets the quorum,
// the attachment breaking, Cancel, the launching context expiring — calls
// its finish, which runs retire, the one epilogue. Nothing parks a
// goroutine per call, and none runs per attachment: answers complete calls
// on the ORB's receive loop, and group-to-group reply sets on the dispatch
// worker that delivers them to the engine's handler (onEvent).
type engine struct {
	svc         *Service
	group       *gcs.Group // the client/server group, or the client monitor group
	serverGroup ids.GroupID
	rm          ids.ProcessID // request manager (open) or group leader (closed, informational)
	readRenew   time.Duration

	// style says who gathers a call's replies and what breaks the
	// attachment. Open: the request manager answers with one reply set, and
	// the attachment is broken once it leaves the group. Closed: this
	// client gathers the servers' direct replies over the live ones of
	// servers, failures among them are masked, and the attachment is broken
	// once all of them are gone.
	style Style
	// groupClient is set for a group-to-group attachment: the identity
	// ("g2g/<gz>") every member of the client group issues its calls under,
	// with a call number they share. Only the request manager's multicasts
	// are answers then (the siblings' are copies of the request), and an
	// answer may overtake this member's own launch (early).
	groupClient ids.ProcessID
	// servers is the pool reads are tried at, sorted: the server group's
	// membership learned at bind time, or, group-to-group, the request
	// manager alone.
	servers []ids.ProcessID

	mu sync.Mutex
	// view is the group's view as the handler last observed it, cached so
	// that Servers and Broken answer from the same instant: onView installs
	// the new view and the broken judgement in one critical section, where
	// reading the group's live view would race the membership callback
	// during a rebind.
	view gcs.View
	// live counts the known servers present in view: what a closed call's
	// quorum is taken over.
	live     int
	broken   bool
	brokenCh chan struct{}
	closed   bool
	calls    map[ids.CallID]*Call // the outstanding calls
	// early retains the reply sets that arrived before this member issued
	// the call they answer (group-to-group only). The request manager
	// answers the first copy of a call it sees, so the answer can overtake a
	// slower member's own launch — whose copy is then filtered as a
	// duplicate and never answered again.
	early *bounded[ids.CallID, *invReplySet]
	// sessStamp is the session token: the newest applied stamp observed in
	// any reply (writes and reads both advance it). Reads default their
	// session floor to it — that is read-your-writes across replicas.
	sessStamp vclock.Stamp
	// readIdx/readPickAt rotate leased and stale reads across replicas: the
	// favourite advances every readRenew.
	readIdx    int
	readPickAt time.Time

	// window is the outstanding-call semaphore: one slot per call in the
	// table, capacity BindConfig.Window.
	window chan struct{}
	// formed is closed by the handler at the view that forms the attachment
	// (see onEvent); isFormed is the handler's own record of it.
	formed   chan struct{}
	isFormed bool
}

// defaultWindow is the pipelining depth when BindConfig.Window is unset.
const defaultWindow = 16

// defaultReadRenew is the replica-rotation period when BindConfig.ReadRenew
// is unset.
const defaultReadRenew = time.Second

// earlyCap bounds the retained early reply sets.
const earlyCap = 256

// newEngine builds the engine of an attachment through group; start runs it.
// servers must be sorted.
func (s *Service) newEngine(group *gcs.Group, cfg BindConfig, style Style, rm ids.ProcessID, servers []ids.ProcessID) *engine {
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	if cfg.ReadRenew <= 0 {
		cfg.ReadRenew = defaultReadRenew
	}
	return &engine{
		svc:         s,
		group:       group,
		serverGroup: cfg.ServerGroup,
		rm:          rm,
		readRenew:   cfg.ReadRenew,
		style:       style,
		servers:     servers,
		brokenCh:    make(chan struct{}),
		calls:       make(map[ids.CallID]*Call),
		window:      make(chan struct{}, cfg.Window),
		formed:      make(chan struct{}),
	}
}

// pullRM has the request manager join the group — the control bind of paper
// fig. 3 — and starts the engine.
func (e *engine) pullRM(ctx context.Context, req *bindRequest) error {
	req.ServerGroup, req.Contact = e.serverGroup, e.svc.ID()
	if _, err := e.svc.invokeControl(ctx, e.rm, "bind", encodeBindRequest(req)); err != nil {
		_ = e.group.Leave()
		return fmt.Errorf("core: bind %q: request manager %s: %w", e.serverGroup, e.rm, err)
	}
	return e.start(ctx)
}

// start installs the engine as its group's handler, waits for the view that
// forms the attachment and files it for routeReply. On failure the group is
// left.
func (e *engine) start(ctx context.Context) error {
	e.group.SetHandler(e.onEvent)
	select {
	case <-e.formed:
	case <-ctx.Done():
		_ = e.group.Leave()
		return fmt.Errorf("core: binding group formation: %w", ctx.Err())
	}
	e.svc.mu.Lock()
	if e.svc.closed {
		e.svc.mu.Unlock()
		_ = e.group.Leave()
		return ErrClosed
	}
	e.svc.attached[e.group.ID()] = e
	e.svc.mu.Unlock()
	return nil
}

// RequestManager returns the member acting as request manager (open
// style, group-to-group), or the group anchor (closed style).
func (e *engine) RequestManager() ids.ProcessID { return e.rm }

// Group exposes the client/server group, or the client monitor group (for
// tests and diagnostics).
func (e *engine) Group() *gcs.Group { return e.group }

// Broken reports whether the attachment has lost its request manager (open
// style, group-to-group) or all of its servers (closed).
func (e *engine) Broken() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.broken
}

// Close departs the group; the servers observe the view change and release
// their end. Outstanding calls complete with ErrBindingBroken.
func (e *engine) Close() error {
	e.mu.Lock()
	was := e.closed
	e.closed = true
	doomed := e.breakLocked()
	e.mu.Unlock()
	if was {
		return nil
	}
	failAll(doomed)
	err := e.group.Leave()
	e.svc.mu.Lock()
	if e.svc.attached[e.group.ID()] == e {
		delete(e.svc.attached, e.group.ID())
	}
	e.svc.mu.Unlock()
	return err
}

// stateLocked is the error a new call or read meets: ErrClosed after Close,
// ErrBindingBroken on a broken attachment, nil on a working one.
func (e *engine) stateLocked() error {
	switch {
	case e.closed:
		return ErrClosed
	case e.broken:
		return ErrBindingBroken
	}
	return nil
}

// breakLocked marks the attachment broken and takes the outstanding calls
// out of it; the caller fails them (failAll) once it has released e.mu.
func (e *engine) breakLocked() (doomed map[ids.CallID]*Call) {
	if !e.broken {
		e.broken = true
		close(e.brokenCh)
		doomed, e.calls = e.calls, nil
	}
	return doomed
}

// failAll completes the calls a broken attachment left outstanding.
func failAll(doomed map[ids.CallID]*Call) {
	for _, c := range doomed {
		c.finish(nil, ErrBindingBroken)
	}
}

// onEvent is the engine's handler, run on a dispatch worker: it watches the
// membership and, group-to-group, completes calls with the reply sets that
// answer them.
func (e *engine) onEvent(ev gcs.Event) {
	switch ev.Type {
	case gcs.EventDeliver:
		// Reply sets travel in a client monitor group only, from its request
		// manager; the siblings' multicasts there are duplicate requests.
		// Everywhere else answers arrive point-to-point.
		if e.groupClient == "" || ev.Deliver.Sender != e.rm {
			return
		}
		if msg, err := decodePayload(ev.Deliver.Payload); err == nil {
			if set, ok := msg.(*invReplySet); ok {
				e.onReplySet(set)
			}
		}
	case gcs.EventView:
		// The stream replays history from the founding singleton view:
		// membership judgements start at the view that forms the attachment
		// (an open one's first to hold its request manager), which releases
		// start.
		if !e.isFormed {
			if e.style == Open && !ev.View.Contains(e.rm) {
				return
			}
			e.isFormed = true
			defer close(e.formed)
		}
		e.onView(ev.View)
	}
}

// onReplySet completes the call a reply set answers or, group-to-group,
// keeps the set for a call this member has yet to issue. e.mu makes
// route-or-retain atomic against launch, which files the call and claims a
// retained set in one critical section: whichever goes first, the set
// reaches the call.
func (e *engine) onReplySet(set *invReplySet) {
	e.mu.Lock()
	c := e.calls[set.Call]
	if c == nil && e.early != nil {
		e.early.put(set.Call, set)
	}
	e.mu.Unlock()
	if c != nil {
		e.deliver(c, set.Replies, set.Err)
	}
}

// onView reacts to a membership change of the group. The cached view and
// the broken judgement change in the same critical section, so Servers and
// Broken can never contradict each other mid-transition. A closed
// attachment's quorums are over the live servers, so its outstanding calls
// are settled again (wait-for-all with a crashed server).
func (e *engine) onView(v *gcs.View) {
	e.mu.Lock()
	e.setViewLocked(v.Clone())
	gone := !v.Contains(e.rm) // disbanded: the client must rebind (paper §2.1)
	var settled []*Call
	if e.style == Closed {
		gone = e.live == 0
		for _, c := range e.calls {
			if c.gather.settle(e.live, false) {
				settled = append(settled, c)
			}
		}
	}
	var doomed map[ids.CallID]*Call
	if gone {
		doomed = e.breakLocked()
	}
	e.mu.Unlock()
	for _, c := range settled {
		e.deliver(c, c.gather.replies, "")
	}
	failAll(doomed)
}

// setViewLocked installs v as the cached view.
func (e *engine) setViewLocked(v gcs.View) {
	e.view = v
	e.live = len(e.liveLocked(nil))
}

// liveLocked appends to dst the known servers present in the view. A closed
// attachment's view also holds this client and possibly other closed
// clients, which are no servers and never reply.
func (e *engine) liveLocked(dst []ids.ProcessID) []ids.ProcessID {
	me := e.svc.ID()
	for _, m := range e.servers {
		if m != me && e.view.Contains(m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// onDirectReply files one server's reply with the closed call it answers, if
// that is still outstanding, and completes the call if the reply meets its
// quorum over the live servers.
func (e *engine) onDirectReply(rep invReply) {
	e.mu.Lock()
	c, servers := e.calls[rep.Call], e.live
	e.mu.Unlock()
	if c != nil && c.gather.add(rep, servers) {
		e.deliver(c, c.gather.replies, "")
	}
}

// SessionStamp returns the session token: the newest applied stamp observed
// in any reply. Reads default their session floor to it, and a smart proxy
// carries it into its replacement binding on rebind.
func (e *engine) SessionStamp() vclock.Stamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sessStamp
}

// noteStamp folds one reply's applied stamp into the session token.
func (e *engine) noteStamp(s vclock.Stamp) {
	e.mu.Lock()
	if e.sessStamp.Less(s) {
		e.sessStamp = s
	}
	e.mu.Unlock()
}

// Call performs one invocation and blocks for the mode's reply quorum
// (Invoker surface). It occupies one window slot for its duration.
func (e *engine) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	return e.call(ctx, method, args, resolveCallOpts(opts))
}

// call is Call with the options resolved: a launch awaited on the spot.
func (e *engine) call(ctx context.Context, method string, args []byte, o callOpts) ([]Reply, error) {
	c, err := e.launch(ctx, method, args, o, false)
	if err != nil {
		return nil, err
	}
	replies, err := c.Await(ctx)
	if err != nil {
		c.finish(nil, err) // ctx gave out first: nobody is left to wait
	}
	return replies, err
}

// InvokeAsync launches one invocation and returns its future (Invoker
// surface). The request is multicast synchronously, so a pipelining
// client's issue order is its per-sender FIFO order on the wire; the replies
// complete the future where they are received. A full
// outstanding-call window blocks here until a slot frees — that is the
// pipelining backpressure.
func (e *engine) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	return e.launch(ctx, method, args, resolveCallOpts(opts), true)
}

// launch admits one call — identity, window slot, the group's attention, a
// place in the table — and multicasts its request. detached says nobody is
// bound to await the future under ctx (InvokeAsync), so ctx's expiry must
// complete it.
func (e *engine) launch(ctx context.Context, method string, args []byte, o callOpts, detached bool) (*Call, error) {
	switch {
	case e.groupClient == "":
		if !o.hasCall {
			o.call = e.svc.newCall()
		}
		if o.trace == 0 {
			o.trace = obs.NewTraceID()
		}
	case !o.hasCall:
		return nil, ErrNeedCallNumber
	default:
		o.call.Client = e.groupClient
		if o.trace == 0 {
			// Every client-group member derives the same trace identifier
			// from the call's coordinates, so all duplicate copies of the
			// request — and the request manager's processing of the
			// surviving one — share one trace.
			o.trace = obs.DeriveTraceID(string(e.groupClient), o.call.Number)
		}
	}

	select {
	case e.window <- struct{}{}:
	case <-e.brokenCh:
		e.mu.Lock()
		defer e.mu.Unlock()
		return nil, e.stateLocked()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Keep the group's failure detection alive while the call is
	// outstanding: an idle event-driven group would otherwise never notice
	// a request manager that died after the request stabilised but before
	// replying.
	e.group.Attend()

	c := newCallFuture(o.call, o.mode)
	c.eng, c.trace, c.start = e, o.trace, time.Now()
	if e.style == Closed {
		c.gather.mode = o.mode
		c.gather.replies = make([]invReply, 0, len(e.servers))
	}
	e.mu.Lock()
	err := e.stateLocked()
	var early *invReplySet
	if err == nil {
		e.calls[c.id] = c
		if e.early != nil {
			early, _ = e.early.take(c.id)
		}
		if detached && ctx.Done() != nil {
			// Set under e.mu, which every completion takes (the table
			// lookup, retire) before it reads c.stop.
			c.stop = context.AfterFunc(ctx, func() { c.finish(nil, ctx.Err()) })
		}
	}
	e.mu.Unlock()
	if err != nil {
		e.release()
		return nil, err
	}
	e.svc.metrics.asyncCalls.Inc()
	e.svc.metrics.asyncInflightHigh.SetMax(int64(len(e.window)))
	e.svc.frRecord(flight.EvCallStart, uint64(c.trace), uint64(c.mode), 0)

	err = e.group.Multicast(ctx, encodeRequest(&invRequest{
		Call:   c.id,
		Mode:   c.mode,
		Method: method,
		Args:   args,
		Client: e.svc.ID(),
		Style:  e.style,
		Trace:  uint64(c.trace),
	}))
	switch {
	case err != nil:
		if errors.Is(err, gcs.ErrLeft) {
			err = ErrBindingBroken
		}
		c.finish(nil, err)
		return nil, err
	case early != nil:
		e.deliver(c, early.Replies, early.Err)
	case c.mode == OneWay:
		c.finish(nil, nil)
	}
	return c, nil
}

// release returns what admission took: the group's attention and the
// window slot.
func (e *engine) release() {
	e.group.Unattend()
	<-e.window
}

// deliver completes c with the servers' replies — the request manager's
// aggregate or, closed style, the direct replies that met the quorum — and
// folds their stamps into the session.
func (e *engine) deliver(c *Call, replies []invReply, rmErr string) {
	switch {
	case rmErr != "":
		c.finish(nil, fmt.Errorf("core: request manager: %s", rmErr))
		return
	case len(replies) == 0:
		c.finish(nil, errors.New("core: empty reply set"))
		return
	}
	out := make([]Reply, len(replies))
	var newest vclock.Stamp
	for i, rep := range replies {
		out[i] = rep.toReply()
		if newest.Less(rep.Stamp) {
			newest = rep.Stamp
		}
	}
	e.noteStamp(newest)
	c.finish(out, nil)
}

// retire is the epilogue of every call that was admitted, run once by the
// finish that completes it: out of the table — unless a retry under the same
// call identifier has taken the entry since — then the slot, the group's
// attention and the records.
func (e *engine) retire(c *Call, err error) {
	e.mu.Lock()
	if e.calls[c.id] == c {
		delete(e.calls, c.id)
	}
	e.mu.Unlock()
	e.release()
	if errors.Is(err, context.Canceled) {
		e.svc.metrics.asyncCancelled.Inc()
	}
	style := uint64(e.style)
	if e.groupClient != "" {
		style = 3 // group-to-group, see flight.StClientInvoke
	}
	detail := uint64(c.mode) | style<<4
	if err != nil {
		detail |= flight.StageFailed
	}
	d := time.Since(c.start)
	e.svc.metrics.invokeHist(c.mode).Observe(d)
	e.svc.span(uint64(c.trace), flight.StClientInvoke, detail, d)
}

// Read serves one read-only invocation outside the ordering layer (Invoker
// surface): a point-to-point control call on one replica's NSO, never an
// ordered multicast, and no call number — a read executes nowhere but the
// serving replica, so there is nothing to retain or filter. Consistency
// resolves per call (WithConsistency) over Leased; the session floor
// defaults to the session stamp except for Stale reads (WithMinStamp
// overrides either way). When every replica refuses a leased read — expired
// leases during a partition or view change — the read escalates once to
// Linearizable at the ordering authority, which is at least as fresh as
// what the caller asked for.
func (e *engine) Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error) {
	return e.read(ctx, method, args, resolveCallOpts(opts))
}

// read is Read with the options resolved.
func (e *engine) read(ctx context.Context, method string, args []byte, o callOpts) ([]byte, error) {
	cons := o.consistency
	if cons == 0 {
		cons = Leased
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	e.mu.Lock()
	min, err := e.sessStamp, e.stateLocked()
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if o.hasMin || cons == Stale {
		min = o.minStamp
	}

	start := time.Now()
	payload, final, err := e.readOnce(ctx, cons, method, args, min, o.maxStale, uint64(o.trace))
	if err != nil && !final && cons == Leased {
		payload, _, err = e.readOnce(ctx, Linearizable, method, args, min, 0, uint64(o.trace))
	}
	e.svc.span(uint64(o.trace), flight.StClientRead, uint64(cons), time.Since(start))
	return payload, err
}

// readOnce encodes the request once and tries each candidate replica in
// turn. final reports that the error is not improvable by escalating the
// consistency (an application error, a disabled read path, a spent
// context); everything else — lease refusals, session floors out of
// reach, transport failures — leaves escalation open to the caller.
func (e *engine) readOnce(ctx context.Context, cons Consistency, method string, args []byte, min vclock.Stamp, maxStale time.Duration, trace uint64) (payload []byte, final bool, err error) {
	req := encodeReadRequest(&readRequest{
		Group:       e.serverGroup,
		Method:      method,
		Args:        args,
		Consistency: cons,
		MaxStale:    int64(maxStale),
		MinStamp:    min,
		Trace:       trace,
	})
	// refusal is what every replica turning the read away amounts to: an
	// expired lease anywhere outranks a replica that is not the ordering
	// authority.
	var refusal error
	lastErr := error(ErrNoServers)
	for _, t := range e.readTargets(cons) {
		raw, cerr := e.svc.invokeControl(ctx, t, "read", req)
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
			e.noteStamp(rep.Stamp)
			return rep.Payload, true, nil
		case readErrApp:
			e.noteStamp(rep.Stamp)
			return nil, true, fmt.Errorf("core: read %s at %s: %s", method, t, rep.Err)
		case readErrDisabled:
			return nil, true, ErrReadDisabled
		case readErrLease:
			refusal = ErrLeaseExpired
		case readErrNotSeq:
			if refusal == nil {
				refusal = ErrNotLinearizable
			}
		}
		// A refusal (lease, authority, session floor, retry): try the next.
		lastErr = fmt.Errorf("core: read at %s: %s", t, rep.Err)
	}
	if refusal != nil {
		return nil, false, fmt.Errorf("%w: %v", refusal, lastErr)
	}
	return nil, false, lastErr
}

// readTargets orders the candidate replicas for one read. Reads are
// point-to-point, so the pool is the server group — not the client/server
// group, which for an open binding holds only the request manager — less,
// closed style, the servers the view has lost. Linearizable reads go
// lowest-identifier first (that member is the sequencer, the only replica
// that can serve them without a redirect); leased and stale reads rotate,
// advancing the favourite every readRenew.
func (e *engine) readTargets(cons Consistency) []ids.ProcessID {
	e.mu.Lock()
	defer e.mu.Unlock()
	pool := make([]ids.ProcessID, 0, len(e.servers))
	if e.style == Closed {
		pool = e.liveLocked(pool)
	}
	if len(pool) == 0 {
		pool = append(pool, e.servers...)
	}
	if cons == Linearizable || len(pool) < 2 {
		return pool
	}
	if now := time.Now(); e.readPickAt.IsZero() || now.Sub(e.readPickAt) >= e.readRenew {
		e.readIdx++
		e.readPickAt = now
	}
	first := e.readIdx % len(pool)
	return append(pool[first:], pool[:first]...)
}
