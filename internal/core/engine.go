package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/vclock"
	"newtop/internal/wire"
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
// worker that delivers them to the engine's handler (onEvent). Nor is
// anything registered per call: the detached calls launched under one
// context share one hook on its end (ctxHook).
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
	early *bounded[ids.CallID, decodedSet]
	// unsure lists the async-forward calls that ended without an answer —
	// abandoned, or failed — which the primary may have run all the same:
	// their numbers stay held at the service, the floor at them, until
	// their relays are known to be ordered. A backup could otherwise meet a
	// later request whose floor had passed one of them before its relay,
	// and refuse it. The request manager serves this group's requests in
	// order and relays each before it answers, so any answer to a call
	// launched after one of them ended (its launch number past after), or
	// the call's own late answer, releases it. launched numbers the calls
	// as they are filed.
	unsure   []unsureCall
	launched uint64
	asyncFwd bool // an open binding whose wait-for-first calls its manager answers first (rmPrimary)
	// sessStamp is the session token: the newest applied stamp observed in
	// any reply (writes and reads both advance it). Reads default their
	// session floor to it — that is read-your-writes across replicas.
	sessStamp vclock.Stamp
	// readIdx/readPickAt rotate leased and stale reads across replicas: the
	// favourite advances every readRenew.
	readIdx    int
	readPickAt time.Time

	// hooks are the live hooks on the ends of the contexts detached calls
	// were launched under, one per context (see ctxHook); last is that of
	// the most recent such launch, and spare holds hooks to reuse.
	hooks []*ctxHook
	last  *ctxHook
	spare []*ctxHook

	// window holds the free slots of the outstanding-call window, capacity
	// BindConfig.Window: a call takes one at launch and holds it until it
	// is out of the table (see Call.slot).
	window chan *winSlot
	// formed is closed by the handler at the view that forms the attachment
	// (see onEvent); isFormed is the handler's own record of it.
	formed   chan struct{}
	isFormed bool
}

// unsureCall is an async-forward call that ended without an answer, and
// the launches filed by then.
type unsureCall struct{ number, after uint64 }

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
		asyncFwd:    cfg.AsyncForward && style == Open,
		servers:     servers,
		brokenCh:    make(chan struct{}),
		calls:       make(map[ids.CallID]*Call),
		window:      newWindow(cfg.Window),
		formed:      make(chan struct{}),
	}
}

// winSlot is one slot of an attachment's outstanding-call window. sig is the
// signal a synchronous call holding the slot waits on (engine.wait), made
// by the first such call; the call's finish sends it once, and its caller
// takes it before the slot goes back, so a completion can never wake a
// later call. replies is the storage a closed call holding the slot gathers
// its direct replies in, made by the first such call: retire ends the
// collection (collector.drop) before the slot goes back, so a late reply
// never reaches the next call's.
type winSlot struct {
	sig     chan struct{}
	replies []invReply
}

// newWindow builds a window of n free slots.
func newWindow(n int) chan *winSlot {
	w := make(chan *winSlot, n)
	slots := make([]winSlot, n)
	for i := range slots {
		w <- &slots[i]
	}
	return w
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
		// Nothing will answer through this group any more: give them up.
		for _, u := range e.unsure {
			e.svc.release(u.number)
		}
		e.unsure = nil
		// No call is launched any more: the most recent context's hook
		// goes now, or with its last call, as every other hook does.
		if h := e.last; h != nil {
			e.last = nil
			if h.calls == nil {
				e.dropHookLocked(h)
			}
		}
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
		var p payload
		if decodePayload(ev.Deliver.Payload, &e.svc.strs, &p) == nil && p.Kind == payloadReplySet {
			e.onAnswer(p.Set)
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

// onAnswer completes the call a reply set answers or, group-to-group,
// keeps the set for a call this member has yet to issue. e.mu makes
// route-or-retain atomic against launch, which files the call and claims a
// retained set in one critical section: whichever goes first, the set
// reaches the call. The first set to reach a call claims it, and only that
// one decodes, straight into the call's own storage; a retained set is
// decoded into its own. A set that does not decode is dropped.
func (e *engine) onAnswer(a answer) {
	e.mu.Lock()
	c := e.calls[a.Call]
	switch {
	case c == nil:
		if len(e.unsure) > 0 && a.Call.Client == e.svc.ID() {
			e.settleUnsureLocked(a.Call.Number, 0) // a late answer to an abandoned call
		}
		if e.early != nil {
			if replies, rmErr, err := decodeAnswer(a.Body, &e.svc.strs, nil); err == nil {
				e.early.put(a.Call, decodedSet{replies, rmErr})
			}
		}
	case c.claimed:
		c = nil
	default:
		c.claimed = true
		if len(e.unsure) > 0 {
			e.settleUnsureLocked(0, c.seq)
		}
	}
	e.mu.Unlock()
	if c == nil {
		return
	}
	replies, rmErr, err := decodeAnswer(a.Body, &e.svc.strs, c.inline[:0])
	if err != nil {
		e.mu.Lock()
		c.claimed = false // a later copy may still complete the call
		e.mu.Unlock()
		return
	}
	e.deliver(c, replies, rmErr)
}

// settleUnsureLocked releases the unsure calls an answer covers: the call
// it answers (number), and those that ended before the launch of the call
// it answers (seq), whose relays went out before its answer.
func (e *engine) settleUnsureLocked(number, seq uint64) {
	k := 0
	for _, u := range e.unsure {
		if u.number != number && u.after >= seq {
			e.unsure[k] = u
			k++
		} else {
			e.svc.release(u.number)
		}
	}
	clear(e.unsure[k:])
	e.unsure = e.unsure[:k]
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
			if c.gather.settle(c.id, e.live, false) {
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
		e.deliverGathered(c)
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
		e.deliverGathered(c)
	}
}

// deliverGathered completes a closed call whose collector has settled with
// the replies it gathered, converted into the call's own storage under the
// collector's lock — unless the call was retired meanwhile, and the slot's
// storage may serve another call already.
func (e *engine) deliverGathered(c *Call) {
	c.gather.mu.Lock()
	live := c.gather.call == c.id
	var replies []Reply
	if live {
		replies = appendReplies(c.inline[:0], c.gather.replies)
	}
	c.gather.mu.Unlock()
	if live {
		e.deliver(c, replies, "")
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
	return e.wait(ctx, c)
}

// wait blocks a synchronous call until it completes or ctx expires, then
// returns its window slot and its result. If ctx gives out first, the call
// is finished with ctx's error — unless a completion wins the race — and
// the one signal the winning finish sends is taken all the same: the slot
// goes back empty, so that no late completion can wake the call that takes
// the slot next.
func (e *engine) wait(ctx context.Context, c *Call) ([]Reply, error) {
	select {
	case <-c.slot.sig:
	case <-ctx.Done():
		c.finish(nil, ctx.Err())
		<-c.slot.sig
	}
	e.window <- c.slot
	return c.Replies()
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
// complete it; otherwise the call is synchronous, and its caller awaits it
// with wait.
func (e *engine) launch(ctx context.Context, method string, args []byte, o callOpts, detached bool) (*Call, error) {
	if e.groupClient != "" && !o.hasCall {
		return nil, ErrNeedCallNumber
	}
	var slot *winSlot
	select {
	case slot = <-e.window:
	case <-e.brokenCh:
		e.mu.Lock()
		err := e.stateLocked()
		e.mu.Unlock()
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Identity last, once the call is sure to go out: a number this engine
	// allocates is held until the call is over (retire), and its floor goes
	// with the request.
	var floor uint64
	owned := false
	switch {
	case e.groupClient != "":
		o.call.Client = e.groupClient // shared by the client group, no floor
		if o.trace == 0 {
			// Every client-group member derives the same trace identifier
			// from the call's coordinates, so all duplicate copies of the
			// request — and the request manager's processing of the
			// surviving one — share one trace.
			o.trace = obs.DeriveTraceID(string(e.groupClient), o.call.Number)
		}
	case !o.hasCall:
		o.call, floor = e.svc.newCall()
		owned = true
	default:
		var err error
		if floor, owned, err = e.svc.holdNamed(o.call); err != nil {
			e.window <- slot
			return nil, err
		}
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	// Keep the group's failure detection alive while the call is
	// outstanding: an idle event-driven group would otherwise never notice
	// a request manager that died after the request stabilised but before
	// replying.
	e.group.Attend()

	c := newCallFuture(o.call, o.mode)
	c.eng, c.slot, c.trace, c.start, c.owned = e, slot, o.trace, time.Now(), owned
	if !detached {
		c.sync = true
		if slot.sig == nil {
			slot.sig = make(chan struct{}, 1) // one per window slot, by the first synchronous call to hold it
		}
	}
	if e.style == Closed {
		if slot.replies == nil {
			slot.replies = make([]invReply, 0, len(e.servers)) // one per window slot, by the first closed call to hold it
		}
		c.gather.mode, c.gather.call, c.gather.replies = o.mode, c.id, slot.replies[:0]
	}
	e.mu.Lock()
	err := e.stateLocked()
	var early decodedSet
	var isEarly bool
	if err == nil {
		e.calls[c.id] = c
		e.launched++
		c.seq = e.launched
		if e.early != nil {
			early, isEarly = e.early.take(c.id)
			c.claimed = isEarly
		}
		if detached && ctx.Done() != nil {
			c.hooked = true
			e.hookLocked(c, ctx)
		}
	}
	e.mu.Unlock()
	if err != nil {
		if owned {
			e.svc.release(c.id.Number)
		}
		e.group.Unattend()
		e.window <- slot
		return nil, err
	}
	e.svc.metrics.asyncCalls.Inc()
	e.svc.metrics.asyncInflightHigh.SetMax(int64(cap(e.window) - len(e.window)))
	e.svc.fr.RecordAt(flight.Stamp(c.start), flight.Event{Type: flight.EvCallStart, Proc: e.svc.frProc,
		Sender: flight.NoSender, MsgSeq: uint64(c.trace), A: uint64(c.mode)})

	w := wire.GetWriter()
	putRequest(w, &invRequest{
		Call:   c.id,
		Mode:   c.mode,
		Method: method,
		Args:   args,
		Client: e.svc.ID(),
		Style:  e.style,
		Trace:  uint64(c.trace),
		Floor:  floor,
	})
	err = e.group.Multicast(ctx, w.Bytes())
	wire.PutWriter(w)
	switch {
	case err != nil:
		if errors.Is(err, gcs.ErrLeft) {
			err = ErrBindingBroken
		}
		c.finish(nil, err)
		if c.sync {
			// Nobody will wait: take the one signal the winning finish
			// sent, and return the slot empty (see wait).
			<-c.slot.sig
			e.window <- c.slot
		}
		return nil, err
	case isEarly:
		e.deliver(c, early.Replies, early.Err)
	case c.mode == OneWay:
		c.finish(nil, nil)
	case c.hooked && e.asyncFwd && c.mode == First && c.ended():
		e.sentLate(c.id.Number)
	}
	return c, nil
}

// sentLate handles an async-forward call that its context ended while its
// request was still being sent: it counts as unsure from the end of the
// send, so only the answers to calls launched after that release it.
func (e *engine) sentLate(number uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.unsure {
		if e.unsure[i].number == number {
			e.unsure[i].after = e.launched
		}
	}
}

// ctxHook finishes, with its context's error, the detached calls still
// outstanding under a caller's context when that context ends. An engine
// registers one context.AfterFunc per context, not one per call; contexts
// that share a Done channel (a value context and its parent) end together
// and share a hook. The hook lists its calls (Call.prev/next). When the last
// of them is over it is stopped, unless it is the engine's most recent
// (engine.last), kept for the calls its context launches next, so that a
// long-lived context costs one hook for the attachment's life; once the
// attachment breaks, no hook is the most recent, and its failed calls take
// the hooks with them. A stopped hook is reused with its fire func.
type ctxHook struct {
	ctx   context.Context
	done  <-chan struct{}
	stop  func() bool
	fire  func() // runs ctxEnded for this hook
	calls *Call
	live  bool // among engine.hooks, and so holding its calls
}

// hookLocked files c with the hook on ctx's end, registering one if ctx has
// none, and makes that hook the engine's most recent; the previous most
// recent is stopped if it holds no call.
func (e *engine) hookLocked(c *Call, ctx context.Context) {
	done := ctx.Done()
	h := e.last
	if h == nil || h.done != done {
		h = nil
		for _, o := range e.hooks {
			if o.done == done {
				h = o
				break
			}
		}
		if h == nil {
			h = e.newHookLocked(ctx, done)
		}
		if old := e.last; old != nil && old.calls == nil {
			e.dropHookLocked(old)
		}
		e.last = h
	}
	c.hook, c.next = h, h.calls
	if h.calls != nil {
		h.calls.prev = c
	}
	h.calls = c
}

// newHookLocked registers a hook on the end of ctx, whose Done is done.
func (e *engine) newHookLocked(ctx context.Context, done <-chan struct{}) *ctxHook {
	var h *ctxHook
	if n := len(e.spare); n > 0 {
		h, e.spare = e.spare[n-1], e.spare[:n-1]
	} else {
		h = new(ctxHook)
		h.fire = func() { e.ctxEnded(h) }
	}
	h.ctx, h.done, h.live = ctx, done, true
	h.stop = context.AfterFunc(ctx, h.fire)
	e.hooks = append(e.hooks, h)
	return h
}

// unhookLocked takes a call that is over off its hook, and stops the hook
// if that was its last call and it is not the engine's most recent.
func (e *engine) unhookLocked(c *Call) {
	h := c.hook
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		h.calls = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.hook, c.prev, c.next = nil, nil, nil
	if h.calls == nil && h != e.last {
		e.dropHookLocked(h)
	}
}

// dropHookLocked takes h, which holds no call, out of the engine's hooks
// and stops it. A hook that has fired all the same is ctxEnded's to reclaim.
func (e *engine) dropHookLocked(h *ctxHook) {
	e.removeHookLocked(h)
	if h.stop() {
		e.spareLocked(h)
	}
}

// removeHookLocked takes h out of the engine's hooks.
func (e *engine) removeHookLocked(h *ctxHook) {
	i, n := slices.Index(e.hooks, h), len(e.hooks)-1
	e.hooks[i], e.hooks[n] = e.hooks[n], nil
	e.hooks = e.hooks[:n]
	h.live = false
	if e.last == h {
		e.last = nil
	}
}

// spareLocked keeps a hook that will not fire again for reuse.
func (e *engine) spareLocked(h *ctxHook) {
	h.ctx, h.done, h.stop = nil, nil, nil
	e.spare = append(e.spare, h)
}

// ctxEnded is a hook firing: its context has ended, and the calls it holds
// finish with the context's error. A hook stopped too late to keep it from
// firing holds nothing, and is only reclaimed.
func (e *engine) ctxEnded(h *ctxHook) {
	e.mu.Lock()
	var ended []*Call
	var err error
	if h.live {
		err = h.ctx.Err()
		for c := h.calls; c != nil; {
			next := c.next
			ended = append(ended, c)
			c.hook, c.prev, c.next = nil, nil, nil
			c = next
		}
		h.calls = nil
		e.removeHookLocked(h)
	}
	e.spareLocked(h)
	e.mu.Unlock()
	for _, c := range ended {
		c.finish(nil, err)
	}
}

// deliver completes c with the servers' replies — the request manager's
// aggregate or, closed style, the direct replies that met the quorum — and
// folds their stamps into the session.
func (e *engine) deliver(c *Call, replies []Reply, rmErr string) {
	switch {
	case rmErr != "":
		c.finish(nil, fmt.Errorf("core: request manager: %s", rmErr))
		return
	case len(replies) == 0:
		c.finish(nil, errors.New("core: empty reply set"))
		return
	}
	var newest vclock.Stamp
	for _, rep := range replies {
		if newest.Less(rep.Stamp) {
			newest = rep.Stamp
		}
	}
	e.noteStamp(newest)
	c.finish(replies, nil)
}

// appendReplies converts a closed call's gathered direct replies into the
// Reply values it hands out, appended to dst.
func appendReplies(dst []Reply, reps []invReply) []Reply {
	dst = slices.Grow(dst, len(reps))
	for _, rep := range reps {
		dst = append(dst, rep.toReply())
	}
	return dst
}

// retire is the epilogue of every call that was admitted, run once by the
// finish that completes it: the end of a closed call's collection, out of
// the table — unless a retry under the same call identifier has taken the
// entry since — and its context's hook, then the group's attention, the
// slot (a synchronous call's caller returns its own) and the records.
func (e *engine) retire(c *Call, err error) {
	if e.style == Closed {
		c.gather.drop()
	}
	e.mu.Lock()
	if e.calls[c.id] == c {
		delete(e.calls, c.id)
	}
	if c.hook != nil {
		e.unhookLocked(c)
	}
	release := c.owned
	if release && !c.claimed && e.asyncFwd && c.mode == First && !e.broken {
		// Over without an answer, yet the primary may have run it: it
		// stays held until an answer shows its relay ordered.
		e.unsure = append(e.unsure, unsureCall{c.id.Number, e.launched}) // grows to the most calls ever abandoned at once, then is reused
		release = false
	}
	e.mu.Unlock()
	if release {
		e.svc.release(c.id.Number)
	}
	e.group.Unattend()
	if !c.sync {
		e.window <- c.slot
	}
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
	e.svc.span(uint64(c.trace), flight.StClientInvoke, detail, c.start, d)
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
	e.svc.span(uint64(o.trace), flight.StClientRead, uint64(cons), start, time.Since(start))
	return payload, err
}

// readOnce encodes the request once and tries each candidate replica in
// turn. final reports that the error is not improvable by escalating the
// consistency (an application error, a disabled read path, a spent
// context); everything else — lease refusals, session floors out of
// reach, transport failures — leaves escalation open to the caller.
func (e *engine) readOnce(ctx context.Context, cons Consistency, method string, args []byte, min vclock.Stamp, maxStale time.Duration, trace uint64) (payload []byte, final bool, err error) {
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	putReadRequest(w, &readRequest{
		Group:       e.serverGroup,
		Method:      method,
		Args:        args,
		Consistency: cons,
		MaxStale:    int64(maxStale),
		MinStamp:    min,
		Trace:       trace,
	})
	req := w.Bytes()
	// refusal is what every replica turning the read away amounts to: an
	// expired lease anywhere outranks a replica that is not the ordering
	// authority.
	var refusal error
	lastErr := error(ErrNoServers)
	var targets [readTargetsInline]ids.ProcessID
	for _, t := range e.readTargets(cons, targets[:0]) {
		raw, cerr := e.svc.invokeControl(ctx, t, "read", req)
		if cerr != nil {
			if ctx.Err() != nil {
				return nil, true, ctx.Err()
			}
			lastErr = cerr
			continue
		}
		var rep readReply
		if derr := decodeReadReply(raw, &e.svc.strs, &rep); derr != nil {
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
// advancing the favourite every readRenew. The order is built in dst's
// spare capacity, which allocates nothing while it holds the pool twice
// over (see readTargetsInline).
func (e *engine) readTargets(cons Consistency, dst []ids.ProcessID) []ids.ProcessID {
	e.mu.Lock()
	defer e.mu.Unlock()
	pool := dst
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
	// Rotate through the spare capacity: the members before first go again
	// after the end, and the order starts at first.
	first := e.readIdx % len(pool)
	return append(pool, pool[:first]...)[first:]
}

// readTargetsInline sizes the buffer a read orders its replicas in: a
// rotation of up to half as many replicas needs no allocation.
const readTargetsInline = 16
