// Package orb is a miniature object request broker — the substrate the
// paper obtained from omniORB2. It provides named servant objects,
// synchronous request/reply invocation with correlation, and one-way
// (asynchronous) invocation.
//
// An inbound request is answered on the receive loop whenever it can be:
// a one-way sink (HandleOneWay) always runs there, and a two-way handler
// (HandleTwoWay) does unless it reports that it would block. Only what
// remains — a request with no inline handler, or one whose handler would
// block — runs the object's servant on a goroutine of its own, the
// measure the paper describes for obtaining parallelism from a
// synchronous-only ORB. That goroutine per request is the fallback, not
// the rule: a call that cannot block costs none, and the caller waits on a
// pending-call slot it reuses from call to call.
//
// Every payload is the remainder of its frame, with no length prefix: a
// request's args, a one-way's args, a reply's payload or error text. The
// sender writes it straight into the pooled frame (InvokeOneWay, a
// two-way handler's reply writer), so it is encoded once, and the receiver
// hands it on as a slice of the inbound frame.
package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/transport"
	"newtop/internal/wire"
)

// Errors returned by invocations.
var (
	// ErrClosed is returned once the ORB has shut down.
	ErrClosed = errors.New("orb: closed")
	// ErrNoObject is the error a target raises for an unknown object; it
	// surfaces at the caller inside a *RemoteError.
	ErrNoObject = errors.New("orb: no such object")
)

// RemoteError is an application or dispatch error raised by the target
// process and carried back to the invoker.
type RemoteError struct {
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "orb: remote: " + e.Msg }

// Handler implements a servant: it processes one invocation and returns
// the reply payload. A servant serves what no inline handler answered, each
// invocation on a goroutine of its own, so handlers run concurrently and
// must be safe for concurrent use.
type Handler func(method string, args []byte) ([]byte, error)

// TwoWayHandler answers two-way invocations of one method on the receive
// loop (HandleTwoWay). It writes its reply payload into reply, a pooled
// frame it must not keep, and returns nil; or it returns ErrWouldBlock,
// having written nothing, and the invocation goes to the object's servant
// on a goroutine instead. Any other error is the reply, as a servant's is.
// args are the inbound frame's remainder, not a copy.
type TwoWayHandler func(args []byte, reply *wire.Writer) error

// ErrWouldBlock is what a TwoWayHandler returns for an invocation it will
// not answer on the receive loop: one it would have to wait for, or any it
// leaves to the servant.
var ErrWouldBlock = errors.New("orb: would block")

// Ref names a remote object: the process hosting it and its object name.
type Ref struct {
	Target ids.ProcessID
	Object string
}

// String implements fmt.Stringer.
func (r Ref) String() string { return fmt.Sprintf("%s@%s", r.Object, r.Target) }

const (
	kindRequest byte = iota + 1
	kindOneWay
	kindReply
)

const (
	statusOK byte = iota + 1
	statusError
)

// methodKey names one method of an object, the unit an inline handler
// serves.
type methodKey struct{ object, method string }

type response struct {
	payload []byte
	err     error
}

// ORB is one process's object request broker.
type ORB struct {
	ep transport.Endpoint
	// Every frame the ORB encodes starts with hdr and leaves through out
	// (transport.Framing): over a Mux channel the encoded buffer is the
	// wire frame, with no copy to make room for the protocol byte.
	out transport.FrameSender
	hdr []byte

	// requests counts inbound invocations, offLoop those of them run on a
	// goroutine of their own; dispatch is the handler execution latency;
	// inflightHigh is the high-water mark of outstanding outbound calls
	// awaiting replies.
	requests     *obs.Counter
	offLoop      *obs.Counter
	dispatchLat  *obs.Histogram
	inflightHigh *obs.Gauge

	mu       sync.Mutex
	servants map[string]Handler
	sinks    map[methodKey]func(args []byte)
	twoWays  map[methodKey]TwoWayHandler
	// calls holds each outstanding Invoke's slot by request identifier;
	// free holds the slots their callers have received from, for the next
	// calls to reuse (as many as were ever outstanding at once).
	calls map[uint64]chan response
	free  []chan response
	// timers are the stopped timers of bounded calls (InvokeWithin), for the
	// next such calls to reuse.
	timers  []*time.Timer
	nextReq uint64
	closed  bool

	wg       sync.WaitGroup
	recvDone chan struct{}
}

// New starts an ORB on ep. The ORB owns ep and closes it on Close.
// Instruments register in the process-wide observability domain; use
// NewObs to direct them elsewhere.
func New(ep transport.Endpoint) *ORB { return NewObs(ep, obs.Default()) }

// NewObs is New with an explicit observability domain.
func NewObs(ep transport.Endpoint, ob *obs.Obs) *ORB {
	o := &ORB{
		ep:           ep,
		requests:     ob.Reg.Counter("orb_requests"),
		offLoop:      ob.Reg.Counter("orb_requests_offloop"),
		dispatchLat:  ob.Reg.Histogram("orb_dispatch_latency"),
		inflightHigh: ob.Reg.Gauge("orb_inflight_highwater"),
		servants:     make(map[string]Handler),
		sinks:        make(map[methodKey]func(args []byte)),
		twoWays:      make(map[methodKey]TwoWayHandler),
		calls:        make(map[uint64]chan response),
		recvDone:     make(chan struct{}),
	}
	o.out = transport.Framing(ep)
	o.hdr = o.out.FrameHeader()
	go o.recvLoop()
	return o
}

// newFrame returns a pooled writer holding the frame header and kind.
func (o *ORB) newFrame(kind byte) *wire.Writer {
	w := wire.GetWriter()
	for _, b := range o.hdr {
		w.Byte(b)
	}
	w.Byte(kind)
	return w
}

// ID returns the hosting process identifier.
func (o *ORB) ID() ids.ProcessID { return o.ep.ID() }

// Register installs (or replaces) the servant for an object name.
func (o *ORB) Register(object string, h Handler) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servants[object] = h
}

// HandleOneWay installs the sink for one-way invocations of one method of
// an object. Unlike a servant, a sink runs on the ORB's receive loop, in
// arrival order, with no goroutine per invocation — so it must not block:
// every frame behind it waits. It is for the hand-off kind of one-way (look
// the addressee up, pass the message on); args are the inbound frame's
// remainder, not a copy.
// Two-way invocations of the same method are HandleTwoWay's, or the
// object's servant's.
func (o *ORB) HandleOneWay(object, method string, sink func(args []byte)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sinks[methodKey{object, method}] = sink
}

// HandleTwoWay installs the inline handler for two-way invocations of one
// method of an object, the counterpart of HandleOneWay: it runs on the
// receive loop, in arrival order, and its reply is written straight into
// the reply frame. Like a sink it must not block; an invocation it cannot
// answer at once it hands back with ErrWouldBlock, and the object's servant
// then serves it on a goroutine of its own.
func (o *ORB) HandleTwoWay(object, method string, h TwoWayHandler) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.twoWays[methodKey{object, method}] = h
}

// Invoke performs a synchronous invocation on a remote object and returns
// its reply, a slice of the inbound frame. It fails with ctx's error on
// timeout/cancellation (the transport is best-effort; a crashed or
// partitioned target simply never replies) and with *RemoteError when the
// target raised one.
func (o *ORB) Invoke(ctx context.Context, ref Ref, method string, args []byte) ([]byte, error) {
	return o.invoke(ctx, ref, method, args, 0)
}

// InvokeWithin is Invoke bounded by bound as well as by ctx: a target that
// has not replied within bound fails the call with ErrNoReply. The bound's
// timer is reused from call to call, so a bounded call costs no allocation
// more than Invoke.
func (o *ORB) InvokeWithin(ctx context.Context, ref Ref, method string, args []byte, bound time.Duration) ([]byte, error) {
	return o.invoke(ctx, ref, method, args, bound)
}

// ErrNoReply is InvokeWithin's failure when the target did not reply within
// the bound.
var ErrNoReply = errors.New("orb: no reply within the bound")

func (o *ORB) invoke(ctx context.Context, ref Ref, method string, args []byte, bound time.Duration) ([]byte, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, ErrClosed
	}
	o.nextReq++
	reqID := o.nextReq
	var slot chan response
	if n := len(o.free); n > 0 {
		slot = o.free[n-1]
		o.free[n-1] = nil
		o.free = o.free[:n-1]
	} else {
		slot = make(chan response, 1) // one per call outstanding at the high-water mark: every later call reuses one
	}
	o.calls[reqID] = slot
	o.inflightHigh.SetMax(int64(len(o.calls)))
	var timer *time.Timer
	var expired <-chan time.Time // nil, never ready, for an unbounded call
	if bound > 0 {
		if n := len(o.timers); n > 0 {
			timer = o.timers[n-1]
			o.timers[n-1] = nil
			o.timers = o.timers[:n-1]
			timer.Reset(bound)
		} else {
			timer = time.NewTimer(bound) // one per bounded call outstanding at the high-water mark
		}
		expired = timer.C
	}
	o.mu.Unlock()

	w := o.newFrame(kindRequest)
	w.Uvarint(reqID)
	w.String(ref.Object)
	w.String(method)
	w.Raw(args)
	// The transport copies the frame, so the writer is recycled at once.
	err := o.out.SendFrame(ref.Target, w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		if o.abandon(reqID, timer) {
			return nil, ErrClosed // the send lost a race with Close
		}
		return nil, fmt.Errorf("invoke %s: %w", ref, err)
	}

	select {
	case resp := <-slot:
		// The one reply this registration could get has been taken: the
		// slot is empty, and the next call may have it.
		o.mu.Lock()
		o.free = append(o.free, slot)
		o.stopLocked(timer)
		o.mu.Unlock()
		return resp.payload, resp.err
	case <-ctx.Done():
		o.abandon(reqID, timer)
		return nil, ctx.Err()
	case <-expired:
		o.abandon(reqID, nil)
		o.mu.Lock()
		o.timers = append(o.timers, timer) // fired and drained
		o.mu.Unlock()
		return nil, fmt.Errorf("invoke %s: %w", ref, ErrNoReply)
	}
}

// stopLocked stops a bounded call's timer, drains a fire that raced the
// stop, and keeps the timer for reuse (o.mu held); a nil timer is an
// unbounded call's.
func (o *ORB) stopLocked(t *time.Timer) {
	if t == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	o.timers = append(o.timers, t)
}

// abandon withdraws a call its caller gave up on, stops its timer, if any,
// and reports whether the ORB has closed. The slot is dropped, not
// recycled: a reply (or Close's ErrClosed) that took it from the table
// first may still be on its way into it, and must not complete a later
// call.
func (o *ORB) abandon(reqID uint64, timer *time.Timer) (closed bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.calls, reqID)
	o.stopLocked(timer)
	return o.closed
}

// InvokeOneWay performs an asynchronous invocation: no reply is generated
// and delivery is best-effort. put writes the args straight into the frame,
// as its remainder (nil sends none); it must not keep w.
func (o *ORB) InvokeOneWay(ref Ref, method string, put func(w *wire.Writer)) error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return ErrClosed
	}
	o.mu.Unlock()

	w := o.newFrame(kindOneWay)
	w.Uvarint(0)
	w.String(ref.Object)
	w.String(method)
	if put != nil {
		put(w)
	}
	err := o.out.SendFrame(ref.Target, w.Bytes())
	wire.PutWriter(w)
	if err != nil {
		return fmt.Errorf("invoke oneway %s: %w", ref, err)
	}
	return nil
}

// Close shuts the ORB down: in-flight outbound calls fail with ErrClosed,
// inbound dispatch drains, and the endpoint closes.
func (o *ORB) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		<-o.recvDone
		return nil
	}
	o.closed = true
	for id, ch := range o.calls {
		ch <- response{err: ErrClosed}
		delete(o.calls, id)
	}
	o.mu.Unlock()

	err := o.ep.Close()
	<-o.recvDone
	o.wg.Wait()
	return err
}

func (o *ORB) recvLoop() {
	defer close(o.recvDone)
	batch := make([]transport.Inbound, transport.RecvBurst)
	for {
		n, ok := transport.Recv(o.ep, batch)
		if !ok {
			return
		}
		for _, in := range batch[:n] {
			o.dispatch(in)
		}
		clear(batch[:n]) // an idle loop must not pin the last burst's frames
	}
}

func (o *ORB) dispatch(in transport.Inbound) {
	r := wire.NewReader(in.Payload)
	kind := r.Byte()
	reqID := r.Uvarint()
	switch kind {
	case kindRequest, kindOneWay:
		// Zero-copy: names and args alias the inbound frame, which is
		// per-message and stays alive as long as the servant holds a slice.
		objectRef := r.BlobRef()
		methodRef := r.BlobRef()
		args := r.Rest()
		if r.Done() != nil {
			return
		}
		o.mu.Lock()
		var sink func(args []byte)
		var twoWay TwoWayHandler
		if kind == kindOneWay {
			sink = o.sinks[methodKey{string(objectRef), string(methodRef)}]
		} else {
			twoWay = o.twoWays[methodKey{string(objectRef), string(methodRef)}]
		}
		h := o.servants[string(objectRef)]
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return
		}
		o.requests.Inc()
		switch {
		case sink != nil:
			start := time.Now()
			sink(args)
			o.dispatchLat.Observe(time.Since(start))
			return
		case twoWay != nil && o.answerInline(in.From, reqID, twoWay, args):
			return
		}
		object, method := string(objectRef), string(methodRef)
		o.offLoop.Inc()
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serve(in.From, kind, reqID, object, h, method, args)
		}()
	case kindReply:
		status := r.Byte()
		rest := r.Rest()
		if r.Done() != nil {
			return
		}
		o.mu.Lock()
		slot := o.calls[reqID]
		delete(o.calls, reqID)
		o.mu.Unlock()
		if slot == nil {
			return // late reply after caller gave up
		}
		// The slot's buffer of one is empty: only a slot its caller has
		// received from is reused, and taking it out of the table above
		// makes this the registration's one send.
		if status == statusOK {
			slot <- response{payload: rest}
		} else {
			slot <- response{err: &RemoteError{Msg: string(rest)}}
		}
	}
}

// answerInline runs a two-way handler on the receive loop and sends the
// reply it writes; false means the handler would block, and nothing was
// sent.
func (o *ORB) answerInline(to ids.ProcessID, reqID uint64, h TwoWayHandler, args []byte) bool {
	start := time.Now()
	w := o.newFrame(kindReply)
	w.Uvarint(reqID)
	w.Byte(statusOK)
	err := h(args, w)
	if errors.Is(err, ErrWouldBlock) {
		wire.PutWriter(w)
		return false
	}
	o.dispatchLat.Observe(time.Since(start))
	if err != nil {
		wire.PutWriter(w)
		o.reply(to, reqID, nil, err)
		return true
	}
	_ = o.out.SendFrame(to, w.Bytes()) //lint:ok errdrop best-effort: a lost reply looks like a lost request, and the client retries
	wire.PutWriter(w)
	return true
}

// serve runs one servant invocation and, for two-way requests, sends the
// reply.
func (o *ORB) serve(from ids.ProcessID, kind byte, reqID uint64, object string, h Handler, method string, args []byte) {
	var payload []byte
	var err error
	if h == nil {
		err = fmt.Errorf("%w: %q", ErrNoObject, object)
	} else {
		start := time.Now()
		payload, err = h(method, args)
		o.dispatchLat.Observe(time.Since(start))
	}
	if kind == kindOneWay {
		return
	}
	o.reply(from, reqID, payload, err)
}

// reply sends a two-way invocation's outcome: the payload, or the error's
// text, as the frame's remainder.
func (o *ORB) reply(to ids.ProcessID, reqID uint64, payload []byte, err error) {
	w := o.newFrame(kindReply)
	w.Uvarint(reqID)
	if err != nil {
		w.Byte(statusError)
		w.Raw([]byte(err.Error()))
	} else {
		w.Byte(statusOK)
		w.Raw(payload)
	}
	_ = o.out.SendFrame(to, w.Bytes()) //lint:ok errdrop best-effort: a lost reply looks like a lost request, and the client retries
	wire.PutWriter(w)
}
