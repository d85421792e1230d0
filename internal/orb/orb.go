// Package orb is a miniature object request broker — the substrate the
// paper obtained from omniORB2. It provides named servant objects,
// synchronous request/reply invocation with correlation, one-way
// (asynchronous) invocation, and multithreaded dispatch (one goroutine per
// inbound request, exactly the measure the paper describes for obtaining
// parallelism from a synchronous-only ORB). One-way sinks (HandleOneWay)
// are the exception: they run on the receive loop itself.
//
// A one-way's args are the remainder of its frame, with no length prefix:
// the invoker writes them straight into the pooled frame (InvokeOneWay), so
// they are encoded once, and the receiver hands them on as a slice of the
// inbound frame.
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
// the reply payload. Handlers run concurrently (one goroutine per inbound
// request) and must be safe for concurrent use.
type Handler func(method string, args []byte) ([]byte, error)

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

// sinkKey names one one-way sink: a method of an object.
type sinkKey struct{ object, method string }

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

	// requests counts inbound invocations dispatched to servants;
	// dispatch is the servant execution latency; inflightHigh is the
	// high-water mark of outstanding outbound calls awaiting replies.
	requests     *obs.Counter
	dispatchLat  *obs.Histogram
	inflightHigh *obs.Gauge

	mu       sync.Mutex
	servants map[string]Handler
	sinks    map[sinkKey]func(args []byte)
	calls    map[uint64]chan response
	nextReq  uint64
	closed   bool

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
		dispatchLat:  ob.Reg.Histogram("orb_dispatch_latency"),
		inflightHigh: ob.Reg.Gauge("orb_inflight_highwater"),
		servants:     make(map[string]Handler),
		sinks:        make(map[sinkKey]func(args []byte)),
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
// Two-way invocations of the same method still reach the object's servant.
func (o *ORB) HandleOneWay(object, method string, sink func(args []byte)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sinks[sinkKey{object, method}] = sink
}

// Unregister removes a servant.
func (o *ORB) Unregister(object string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.servants, object)
}

// Invoke performs a synchronous invocation on a remote object and returns
// its reply. It fails with ctx's error on timeout/cancellation (the
// transport is best-effort; a crashed or partitioned target simply never
// replies) and with *RemoteError when the target raised one.
func (o *ORB) Invoke(ctx context.Context, ref Ref, method string, args []byte) ([]byte, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, ErrClosed
	}
	o.nextReq++
	reqID := o.nextReq
	ch := make(chan response, 1)
	o.calls[reqID] = ch
	o.inflightHigh.SetMax(int64(len(o.calls)))
	o.mu.Unlock()

	defer func() {
		o.mu.Lock()
		delete(o.calls, reqID)
		o.mu.Unlock()
	}()

	w := o.newFrame(kindRequest)
	w.Uvarint(reqID)
	w.String(ref.Object)
	w.String(method)
	w.Blob(args)
	// Transports retain the frame by reference, so detach before recycling.
	frame := w.Detach()
	wire.PutWriter(w)
	if err := o.out.SendFrame(ref.Target, frame); err != nil {
		return nil, fmt.Errorf("invoke %s: %w", ref, err)
	}

	select {
	case resp := <-ch:
		return resp.payload, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
	frame := w.Detach()
	wire.PutWriter(w)
	if err := o.out.SendFrame(ref.Target, frame); err != nil {
		return fmt.Errorf("invoke oneway %s: %w", ref, err) //lint:ok allocflow cold: only a failed send gets here
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
		var args []byte
		if kind == kindOneWay {
			args = r.Rest()
		} else {
			args = r.BlobRef()
		}
		if r.Done() != nil {
			return
		}
		o.mu.Lock()
		var sink func(args []byte)
		if kind == kindOneWay {
			sink = o.sinks[sinkKey{string(objectRef), string(methodRef)}]
		}
		h := o.servants[string(objectRef)]
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return
		}
		o.requests.Inc()
		if sink != nil {
			start := time.Now()
			sink(args)
			o.dispatchLat.Observe(time.Since(start))
			return
		}
		object, method := string(objectRef), string(methodRef)
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serve(in.From, kind, reqID, object, h, method, args)
		}()
	case kindReply:
		status := r.Byte()
		payload := r.BlobRef()
		errMsg := r.String()
		if r.Done() != nil {
			return
		}
		o.mu.Lock()
		ch := o.calls[reqID]
		delete(o.calls, reqID)
		o.mu.Unlock()
		if ch == nil {
			return // late reply after caller gave up
		}
		if status == statusOK {
			ch <- response{payload: payload}
		} else {
			ch <- response{err: &RemoteError{Msg: errMsg}}
		}
	}
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
	w := o.newFrame(kindReply)
	w.Uvarint(reqID)
	if err != nil {
		w.Byte(statusError)
		w.Blob(nil)
		w.String(err.Error())
	} else {
		w.Byte(statusOK)
		w.Blob(payload)
		w.String("")
	}
	frame := w.Detach()
	wire.PutWriter(w)
	_ = o.out.SendFrame(from, frame) //lint:ok errdrop best-effort: a lost reply looks like a lost request, and the client retries
}
