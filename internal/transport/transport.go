// Package transport defines the point-to-point messaging abstraction the
// group communication service and the mini-ORB are built on, plus a
// protocol multiplexer so both can share a single endpoint (the paper's
// NewTop service object owns one communication endpoint per process).
//
// Two implementations exist: memnet (in-memory, driven by the netsim
// latency model; used by tests and the evaluation harness) and tcpnet
// (real TCP; used for actual deployments).
package transport

import (
	"errors"

	"newtop/internal/ids"
)

// ErrClosed is returned by Send after an endpoint has been closed.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownPeer is returned when the destination process is not known to
// the transport.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// Inbound is one received message.
type Inbound struct {
	From    ids.ProcessID
	Payload []byte
}

// RecvBurst is how many inbound frames one batch pull asks for. Bursts
// only form when a producer outruns its consumer; the cap bounds how long
// the first item of a burst waits behind the rest.
const RecvBurst = 64

// Endpoint is a bidirectional, per-link-FIFO, best-effort message channel
// owned by exactly one process. Send copies whatever it keeps of the
// payload before it returns, so the caller may reuse or recycle the bytes
// at once (a pooled writer's Bytes, say); received payloads are owned by
// the receiver.
//
// An endpoint's inbound stream has one consumer and one consumption mode:
// every transport in this repository also implements BatchReceiver, and
// the protocol layers consume through Recv; Inbound is the channel
// adaptor over the same queue, for applications and tests.
type Endpoint interface {
	// ID returns the owning process identifier.
	ID() ids.ProcessID
	// Send queues a copy of payload for delivery to the named process;
	// payload is the caller's again once Send returns. Delivery is FIFO
	// per (sender, receiver) pair but not reliable: messages to crashed,
	// partitioned or unknown peers are silently dropped, exactly like a
	// datagram over a failed path. Send only returns an error for local
	// conditions (endpoint closed, peer unresolvable).
	Send(to ids.ProcessID, payload []byte) error
	// Inbound returns the stream of received messages. The channel is
	// closed when the endpoint closes.
	Inbound() <-chan Inbound
	// Close releases the endpoint. Close is idempotent.
	Close() error
}

// BatchReceiver is the batch-pull side of an endpoint. It is not part of
// Endpoint so that a decorator written against the four-method interface
// keeps compiling; such a decorator hides Recv and is consumed through
// Inbound (see Recv).
type BatchReceiver interface {
	// Recv blocks until at least one message is queued, then moves up to
	// len(dst) of them into dst in arrival order (per-link FIFO holds
	// across batch boundaries). ok is false once the endpoint is closed;
	// messages still queued at Close are dropped, never returned.
	Recv(dst []Inbound) (n int, ok bool)
}

// Recv pulls the next batch of ep's inbound messages: ep's own Recv, or,
// for a foreign endpoint that offers only the channel, one message from
// Inbound.
func Recv(ep Endpoint, dst []Inbound) (n int, ok bool) {
	if r, isBatch := ep.(BatchReceiver); isBatch {
		return r.Recv(dst)
	}
	in, ok := <-ep.Inbound()
	if !ok {
		return 0, false
	}
	dst[0] = in
	return 1, true
}
