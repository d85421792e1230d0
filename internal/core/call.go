package core

import (
	"context"
	"sync"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
)

// Call is the future of one asynchronous invocation (InvokeAsync). The
// request is already on the wire when the future is handed out; the
// replies (or the terminal error) arrive through it. A Call completes
// exactly once — when the reply quorum is met, the binding breaks, the
// call is cancelled or the context it was launched under expires — and its
// result is immutable afterwards.
//
// The future is also the entry of its attachment's table of outstanding
// calls: whatever ends the call calls finish, and there is no other waiter.
type Call struct {
	id   ids.CallID
	mode ReplyMode

	// eng is the attachment the call is outstanding on; nil for a Proxy's
	// future, which no table holds (each of its attempts is a call of the
	// binding of the moment). trace and start feed the epilogue's records.
	eng   *engine
	trace obs.TraceID
	start time.Time
	// gather collects the servers' direct replies (closed style).
	gather collector
	// stop releases what the future holds outside the table: the hook on
	// the launching context, or a Proxy's retry loop.
	stop func() bool

	done chan struct{}

	mu       sync.Mutex
	finished bool
	replies  []Reply
	err      error
}

// newCallFuture builds a pending future.
func newCallFuture(id ids.CallID, mode ReplyMode) *Call {
	return &Call{id: id, mode: mode, done: make(chan struct{})}
}

// finish completes the call with its terminal result, runs the epilogue
// of the attachment it was outstanding on and releases every waiter. The
// first finish wins; the rest are no-ops.
func (c *Call) finish(replies []Reply, err error) {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	c.replies, c.err = replies, err
	c.mu.Unlock()
	if c.eng != nil {
		c.eng.retire(c, err)
	}
	if c.stop != nil {
		c.stop()
	}
	close(c.done)
}

// ID returns the invocation's call identifier.
func (c *Call) ID() ids.CallID { return c.id }

// Mode returns the invocation's reply mode.
func (c *Call) Mode() ReplyMode { return c.mode }

// Done is closed when the call has completed (replies gathered, binding
// broken, or cancelled). Select on it to multiplex many futures.
func (c *Call) Done() <-chan struct{} { return c.done }

// Cancel abandons the call mid-flight: the future completes with
// context.Canceled (unless it already completed). The request may still
// execute at the servers — cancellation releases the client's wait, it
// does not recall the multicast.
func (c *Call) Cancel() { c.finish(nil, context.Canceled) }

// Await blocks until the call completes or ctx expires.
func (c *Call) Await(ctx context.Context) ([]Reply, error) {
	select {
	case <-c.done:
		return c.Replies()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Replies returns the call's result: the gathered replies after
// completion, or (nil, nil) while still in flight. Use Done or Await to
// synchronise.
func (c *Call) Replies() ([]Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replies, c.err
}

// Err returns the call's terminal error (nil on success or while still
// in flight).
func (c *Call) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
