package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// Invoker is the single invocation surface of the layer's four client-side
// shapes: Binding (one client/server group, closed or open), G2G
// (group-to-group through a client monitor group), Proxy (the self-rebinding
// smart proxy around a Binding) and ShardedBinding (a key→Binding router).
// The paper presents closed, open and group-to-group invocation as one
// facility with three parameters — who multicasts the request, who gathers
// the replies, how many to wait for — and one engine (engine.go) implements
// them: Binding and G2G embed it and differ in a policy fixed at bind time,
// Proxy and ShardedBinding choose which Binding's engine a call runs on. A
// caller can be handed "something invokable" without caring which group
// topology sits underneath.
//
// Call blocks for the mode's reply quorum. InvokeAsync returns a *Call
// future immediately after the request is on the wire, enabling
// pipelining: many calls outstanding on one binding, bounded by the
// binding's window (BindConfig.Window). Read is the second delivery
// path: reads never enter the ordering layer — a leased or stale read is
// served point-to-point from one replica's delivered prefix, and a
// linearizable read costs one stability-frontier handshake at the
// ordering authority instead of an ordered multicast.
type Invoker interface {
	// Call performs one invocation and blocks for the replies required
	// by the reply mode (default wait-for-first; see WithMode). Writes
	// (anything that mutates servant state) go through Call or
	// InvokeAsync: both are ordered multicasts.
	Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error)
	// InvokeAsync launches one invocation and returns its future. The
	// request is multicast before InvokeAsync returns (so the issue
	// order of a pipelining client is its delivery order at the
	// servers); the replies arrive through the future.
	InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error)
	// Read serves one read-only invocation outside the ordering layer,
	// at the consistency selected by WithConsistency (Leased when
	// unspecified). The method must not
	// mutate servant state — the call may execute at a single replica
	// and is never recorded in the group's total order.
	Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error)
	// Close releases the underlying group resources.
	Close() error
}

var (
	_ Invoker = (*Binding)(nil)
	_ Invoker = (*Proxy)(nil)
	_ Invoker = (*G2G)(nil)
	_ Invoker = (*ShardedBinding)(nil)
)

// ErrNeedCallNumber is returned by G2G invocations issued without
// WithCallID: every member of the client group must use the same
// deterministic per-call number or the request manager cannot filter the
// duplicate copies (§4.3).
var ErrNeedCallNumber = errors.New("core: group-to-group calls need WithCallID (a deterministic per-call number shared by the client group)")

// ErrStaleRetry is returned by a call that names, with WithCallID, one of
// this process's own call numbers that its floor has passed: the servers
// retain a call only until then, so a retry of it could not be answered
// from what they kept. Nothing is sent. A call number is good for a retry
// while a call under it is outstanding — the smart proxy holds its number
// across all its attempts.
var ErrStaleRetry = errors.New("core: stale retry: the call under this number is over, and its client's floor has passed it")

// Consistency selects what a Read is allowed to return; it is the read
// axis of the paper's per-invocation flexibility. The zero value means
// the default, Leased.
type Consistency int

const (
	// Linearizable reads reflect every write that completed before the
	// read began: the read runs at the ordering authority after a
	// stability-frontier handshake (gcs.ReadIndex) — still no ordered
	// multicast, but one frontier wait per read.
	Linearizable Consistency = iota + 1
	// Leased reads are served from any replica's delivered prefix while
	// that replica holds a read lease: staleness is bounded by the lease
	// (LeaseTicks × Tick, tightened per-call by WithMaxStaleness), and
	// the session token still guarantees read-your-writes.
	Leased
	// Stale reads are served from any replica's delivered prefix with no
	// lease check at all: best-effort freshness, maximum availability.
	Stale
)

// String implements fmt.Stringer.
func (c Consistency) String() string {
	switch c {
	case Linearizable:
		return "linearizable"
	case Leased:
		return "leased"
	case Stale:
		return "stale"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// callOpts is the resolved option set of one invocation.
type callOpts struct {
	mode    ReplyMode
	call    ids.CallID
	hasCall bool
	trace   obs.TraceID

	// Read-path options (ignored by Call/InvokeAsync).
	consistency Consistency
	maxStale    time.Duration
	minStamp    vclock.Stamp
	hasMin      bool

	// Routing options (consumed by ShardedBinding; ignored by single-group
	// invokers).
	key    string
	hasKey bool
}

// CallOption configures one invocation (see WithMode, WithCallID,
// WithTrace). Options fold by value, so the resolved set stays on the
// caller's stack.
type CallOption func(callOpts) callOpts

// WithMode selects the reply mode (one-way, wait-for-first,
// wait-for-majority, wait-for-all). The default is First.
func WithMode(m ReplyMode) CallOption {
	return func(o callOpts) callOpts { o.mode = m; return o }
}

// WithCallID pins the invocation's call identifier instead of allocating
// a fresh one. Reusing an identifier after a rebind never re-executes at
// the servers (§4.1's retained replies) — the smart proxy relies on
// this — as long as a call under it is outstanding: naming one of this
// process's own numbers that its floor has passed (the calls under it and
// under every lower number are over) fails with ErrStaleRetry.
// For G2G the identifier's Number is the deterministic per-call
// number every client-group member must share; the Client component is
// overridden with the monitor group's identity.
func WithCallID(id ids.CallID) CallOption {
	return func(o callOpts) callOpts { o.call = id; o.hasCall = true; return o }
}

// WithTrace threads an explicit trace identifier through the invocation
// instead of allocating (Binding/Proxy) or deriving (G2G) one.
func WithTrace(t obs.TraceID) CallOption {
	return func(o callOpts) callOpts { o.trace = t; return o }
}

// WithConsistency selects the consistency of one Read (Linearizable,
// Leased or Stale) instead of the default, Leased.
func WithConsistency(c Consistency) CallOption {
	return func(o callOpts) callOpts { o.consistency = c; return o }
}

// WithMaxStaleness tightens a Leased read's staleness bound for this call
// only: the serving replica refuses unless its lease evidence is fresher
// than d (it can never loosen the configured lease bound). Ignored by
// Linearizable and Stale reads.
func WithMaxStaleness(d time.Duration) CallOption {
	return func(o callOpts) callOpts { o.maxStale = d; return o }
}

// WithKey pins the routing key of one invocation on a sharded binding:
// the call goes to the group owning key on the consistent-hash ring,
// bypassing the binding's configured key extractor. Single-group invokers
// (Binding, Proxy, G2G) ignore it.
func WithKey(key string) CallOption {
	return func(o callOpts) callOpts { o.key = key; o.hasKey = true; return o }
}

// WithMinStamp overrides the read's session floor: the serving replica
// waits until its executed prefix covers stamp s before answering. The
// default floor is the binding's own session stamp (the newest write
// this binding has seen applied), which is what gives a session
// read-your-writes across replicas; passing an explicit stamp threads a
// token between bindings or processes. The zero stamp waives the floor.
func WithMinStamp(s vclock.Stamp) CallOption {
	return func(o callOpts) callOpts { o.minStamp = s; o.hasMin = true; return o }
}

// resolveCallOpts folds the options over the defaults.
func resolveCallOpts(opts []CallOption) callOpts {
	o := callOpts{mode: First}
	for _, opt := range opts {
		o = opt(o)
	}
	return o
}
