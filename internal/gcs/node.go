package gcs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/transport"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// Node is one process's attachment to the group communication service. A
// node participates in any number of groups over a single transport
// endpoint, and all of its groups share one Lamport clock — the property
// that preserves causality across overlapping groups (paper fig. 7).
type Node struct {
	ep transport.Endpoint
	// Every frame the node encodes starts with hdr and leaves through out
	// (transport.Framing): over a Mux channel the encoded buffer is the
	// wire frame, shared by every destination of a multicast.
	out transport.FrameSender
	hdr []byte

	clock   *vclock.Lamport
	obs     *obs.Obs
	metrics *gcsMetrics
	fr      *flight.Recorder
	frProc  uint16

	// wheel is the shared timer driving every group's tick machinery;
	// disp is the post-order dispatch pool (see wheel.go, dispatch.go).
	wheel *wheel
	disp  *dispatcher

	// dec is the receive loop's codec state: a reusable reader plus
	// intern tables for the identifier strings every frame repeats.
	// Owned exclusively by recvLoop.
	dec *decoder

	mu     sync.Mutex
	groups map[ids.GroupID]*Group
	closed bool

	recvDone chan struct{}
}

// NewNode starts the service on ep. The node owns ep and closes it on
// Close. Instruments register in the process-wide observability domain;
// use NewNodeObs to direct them elsewhere.
func NewNode(ep transport.Endpoint) *Node { return NewNodeObs(ep, obs.Default()) }

// NewNodeObs is NewNode with an explicit observability domain (the bench
// harness gives each experiment world its own).
func NewNodeObs(ep transport.Endpoint, o *obs.Obs) *Node {
	return newNode(ep, o, dispatchWorkers())
}

// newNode is NewNodeObs with the dispatch pool's size.
func newNode(ep transport.Endpoint, o *obs.Obs, workers int) *Node {
	n := &Node{
		ep:       ep,
		clock:    vclock.NewLamport(),
		obs:      o,
		metrics:  newGCSMetrics(o),
		fr:       o.Flight,
		frProc:   o.Flight.Proc(string(ep.ID())),
		dec:      newDecoder(),
		groups:   make(map[ids.GroupID]*Group),
		recvDone: make(chan struct{}),
	}
	n.out = transport.Framing(ep)
	n.hdr = n.out.FrameHeader()
	n.wheel = newWheel(o)
	n.disp = newDispatcher(workers, o)
	go n.recvLoop()
	return n
}

// encode serialises one protocol message as a frame for out, into a pooled
// writer the caller recycles once the frame is sent.
func (n *Node) encode(msg any) *wire.Writer { return encodeFramed(n.hdr, msg) }

// WheelStats exposes the shared timer wheel's instantaneous depth and
// cumulative sweep cost (for the manygroups scale bench and tests).
func (n *Node) WheelStats() (depth int, sweeps, sweepNanos uint64) {
	depth = n.wheel.depth()
	sweeps, sweepNanos = n.wheel.sweepStats()
	return
}

// ID returns the process identifier of the node's endpoint.
func (n *Node) ID() ids.ProcessID { return n.ep.ID() }

// Create founds a new group with this node as its only member; the
// founding view installs immediately.
func (n *Node) Create(id ids.GroupID, cfg GroupConfig) (*Group, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrLeft
	}
	if _, ok := n.groups[id]; ok {
		return nil, fmt.Errorf("gcs: already a member of group %q", id)
	}
	g := newGroup(n, id, cfg, stateJoining)
	n.groups[id] = g

	g.mu.Lock()
	g.readClockLocked()
	g.installViewLocked(View{Seq: 1, Installer: n.ID(), Members: []ids.ProcessID{n.ID()}})
	g.mu.Unlock()
	return g, nil
}

// Join enters an existing group through any current member (the contact).
// It returns as soon as a view containing this node is installed, or when
// the configuration is found to mismatch or ctx expires. The configuration
// must equal the one the group was created with.
func (n *Node) Join(ctx context.Context, id ids.GroupID, contact ids.ProcessID, cfg GroupConfig) (*Group, error) {
	return n.join(ctx, id, contact, cfg, false)
}

// JoinClient is Join in the role of a client: every view that holds this
// node lists it among its Clients.
func (n *Node) JoinClient(ctx context.Context, id ids.GroupID, contact ids.ProcessID, cfg GroupConfig) (*Group, error) {
	return n.join(ctx, id, contact, cfg, true)
}

func (n *Node) join(ctx context.Context, id ids.GroupID, contact ids.ProcessID, cfg GroupConfig, client bool) (*Group, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrLeft
	}
	if _, ok := n.groups[id]; ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("gcs: already a member of group %q", id)
	}
	g := newGroup(n, id, cfg, stateJoining)
	joined := make(chan struct{})
	g.joined = joined
	n.groups[id] = g
	n.mu.Unlock()

	join := n.encode(&joinMsg{Group: id, Joiner: n.ID(), Client: client})
	defer wire.PutWriter(join)
	// Join requests are idempotent, so a request that got no view is resent
	// briskly: it can race a concurrent view change and be parked or
	// dropped. The installation itself ends the wait, not the timer.
	retry := cfg.FlushTimeout / 2
	if cap := 10 * cfg.Tick; retry > cap {
		retry = cap
	}
	if retry <= 0 {
		retry = 50 * time.Millisecond
	}
	resend := time.NewTimer(retry)
	defer resend.Stop()
	for {
		_ = n.out.SendFrame(contact, join.Bytes()) //lint:ok errdrop best-effort: this loop resends the join until accepted or the context ends

		select {
		case <-ctx.Done():
			n.abandonJoin(g)
			return nil, ctx.Err()
		case <-joined:
			return n.joinOutcome(g)
		case <-resend.C:
			resend.Reset(retry)
		}
	}
}

// joinOutcome settles a join whose wait ended: the view installed, or the
// handle closed first (a configuration mismatch, a remote shutdown, the
// node closing).
func (n *Node) joinOutcome(g *Group) (*Group, error) {
	g.mu.Lock()
	left, err := g.state == stateLeft, g.joinErr
	g.mu.Unlock()
	if !left {
		return g, nil
	}
	n.dropGroup(g.id)
	// Full teardown, as in abandonJoin: a rejected join must also quiesce
	// the dispatch queue, or every failed join leaks state.
	g.closeDispatch()
	if err == nil {
		err = ErrLeft
	}
	return nil, err
}

// abandonJoin tears down a half-joined group handle.
func (n *Node) abandonJoin(g *Group) {
	g.mu.Lock()
	g.closeLocked(nil)
	g.mu.Unlock()
	n.dropGroup(g.id)
	g.closeDispatch()
}

// Group returns the local handle for a group, or nil if not a member.
//
//lint:ok unlinked core's tests reach the server side of a binding's client/server group through it, which only the node holds
func (n *Node) Group(id ids.GroupID) *Group {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.groups[id]
}

// dropGroup unregisters a group handle.
func (n *Node) dropGroup(id ids.GroupID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.groups, id)
}

// Close leaves every group and shuts the node down, closing the transport
// endpoint.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		<-n.recvDone
		return nil
	}
	n.closed = true
	groups := make([]*Group, 0, len(n.groups))
	for _, g := range n.groups {
		groups = append(groups, g)
	}
	n.mu.Unlock()

	for _, g := range groups {
		_ = g.Leave()
	}
	n.disp.close()
	n.wheel.close()
	err := n.ep.Close()
	<-n.recvDone
	return err
}

// inFrame is one decoded inbound frame awaiting dispatch.
type inFrame struct {
	from ids.ProcessID
	gid  ids.GroupID
	msg  any
	size int
}

// recvLoop drains the endpoint one batch pull at a time: whatever the
// transport queued since the last pull (up to transport.RecvBurst frames)
// is decoded and dispatched together. Consecutive data-carrying frames
// for the same group are ingested under one lock hold with a single
// post-ingest tail (Group.handleBurst); everything else — membership,
// flush, suspicion traffic — is handled one frame at a time, and runs of
// different groups' frames stay in arrival order, preserving the
// transport's per-link FIFO processing.
func (n *Node) recvLoop() {
	defer close(n.recvDone)
	in := make([]transport.Inbound, transport.RecvBurst)
	frames := make([]inFrame, 0, transport.RecvBurst)
	run := make([]any, 0, transport.RecvBurst)
	for {
		got, ok := transport.Recv(n.ep, in)
		if !ok {
			return
		}
		frames = frames[:0]
		for i := range in[:got] {
			if f, ok := n.decodeFrame(in[i]); ok {
				frames = append(frames, f)
			}
		}
		clear(in[:got]) // an idle loop must not pin the last burst's frames
		n.dispatch(frames, &run)
	}
}

func (n *Node) decodeFrame(in transport.Inbound) (inFrame, bool) {
	msg, err := n.dec.decode(in.Payload)
	if err != nil {
		return inFrame{}, false // corrupt frame: drop, reliability recovers
	}
	return inFrame{from: in.From, gid: groupOf(msg), msg: msg, size: len(in.Payload)}, true
}

// dataCarrying reports whether a message is eligible for burst ingestion:
// only the data path shares a post-ingest tail.
func dataCarrying(msg any) bool {
	switch msg.(type) {
	case *dataMsg, *batchMsg:
		return true
	}
	return false
}

// dispatch hands a burst of decoded frames to their groups, coalescing
// consecutive same-group data runs into one handleBurst call.
func (n *Node) dispatch(frames []inFrame, run *[]any) {
	for i := 0; i < len(frames); {
		f := frames[i]
		n.mu.Lock()
		g := n.groups[f.gid]
		n.mu.Unlock()
		if g == nil {
			i++
			continue
		}
		if !dataCarrying(f.msg) {
			g.handle(f.from, f.msg, f.size)
			i++
			continue
		}
		*run = (*run)[:0]
		bytes := 0
		for i < len(frames) && frames[i].gid == f.gid && dataCarrying(frames[i].msg) {
			*run = append(*run, frames[i].msg)
			bytes += frames[i].size
			i++
		}
		g.handleBurst(*run, bytes)
	}
}
