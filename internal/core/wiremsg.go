package core

import (
	"fmt"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// Payload kinds multicast inside client/server, server and client monitor
// groups.
const (
	payloadRequest byte = iota + 1
	payloadReplySet
	payloadHello
)

// encodeHello announces "I am a server" inside the server group; closed
// clients share that group, so the server roster (reply quorums, the
// membership answered by the "info" control call) is maintained by these
// announcements intersected with the group view.
func encodeHello() []byte { return []byte{payloadHello} }

// invRequest is a client request travelling through the invocation layer:
// multicast by the client in its client/server group, and re-issued by the
// request manager inside the server group (Forwarded set).
type invRequest struct {
	Call   ids.CallID
	Mode   ReplyMode
	Method string
	Args   []byte
	// Client is the ultimate invoker (for closed-style direct replies).
	Client ids.ProcessID
	// Style is how the client bound to the group.
	Style Style
	// Forwarded marks a request re-issued by a request manager inside the
	// server group.
	Forwarded bool
	// AsyncFwd marks the asynchronous-message-forwarding optimisation:
	// the request manager has already replied; other members execute for
	// state continuity but do not multicast replies.
	AsyncFwd bool
	// Trace is the end-to-end trace identifier stamped by the invoking
	// client (zero = untraced); every process touched by the call journals
	// the stages it ran under it.
	Trace uint64
}

// invReply is one server's reply, sent point-to-point to whoever gathers
// the call's replies: the request manager (open style) or the client
// (closed style). Servers retain one per executed call in a map whose values
// Go stores inline only up to 128 bytes; a field more costs every execution
// an allocation (TestReplyCacheHoldsRepliesInline).
type invReply struct {
	Call    ids.CallID
	Server  ids.ProcessID
	Payload []byte
	Err     string
	// Stamp is the total-order stamp of this call as applied at the
	// server — the session token the client's binding remembers for
	// read-your-writes (see Reply.Stamp).
	Stamp vclock.Stamp
}

// invReplySet is the request manager's aggregated answer: sent to the
// client of an open binding with one ORB one-way, or multicast in a client
// monitor group.
type invReplySet struct {
	Call    ids.CallID
	Replies []invReply
	// Err reports a request-manager-level failure (e.g. no servers).
	Err string
}

func (r invReply) toReply() Reply {
	out := Reply{Server: r.Server, Payload: r.Payload, Stamp: r.Stamp}
	if r.Err != "" {
		out.Err = fmt.Errorf("core: server %s: %s", r.Server, r.Err)
	}
	return out
}

func encodeRequest(m *invRequest) []byte {
	w := wire.GetWriter()
	w.Byte(payloadRequest)
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.Uvarint(uint64(m.Mode))
	w.String(m.Method)
	w.Blob(m.Args)
	w.String(string(m.Client))
	w.Uvarint(uint64(m.Style))
	w.Bool(m.Forwarded)
	w.Bool(m.AsyncFwd)
	w.Uvarint(m.Trace)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func putReply(w *wire.Writer, m invReply) {
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.String(string(m.Server))
	w.Blob(m.Payload)
	w.String(m.Err)
	putStamp(w, m.Stamp)
}

func getReply(r *wire.Reader) invReply {
	return invReply{
		Call:    ids.CallID{Client: ids.ProcessID(r.String()), Number: r.Uvarint()},
		Server:  ids.ProcessID(r.String()),
		Payload: r.BlobRef(),
		Err:     r.String(),
		Stamp:   getStamp(r),
	}
}

func putStamp(w *wire.Writer, s vclock.Stamp) {
	w.Uvarint(s.Time)
	w.String(string(s.Sender))
}

func getStamp(r *wire.Reader) vclock.Stamp {
	return vclock.Stamp{Time: r.Uvarint(), Sender: ids.ProcessID(r.String())}
}

// The addressees of the "reply" one-way (Service.routeReply). Each names the
// group it is for, so a process holding several roles under one call
// identifier routes every answer to its own.
const (
	toRM     byte = iota + 1 // a replica's reply, to the request manager of Group (a server group)
	toClosed                 // a replica's reply, to the closed binding to Group (a server group)
	toOpen                   // a request manager's reply set, to the open binding through Group (its client/server group)
)

// replyMsg is the argument of the "reply" one-way: one server's reply, or a
// request manager's reply set, and whom it is for. Group is bytes, and a
// decoded one aliases the frame, so that routing looks it up in place
// (map[ids.GroupID(Group)]) and allocates no string for it.
type replyMsg struct {
	To    byte
	Group []byte
	Reply invReply     // toRM, toClosed
	Set   *invReplySet // toOpen
}

// put writes m as the args of the one-way frame being built in w.
func (m *replyMsg) put(w *wire.Writer) {
	w.Byte(m.To)
	w.Blob(m.Group)
	if m.To == toOpen {
		putReplySet(w, m.Set)
	} else {
		putReply(w, m.Reply)
	}
}

func decodeReplyMsg(b []byte) (replyMsg, error) {
	r := wire.NewReader(b)
	m := replyMsg{To: r.Byte(), Group: r.BlobRef()}
	switch m.To {
	case toRM, toClosed:
		m.Reply = getReply(r)
	case toOpen:
		m.Set = getReplySet(r)
	default:
		return m, fmt.Errorf("core: unknown reply addressee %d", m.To)
	}
	return m, r.Done()
}

func encodeReplySet(m *invReplySet) []byte {
	w := wire.GetWriter()
	w.Byte(payloadReplySet)
	putReplySet(w, m)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func putReplySet(w *wire.Writer, m *invReplySet) {
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.Uvarint(uint64(len(m.Replies)))
	for _, rep := range m.Replies {
		putReply(w, rep)
	}
	w.String(m.Err)
}

func getReplySet(r *wire.Reader) *invReplySet {
	set := &invReplySet{
		Call: ids.CallID{Client: ids.ProcessID(r.String()), Number: r.Uvarint()},
	}
	n := r.Uvarint()
	if r.Err() == nil && n <= uint64(r.Remaining()) {
		set.Replies = make([]invReply, 0, n)
		for i := uint64(0); i < n; i++ {
			set.Replies = append(set.Replies, getReply(r))
		}
	}
	set.Err = r.String()
	return set
}

// decodePayload parses one invocation-layer multicast payload.
func decodePayload(b []byte) (any, error) {
	r := wire.NewReader(b)
	kind := r.Byte()
	var msg any
	switch kind {
	case payloadRequest:
		msg = &invRequest{
			Call:      ids.CallID{Client: ids.ProcessID(r.String()), Number: r.Uvarint()},
			Mode:      ReplyMode(r.Uvarint()),
			Method:    r.String(),
			Args:      r.BlobRef(),
			Client:    ids.ProcessID(r.String()),
			Style:     Style(r.Uvarint()),
			Forwarded: r.Bool(),
			AsyncFwd:  r.Bool(),
			Trace:     r.Uvarint(),
		}
	case payloadHello:
		msg = helloMsg{}
	case payloadReplySet:
		msg = getReplySet(r)
	default:
		return nil, fmt.Errorf("core: unknown payload kind %d", kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return msg, nil
}

// helloMsg is the decoded form of a server announcement.
type helloMsg struct{}

// bindRequest is the control call ("newtop.bind") a client makes on a
// server's NSO to have it join a client/server or client monitor group.
type bindRequest struct {
	// Group is the client/server (or monitor) group to join.
	Group ids.GroupID
	// ServerGroup is the group being served.
	ServerGroup ids.GroupID
	// Contact is the member to join through (the client, usually).
	Contact ids.ProcessID
	// Style is the binding style.
	Style Style
	// Monitor marks a group-to-group client monitor group: replies go to
	// every member, duplicates are filtered by call id.
	Monitor bool
	// AsyncFwd requests the asynchronous-forwarding optimisation.
	AsyncFwd bool
	// Config is the gcs configuration of the group to join (must match
	// the client's; the invocation layer fills Leader with the request
	// manager for open bindings).
	Config gcs.GroupConfig
}

func encodeBindRequest(m *bindRequest) []byte {
	w := wire.GetWriter()
	w.String(string(m.Group))
	w.String(string(m.ServerGroup))
	w.String(string(m.Contact))
	w.Uvarint(uint64(m.Style))
	w.Bool(m.Monitor)
	w.Bool(m.AsyncFwd)
	w.Uvarint(uint64(m.Config.Order))
	w.String(string(m.Config.Leader))
	w.Uvarint(uint64(m.Config.Liveness))
	w.Varint(int64(m.Config.TimeSilence))
	w.Varint(int64(m.Config.SuspectTimeout))
	w.Varint(int64(m.Config.Resend))
	w.Varint(int64(m.Config.FlushTimeout))
	w.Varint(int64(m.Config.Tick))
	w.Bool(m.Config.Batch)
	w.Varint(int64(m.Config.BatchLimit))
	w.Varint(int64(m.Config.LeaseTicks))
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeBindRequest(b []byte) (*bindRequest, error) {
	r := wire.NewReader(b)
	m := &bindRequest{
		Group:       ids.GroupID(r.String()),
		ServerGroup: ids.GroupID(r.String()),
		Contact:     ids.ProcessID(r.String()),
		Style:       Style(r.Uvarint()),
		Monitor:     r.Bool(),
		AsyncFwd:    r.Bool(),
	}
	m.Config.Order = gcs.OrderMode(r.Uvarint())
	m.Config.Leader = ids.ProcessID(r.String())
	m.Config.Liveness = gcs.Liveness(r.Uvarint())
	m.Config.TimeSilence = durationFromVarint(r)
	m.Config.SuspectTimeout = durationFromVarint(r)
	m.Config.Resend = durationFromVarint(r)
	m.Config.FlushTimeout = durationFromVarint(r)
	m.Config.Tick = durationFromVarint(r)
	m.Config.Batch = r.Bool()
	m.Config.BatchLimit = int(r.Varint())
	m.Config.LeaseTicks = int(r.Varint())
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func durationFromVarint(r *wire.Reader) time.Duration { return time.Duration(r.Varint()) }

// readRequest is the control call ("newtop.read") a client makes on one
// replica's NSO: a read served outside the ordering layer, point-to-point
// over the ORB — never multicast, never sequenced.
type readRequest struct {
	// Group is the server group whose servant answers.
	Group ids.GroupID
	// Method/Args name the read-only servant method.
	Method string
	Args   []byte
	// Consistency is the read's consistency (never zero on the wire; the
	// binding resolves its default before encoding).
	Consistency Consistency
	// MaxStale tightens a leased read's staleness bound, in nanoseconds
	// (zero = use the group's configured lease bound). Sent as a duration
	// because the client does not know the server group's tick period;
	// the serving replica converts it to ticks of its own timer.
	MaxStale int64
	// MinStamp is the session floor: the replica waits until its
	// executed prefix covers this stamp before answering (read-your-
	// writes). Zero stamp = no floor.
	MinStamp vclock.Stamp
	// Trace is the end-to-end trace identifier (zero = untraced).
	Trace uint64
}

// readReply status codes. Anything but readOK means the payload is empty
// and the client should try another replica, escalate, or fail.
const (
	readOK byte = iota
	// readErrApp: the servant method itself returned an error (Err set).
	readErrApp
	// readErrLease: the replica's lease evidence is older than the bound.
	readErrLease
	// readErrNotSeq: a linearizable read reached a replica that is not
	// the ordering authority; retry at the sequencer.
	readErrNotSeq
	// readErrMinStamp: the replica could not cover the session floor
	// within its wait budget.
	readErrMinStamp
	// readErrDisabled: the server group has no read path (LeaseTicks=0).
	readErrDisabled
	// readErrRetry: transient replica-side failure (group flushing, view
	// change in progress); try another replica.
	readErrRetry
)

// readReply is the replica's answer to a readRequest.
type readReply struct {
	Code    byte
	Payload []byte
	// Err carries the application error for readErrApp (and a diagnostic
	// detail for the other non-OK codes).
	Err string
	// Stamp is the newest applied stamp of the serving replica — the
	// session token a read returns (so reads also advance the session).
	Stamp vclock.Stamp
	// AgeTicks/BoundTicks echo the serving replica's lease evidence for
	// observability: how stale the lease was and the bound it was checked
	// against. Zero for linearizable and stale reads.
	AgeTicks, BoundTicks uint64
}

func encodeReadRequest(m *readRequest) []byte {
	w := wire.GetWriter()
	w.String(string(m.Group))
	w.String(m.Method)
	w.Blob(m.Args)
	w.Uvarint(uint64(m.Consistency))
	w.Varint(m.MaxStale)
	putStamp(w, m.MinStamp)
	w.Uvarint(m.Trace)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeReadRequest(b []byte) (*readRequest, error) {
	r := wire.NewReader(b)
	m := &readRequest{
		Group:       ids.GroupID(r.String()),
		Method:      r.String(),
		Args:        r.BlobRef(),
		Consistency: Consistency(r.Uvarint()),
		MaxStale:    r.Varint(),
		MinStamp:    getStamp(r),
		Trace:       r.Uvarint(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeReadReply(m *readReply) []byte {
	w := wire.GetWriter()
	w.Byte(m.Code)
	w.Blob(m.Payload)
	w.String(m.Err)
	putStamp(w, m.Stamp)
	w.Uvarint(m.AgeTicks)
	w.Uvarint(m.BoundTicks)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeReadReply(b []byte) (*readReply, error) {
	r := wire.NewReader(b)
	m := &readReply{
		Code:       r.Byte(),
		Payload:    r.BlobRef(),
		Err:        r.String(),
		Stamp:      getStamp(r),
		AgeTicks:   r.Uvarint(),
		BoundTicks: r.Uvarint(),
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeProcs/decodeProcs carry member lists in ORB control replies.
func encodeProcs(ps []ids.ProcessID) []byte {
	w := wire.GetWriter()
	w.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.String(string(p))
	}
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeProcs(b []byte) ([]ids.ProcessID, error) {
	r := wire.NewReader(b)
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil, wire.ErrTooLarge
	}
	out := make([]ids.ProcessID, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, ids.ProcessID(r.String()))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
