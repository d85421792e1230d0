package core

import (
	"fmt"
	"slices"
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
	payloadForget
)

// encodeHello announces "I am a server" inside the server group; closed
// clients share that group, so the server roster (reply quorums, the
// membership answered by the "info" control call) is maintained by these
// announcements intersected with the group view.
func encodeHello() []byte { return []byte{payloadHello} }

// encodeForget is a request manager's notice, relayed in the server group's
// order, that a client it served is gone: every replica drops the client's
// retained calls at the same point in the order (Server.forgetLocked).
func encodeForget(client ids.ProcessID) []byte {
	w := wire.GetWriter()
	w.Byte(payloadForget)
	w.String(string(client))
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

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
	// Floor is the client's floor when it sent the request: the lowest of
	// its call numbers it may still retry. Servers drop what they retain
	// for the calls below it and refuse those calls (see clientLog). Zero
	// says the number is the caller's own choice — group-to-group — and
	// carries no floor.
	Floor uint64
}

// invReply is one server's reply, sent point-to-point to whoever gathers
// the call's replies: the request manager (open style) or the client
// (closed style). Servers retain one per executed call, inline in the
// call's slot of its client's log, so its size is what every retained call
// costs (TestReplyCacheHoldsRepliesInline).
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
// monitor group. The client decodes it as an answer.
type invReplySet struct {
	Call    ids.CallID
	Replies []invReply
	// Err reports a request-manager-level failure (e.g. no servers).
	Err string
}

// answer is a reply set as its client receives it: the call it answers,
// and the rest of the set undecoded, a slice of the frame. The replies are
// decoded once the call is found, straight into the Reply values it hands
// out (decodeAnswer), with no invReplySet between.
type answer struct {
	Call ids.CallID
	Body []byte
}

func (r invReply) toReply() Reply {
	out := Reply{Server: r.Server, Payload: r.Payload, Stamp: r.Stamp}
	if r.Err != "" {
		out.Err = fmt.Errorf("core: server %s: %s", r.Server, r.Err)
	}
	return out
}

// putRequest encodes m into w, a pooled writer whose bytes the caller
// multicasts (Multicast copies what it keeps) before recycling it.
func putRequest(w *wire.Writer, m *invRequest) {
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
	w.Uvarint(m.Floor)
}

func putReply(w *wire.Writer, m invReply) {
	w.String(string(m.Call.Client))
	w.Uvarint(m.Call.Number)
	w.String(string(m.Server))
	w.Blob(m.Payload)
	w.String(m.Err)
	putStamp(w, m.Stamp)
}

// minReplySize is the fewest bytes one encoded reply takes: its seven
// fields are a byte or more each (wire.Reader.Count).
const minReplySize = 7

func getReply(r *wire.Reader, in *interner) invReply {
	return invReply{
		Call:    getCallID(r, in),
		Server:  in.proc(r),
		Payload: r.BlobRef(),
		Err:     r.String(),
		Stamp:   getStamp(r, in),
	}
}

func getCallID(r *wire.Reader, in *interner) ids.CallID {
	return ids.CallID{Client: in.proc(r), Number: r.Uvarint()}
}

func putStamp(w *wire.Writer, s vclock.Stamp) {
	w.Uvarint(s.Time)
	w.String(string(s.Sender))
}

func getStamp(r *wire.Reader, in *interner) vclock.Stamp {
	return vclock.Stamp{Time: r.Uvarint(), Sender: in.proc(r)}
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
// request manager's reply set, and whom it is for. Its addressee decodes it
// as an inboundReply.
type replyMsg struct {
	To    byte
	Group []byte
	Reply invReply     // toRM, toClosed
	Set   *invReplySet // toOpen
}

// inboundReply is a "reply" one-way as its addressee decodes it, into a
// value the caller owns: a reply set arrives as an answer, to be decoded
// into the call it completes. Group aliases the frame, so that routing
// looks it up in place (map[ids.GroupID(Group)]) and allocates no string
// for it.
type inboundReply struct {
	To     byte
	Group  []byte
	Reply  invReply // toRM, toClosed
	Answer answer   // toOpen
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

func decodeReplyMsg(b []byte, in *interner, m *inboundReply) error {
	r := wire.NewReader(b)
	m.To, m.Group = r.Byte(), r.BlobRef()
	switch m.To {
	case toRM, toClosed:
		m.Reply = getReply(r, in)
	case toOpen:
		m.Answer = getAnswer(r, in)
	default:
		return fmt.Errorf("core: unknown reply addressee %d", m.To)
	}
	return r.Done()
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

// decodedSet is the body of a reply set as its client decodes it.
type decodedSet struct {
	Replies []Reply
	Err     string
}

// getAnswer reads the call a reply set answers, and leaves the rest to
// decodeAnswer.
func getAnswer(r *wire.Reader, in *interner) answer {
	return answer{Call: getCallID(r, in), Body: r.Rest()}
}

// decodeAnswer decodes an answer's body: its replies, appended to dst — the
// storage of the call they complete — and the request manager's error.
func decodeAnswer(body []byte, in *interner, dst []Reply) (replies []Reply, rmErr string, err error) {
	r := wire.NewReader(body)
	n := r.Count(minReplySize)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, getReply(r, in).toReply())
	}
	rmErr = r.String()
	return dst, rmErr, r.Done()
}

// payload is one invocation-layer multicast payload, decoded into storage
// its receiver owns: Kind says which field holds it (a hello is its kind
// alone). Whatever keeps a request past the handler copies it.
type payload struct {
	Kind   byte
	Req    invRequest    // payloadRequest
	Set    answer        // payloadReplySet
	Forget ids.ProcessID // payloadForget
}

// decodePayload parses one invocation-layer multicast payload into p.
func decodePayload(b []byte, in *interner, p *payload) error {
	r := wire.NewReader(b)
	p.Kind = r.Byte()
	switch p.Kind {
	case payloadRequest:
		m := &p.Req
		m.Call = getCallID(r, in)
		m.Mode = ReplyMode(r.Uvarint())
		m.Method = in.str(r)
		m.Args = r.BlobRef()
		m.Client = in.proc(r)
		m.Style = Style(r.Uvarint())
		m.Forwarded = r.Bool()
		m.AsyncFwd = r.Bool()
		m.Trace = r.Uvarint()
		m.Floor = r.Uvarint()
	case payloadHello:
	case payloadForget:
		p.Forget = in.proc(r)
	case payloadReplySet:
		p.Set = getAnswer(r, in)
	default:
		return fmt.Errorf("core: unknown payload kind %d", p.Kind)
	}
	return r.Done()
}

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

// putReadRequest encodes m into w, a pooled writer the caller holds until
// the read is over (the ORB copies the args into its frame at every try).
func putReadRequest(w *wire.Writer, m *readRequest) {
	w.String(string(m.Group))
	w.String(m.Method)
	w.Blob(m.Args)
	w.Uvarint(uint64(m.Consistency))
	w.Varint(m.MaxStale)
	putStamp(w, m.MinStamp)
	w.Uvarint(m.Trace)
}

func decodeReadRequest(b []byte, in *interner, m *readRequest) error {
	r := wire.NewReader(b)
	m.Group = ids.GroupID(in.str(r))
	m.Method = in.str(r)
	m.Args = r.BlobRef()
	m.Consistency = Consistency(r.Uvarint())
	m.MaxStale = r.Varint()
	m.MinStamp = getStamp(r, in)
	m.Trace = r.Uvarint()
	return r.Done()
}

// putReadReply encodes m into w: the reply frame itself, when the read is
// answered on the ORB's receive loop.
func putReadReply(w *wire.Writer, m *readReply) {
	w.Byte(m.Code)
	w.Blob(m.Payload)
	w.String(m.Err)
	putStamp(w, m.Stamp)
	w.Uvarint(m.AgeTicks)
	w.Uvarint(m.BoundTicks)
}

// encodeReadReply is putReadReply into a fresh buffer, for a read the
// control servant answered off the receive loop.
func encodeReadReply(m *readReply) []byte {
	w := wire.GetWriter()
	putReadReply(w, m)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func decodeReadReply(b []byte, in *interner, m *readReply) error {
	r := wire.NewReader(b)
	m.Code = r.Byte()
	m.Payload = r.BlobRef()
	m.Err = r.String()
	m.Stamp = getStamp(r, in)
	m.AgeTicks = r.Uvarint()
	m.BoundTicks = r.Uvarint()
	return r.Done()
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
	n := r.Count(1)
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]ids.ProcessID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ids.ProcessID(r.String()))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
