package gcs

import (
	"fmt"
	"time"

	"newtop/internal/ids"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// Wire message kinds (first byte of every GCS payload).
const (
	kindData byte = iota + 1
	kindJoin
	kindLeave
	kindSuspect
	kindPropose
	kindFlushAck
	kindCommit
	kindBatch
)

// assign is one sequencer ordering decision: the message identified by
// (Sender, Seq) occupies total-order position Global in its view.
type assign struct {
	Sender ids.ProcessID
	Seq    uint64
	Global uint64
}

// dataMsg is an application or null (time-silence / order-carrier)
// multicast. Null messages run through the full reliability and ordering
// machinery but are not surfaced to the application.
type dataMsg struct {
	Group         ids.GroupID
	ViewSeq       ids.ViewSeq
	ViewInstaller ids.ProcessID
	Sender        ids.ProcessID
	Seq           uint64 // per-sender, per-view, starting at 1
	Lamport       uint64
	// VC is the causal context: the sender's delivered counts at send
	// time (plus its own Seq), keyed by *member position* in the sorted
	// membership of the message's view. Both ends of an accepted message
	// share the view identity and therefore the same position table, so
	// no process identifiers cross the wire for it.
	VC []uint64
	// Acks carries the sender's contiguous-received counters for
	// stability tracking, position-keyed like VC; processed at ingestion.
	Acks    []uint64
	Null    bool
	Payload []byte
	// Assigns carries the sequencer's (current unstable) ordering table;
	// only the sequencer populates it. Processed at ingestion, which is
	// what prevents order/data delivery deadlocks.
	Assigns []assign
	// Lease, when non-zero, is a read-lease grant piggybacked by the
	// sequencer: the receiver may serve leased local reads for Lease
	// ticks of its own timer after accepting this message (lease.go).
	// Only the view's leader stamps it, and only while it can itself
	// hear a majority of the view.
	Lease uint64

	// counts is the inline backing array for VC and Acks: views of up to
	// maxInlineMembers members need no separate allocation for either
	// vector (VC occupies the first half, Acks the second). Larger views
	// fall back to heap slices.
	counts [2 * maxInlineMembers]uint64

	// bornAt is the local build time of this member's own messages; it
	// never crosses the wire (received copies have the zero value) and
	// exists so delivery latency can be measured skew-free.
	bornAt time.Time
	// senderIdx caches the sender's member-index position once the
	// message is accepted into a view (-1 before); local-only.
	senderIdx int
}

// maxInlineMembers is the view size up to which a dataMsg carries its
// vector-clock and acknowledgement counters inline (the paper's
// evaluation tops out at 9-member groups; 10 keeps that span
// allocation-free with headroom).
const maxInlineMembers = 10

func (m *dataMsg) stamp() vclock.Stamp { return vclock.Stamp{Time: m.Lamport, Sender: m.Sender} }

// batchMsg is a sender-side batch envelope: the data messages one member
// queued within a tick window, coalesced into a single wire frame. The
// receiver unpacks the envelope and ingests each message exactly as if it
// had arrived alone — before any ordering decision — so batching changes
// wire framing and per-message processing cost, never delivery semantics.
type batchMsg struct {
	Group ids.GroupID
	Msgs  []*dataMsg
}

type joinMsg struct {
	Group  ids.GroupID
	Joiner ids.ProcessID
}

type leaveMsg struct {
	Group  ids.GroupID
	Leaver ids.ProcessID
}

type suspectMsg struct {
	Group   ids.GroupID
	Accused ids.ProcessID
}

type proposeMsg struct {
	Group    ids.GroupID
	NewSeq   ids.ViewSeq
	Proposer ids.ProcessID
	Members  []ids.ProcessID
}

type flushAckMsg struct {
	Group    ids.GroupID
	NewSeq   ids.ViewSeq
	Proposer ids.ProcessID
	From     ids.ProcessID
	Joining  bool
	Unstable []*dataMsg
	Assigns  []assign
}

type commitMsg struct {
	Group    ids.GroupID
	NewSeq   ids.ViewSeq
	Proposer ids.ProcessID
	Members  []ids.ProcessID
	Order    OrderMode
	Liveness Liveness
	Leader   ids.ProcessID
	Cut      []*dataMsg
	Assigns  []assign
}

// --- encoding helpers ---

// decoder is the receive-side codec state one goroutine (a node's receive
// loop) reuses across frames: an embedded wire.Reader and intern tables
// for the identifier strings that repeat on every message. A steady-state
// data frame names a group, a view installer and a sender the decoder has
// seen thousands of times before; interning turns each of those from a
// fresh string allocation into a map probe on the frame's bytes (which Go
// compiles without allocating). The zero value works — it just interns
// nothing — so one-shot call sites keep the plain decodeMessage entry
// point.
//
// The tables are bounded: a hostile peer streaming unique identifiers
// must not grow them forever, so past internCap the decoder falls back to
// plain per-call conversion.
type decoder struct {
	r      wire.Reader
	procs  map[string]ids.ProcessID
	groups map[string]ids.GroupID
	// msgs carves inbound dataMsg envelopes out of chunks of dataMsgChunk,
	// amortising the per-message header allocation the same way the tcpnet
	// arena amortises frame payloads. Carved envelopes are never reused —
	// each one flows into the pending/store machinery with ordinary GC
	// lifetime, and the chunk is reclaimed when its last message dies — so
	// the scheme cannot corrupt retained messages.
	msgs []dataMsg
}

const internCap = 4096

// dataMsgChunk is how many envelopes one decoder arena chunk carves.
const dataMsgChunk = 64

// newData carves one zeroed dataMsg. A zero-value decoder (the one-shot
// decodeMessage path) allocates individually instead: a 64-envelope chunk
// per call would be far worse than the single allocation it replaces.
func (d *decoder) newData() *dataMsg {
	if d.procs == nil {
		return &dataMsg{senderIdx: -1}
	}
	if len(d.msgs) == 0 {
		d.msgs = make([]dataMsg, dataMsgChunk)
	}
	m := &d.msgs[0]
	d.msgs = d.msgs[1:]
	m.senderIdx = -1
	return m
}

func newDecoder() *decoder {
	return &decoder{
		procs:  make(map[string]ids.ProcessID),
		groups: make(map[string]ids.GroupID),
	}
}

// proc reads a length-prefixed process identifier, interned when this
// decoder carries tables. The string wire format equals the blob format,
// so the raw bytes are probed first and only a table miss converts.
func (d *decoder) proc(r *wire.Reader) ids.ProcessID {
	b := r.BlobRef()
	if len(b) == 0 {
		return ""
	}
	if d.procs != nil {
		if p, ok := d.procs[string(b)]; ok {
			return p
		}
		p := ids.ProcessID(b)
		if len(d.procs) < internCap {
			d.procs[string(p)] = p
		}
		return p
	}
	return ids.ProcessID(b)
}

// group reads a length-prefixed group identifier, interned like proc.
func (d *decoder) group(r *wire.Reader) ids.GroupID {
	b := r.BlobRef()
	if len(b) == 0 {
		return ""
	}
	if d.groups != nil {
		if g, ok := d.groups[string(b)]; ok {
			return g
		}
		g := ids.GroupID(b)
		if len(d.groups) < internCap {
			d.groups[string(g)] = g
		}
		return g
	}
	return ids.GroupID(b)
}

func putProcs(w *wire.Writer, ps []ids.ProcessID) {
	w.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.String(string(p))
	}
}

func (d *decoder) getProcs(r *wire.Reader) []ids.ProcessID {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil
	}
	out := make([]ids.ProcessID, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.proc(r))
	}
	return out
}

// putCounts encodes a position-keyed counter vector: a length followed by
// the bare counters. The member index fixes the key order, so encoding is
// deterministic with no keys and no sorting on the wire.
func putCounts(w *wire.Writer, xs []uint64) {
	w.Uvarint(uint64(len(xs)))
	for _, v := range xs {
		w.Uvarint(v)
	}
}

// getCounts decodes a counter vector into buf when it fits (the caller
// passes a zero-length slice over the message's inline backing array),
// falling back to the heap for oversized views.
func getCounts(r *wire.Reader, buf []uint64) []uint64 {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 || n > uint64(r.Remaining()) {
		return nil
	}
	out := buf
	if uint64(cap(out)) < n {
		out = make([]uint64, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Uvarint())
	}
	return out
}

func putAssigns(w *wire.Writer, as []assign) {
	w.Uvarint(uint64(len(as)))
	for _, a := range as {
		w.String(string(a.Sender))
		w.Uvarint(a.Seq)
		w.Uvarint(a.Global)
	}
}

func (d *decoder) getAssigns(r *wire.Reader) []assign {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]assign, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, assign{
			Sender: d.proc(r),
			Seq:    r.Uvarint(),
			Global: r.Uvarint(),
		})
	}
	return out
}

func putData(w *wire.Writer, m *dataMsg) {
	w.String(string(m.Group))
	w.Uvarint(uint64(m.ViewSeq))
	w.String(string(m.ViewInstaller))
	w.String(string(m.Sender))
	w.Uvarint(m.Seq)
	w.Uvarint(m.Lamport)
	putCounts(w, m.VC)
	w.Bool(m.Null)
	w.Blob(m.Payload)
	putCounts(w, m.Acks)
	putAssigns(w, m.Assigns)
	w.Uvarint(m.Lease)
}

func (d *decoder) getData(r *wire.Reader) *dataMsg {
	m := d.newData()
	m.Group = d.group(r)
	m.ViewSeq = ids.ViewSeq(r.Uvarint())
	m.ViewInstaller = d.proc(r)
	m.Sender = d.proc(r)
	m.Seq = r.Uvarint()
	m.Lamport = r.Uvarint()
	m.VC = getCounts(r, m.counts[:0:maxInlineMembers])
	m.Null = r.Bool()
	// The payload aliases the inbound frame (BlobRef): both transports
	// guarantee a frame's bytes are never reused — memnet frames are the
	// per-encode Detach copies passed by reference, tcpnet carves frames
	// from arena chunks it surrenders to the GC — so the payload may be
	// retained (pending, store, delivery to the application) without a
	// per-message copy.
	m.Payload = r.BlobRef()
	m.Acks = getCounts(r, m.counts[maxInlineMembers:maxInlineMembers:2*maxInlineMembers])
	m.Assigns = d.getAssigns(r)
	m.Lease = r.Uvarint()
	return m
}

func putDataList(w *wire.Writer, msgs []*dataMsg) {
	w.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		putData(w, m)
	}
}

func (d *decoder) getDataList(r *wire.Reader) []*dataMsg {
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil
	}
	out := make([]*dataMsg, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.getData(r))
	}
	return out
}

// encodeFramed serialises msg behind the node's frame header (see
// transport.Framing). The writer is pooled: the returned slice is a
// detached exact-size copy, safe to hand to the transport (which retains
// payloads by reference).
func encodeFramed(hdr []byte, msg any) []byte {
	w := wire.GetWriter()
	for _, b := range hdr {
		w.Byte(b)
	}
	switch m := msg.(type) {
	case *dataMsg:
		w.Byte(kindData)
		putData(w, m)
	case *batchMsg:
		w.Byte(kindBatch)
		w.String(string(m.Group))
		putDataList(w, m.Msgs)
	case *joinMsg:
		w.Byte(kindJoin)
		w.String(string(m.Group))
		w.String(string(m.Joiner))
	case *leaveMsg:
		w.Byte(kindLeave)
		w.String(string(m.Group))
		w.String(string(m.Leaver))
	case *suspectMsg:
		w.Byte(kindSuspect)
		w.String(string(m.Group))
		w.String(string(m.Accused))
	case *proposeMsg:
		w.Byte(kindPropose)
		w.String(string(m.Group))
		w.Uvarint(uint64(m.NewSeq))
		w.String(string(m.Proposer))
		putProcs(w, m.Members)
	case *flushAckMsg:
		w.Byte(kindFlushAck)
		w.String(string(m.Group))
		w.Uvarint(uint64(m.NewSeq))
		w.String(string(m.Proposer))
		w.String(string(m.From))
		w.Bool(m.Joining)
		putDataList(w, m.Unstable)
		putAssigns(w, m.Assigns)
	case *commitMsg:
		w.Byte(kindCommit)
		w.String(string(m.Group))
		w.Uvarint(uint64(m.NewSeq))
		w.String(string(m.Proposer))
		putProcs(w, m.Members)
		w.Uvarint(uint64(m.Order))
		w.Uvarint(uint64(m.Liveness))
		w.String(string(m.Leader))
		putDataList(w, m.Cut)
		putAssigns(w, m.Assigns)
	default:
		// Unreachable by construction; encode nothing decodable.
		w.Byte(0)
	}
	enc := w.Detach()
	wire.PutWriter(w)
	return enc
}

// decodeMessage parses one GCS payload, returning one of the message
// struct pointers. One-shot entry point: interning and reader reuse need
// a long-lived decoder (the node's receive loop owns one).
func decodeMessage(payload []byte) (any, error) {
	var d decoder
	return d.decode(payload)
}

// decode parses one GCS payload with this decoder's reusable reader and
// intern tables. Not safe for concurrent use; each receive loop owns its
// decoder.
func (d *decoder) decode(payload []byte) (any, error) {
	r := &d.r
	r.Reset(payload)
	kind := r.Byte()
	var msg any
	switch kind {
	case kindData:
		msg = d.getData(r)
	case kindBatch:
		msg = &batchMsg{
			Group: d.group(r),
			Msgs:  d.getDataList(r),
		}
	case kindJoin:
		msg = &joinMsg{Group: d.group(r), Joiner: d.proc(r)}
	case kindLeave:
		msg = &leaveMsg{Group: d.group(r), Leaver: d.proc(r)}
	case kindSuspect:
		msg = &suspectMsg{Group: d.group(r), Accused: d.proc(r)}
	case kindPropose:
		msg = &proposeMsg{
			Group:    d.group(r),
			NewSeq:   ids.ViewSeq(r.Uvarint()),
			Proposer: d.proc(r),
			Members:  d.getProcs(r),
		}
	case kindFlushAck:
		msg = &flushAckMsg{
			Group:    d.group(r),
			NewSeq:   ids.ViewSeq(r.Uvarint()),
			Proposer: d.proc(r),
			From:     d.proc(r),
			Joining:  r.Bool(),
			Unstable: d.getDataList(r),
			Assigns:  d.getAssigns(r),
		}
	case kindCommit:
		msg = &commitMsg{
			Group:    d.group(r),
			NewSeq:   ids.ViewSeq(r.Uvarint()),
			Proposer: d.proc(r),
			Members:  d.getProcs(r),
			Order:    OrderMode(r.Uvarint()),
			Liveness: Liveness(r.Uvarint()),
			Leader:   d.proc(r),
			Cut:      d.getDataList(r),
			Assigns:  d.getAssigns(r),
		}
	default:
		return nil, fmt.Errorf("gcs: unknown message kind %d", kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return msg, nil
}

// groupOf extracts the group a decoded message belongs to.
func groupOf(msg any) ids.GroupID {
	switch m := msg.(type) {
	case *dataMsg:
		return m.Group
	case *batchMsg:
		return m.Group
	case *joinMsg:
		return m.Group
	case *leaveMsg:
		return m.Group
	case *suspectMsg:
		return m.Group
	case *proposeMsg:
		return m.Group
	case *flushAckMsg:
		return m.Group
	case *commitMsg:
		return m.Group
	default:
		return ""
	}
}
