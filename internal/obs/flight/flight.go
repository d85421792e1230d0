// Package flight is the protocol flight recorder: a fixed-capacity ring
// journal of typed protocol events, recorded with no lock and zero
// allocations on the hot path. Where the obs registry answers "how many /
// how fast on average", the journal answers "what happened to message X":
// every protocol transition — multicast enqueue, batch flush, transport
// flush, ingest, ORDER assign, deliver, resend, drop, flush-cut phase,
// view install, and each stage of an invocation as the process that ran
// it saw it — is one fixed-size timestamped slot keyed by small integer IDs
// instead of strings.
//
// The ring is split into one segment per P (the runtime's scheduling
// context). A writer pins its goroutine to its P for the length of one
// event, so it is its segment's only writer and the slots it fills are
// lines no other core wrote last. It takes the event's journal sequence
// number with one atomic add on the shared counter, stores the slot's
// words, the sequence number first, and then moves the segment's head.
// Every slot word is an atomic, so recording is clean under the race
// detector. A reader copies each segment from its newest event down and
// stops at the first slot overwritten meanwhile (its sequence number is
// not below the one copied before it, or changes while it is copied), so a
// torn event is never returned; it merges the segments by sequence number
// into one contiguous suffix of the journal. A P beyond the segments
// (GOMAXPROCS grew after New) and every writer of a ring too small to
// split share one more segment under a mutex. Name registration (process,
// group and per-view member names) is the cold path and takes a mutex.
//
// On top of the raw journal sit the lifecycle analyzer (analyze.go),
// which joins events by (group, view, sender, seq) into per-message
// timelines and decomposes latency into queue-wait / wire / ordering-wait
// / delivery stages, the stall detector (stall.go), which turns event
// patterns into human-readable diagnoses, and the per-invocation view
// (trace.go): stage events grouped by trace ID into the tree at /traces.
package flight

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Type identifies one kind of protocol transition.
type Type uint8

// The event taxonomy. Field use per type is documented on each constant;
// unattributed fields are zero. "Pos" is a member's position in the view.
const (
	EvNone Type = iota
	// EvMulticast: the sender enqueued its own message (data or null).
	// Sender=own pos, MsgSeq=own seq, A=Lamport stamp, B=1 for a null.
	EvMulticast
	// EvBatchFlush: the sender cut a batch envelope to the wire.
	// Sender=own pos, MsgSeq=first own seq in the batch, A=message count.
	// Own seqs are contiguous, so the batch covers [MsgSeq, MsgSeq+A).
	EvBatchFlush
	// EvIngest: a contiguous message entered the pending set (the stamp
	// witness — the receiver's Lamport clock has merged it). Sender=origin
	// pos, MsgSeq=origin seq, A=Lamport stamp, B=1 for a null.
	EvIngest
	// EvStash: an out-of-order arrival was stashed for later.
	// Sender=origin pos, MsgSeq=origin seq.
	EvStash
	// EvDupDrop: a duplicate arrival (already ingested or stashed) was
	// dropped. Sender=origin pos, MsgSeq=origin seq.
	EvDupDrop
	// EvStaleDrop: an arrival was dropped before ingest (wrong view,
	// unknown sender, or group not running). MsgSeq=origin seq when known.
	EvStaleDrop
	// EvAssign: the sequencer assigned a message its global order.
	// Sender=origin pos, MsgSeq=origin seq, A=global order.
	EvAssign
	// EvDeliver: an application message was delivered. Sender=origin pos,
	// MsgSeq=origin seq, A=Lamport stamp, B=global order+1 (0 when the
	// group is not totally ordered).
	EvDeliver
	// EvCutDeliver: a message was force-delivered by a view-change cut.
	// Sender=origin pos, MsgSeq=origin seq.
	EvCutDeliver
	// EvStable: a sender's stability floor advanced (every member has
	// acknowledged its messages through the floor). Sender=pos whose floor
	// moved, MsgSeq=new floor.
	EvStable
	// EvResend: a go-back-N burst was resent to a lagging member.
	// Sender=target pos, MsgSeq=first resent seq, A=last resent seq.
	EvResend
	// EvFlushPropose: a flush proposal was sent or accepted.
	// View=proposed view seq, A=proposed member count.
	EvFlushPropose
	// EvFlushAck: a flush acknowledgement was emitted. View=proposed view
	// seq, A=unstable messages carried.
	EvFlushAck
	// EvFlushCommit: a flush commit was built or applied. View=new view
	// seq, A=cut size (messages force-delivered).
	EvFlushCommit
	// EvViewInstall: a view was installed. View=view seq, A=member count,
	// B=order mode (gcs.OrderMode numeric value).
	EvViewInstall
	// EvTCPFlush: the transport cut a vectored write to a peer.
	// Sender=peer proc ID, A=frames, B=bytes.
	EvTCPFlush
	// EvTCPDropFull: a frame was dropped because a peer's send queue was
	// full. Sender=peer proc ID.
	EvTCPDropFull
	// EvTCPDropConn: queued frames were lost when a peer connection
	// failed. Sender=peer proc ID, A=frames lost.
	EvTCPDropConn
	// EvTCPConnect: a peer connection was established. Sender=peer proc
	// ID, B=1 when this side dialed.
	EvTCPConnect
	// EvCallStart: the invocation layer launched a call. MsgSeq=trace ID,
	// A=reply mode.
	EvCallStart
	// EvStage: this process ran one stage of an invocation, ending now.
	// MsgSeq=trace ID, A=CallStage | detail<<8, B=duration in nanoseconds
	// (see StageWord and the CallStage constants in trace.go).
	EvStage
	// EvLeaseGrant: the member's read lease became valid. A=lease age in
	// ticks at the transition, B=configured bound in ticks.
	EvLeaseGrant
	// EvLeaseExpire: the member's read lease became invalid (grantor
	// silent past the bound, or a flush in progress). A/B as EvLeaseGrant.
	EvLeaseExpire
	// EvLocalRead: a leased read served from the local delivered prefix.
	// A=lease age in ticks, B=effective staleness bound in ticks; recorded
	// only for reads actually served, so A<=B is the journal invariant
	// that the staleness bound held.
	EvLocalRead
	// EvFrontierWait: a linearizable read-index barrier began. Sequencer:
	// A=target global sequence, B=delivered global at arrival. Symmetric:
	// MsgSeq=marker sequence, A=marker Lamport time.
	EvFrontierWait
	// EvDispatch: the fan-out of a delivered message (handler call or
	// Events() push) returned, at the event's time; B=how long it ran, in
	// nanoseconds. Sender/MsgSeq/View identify the message as in
	// EvDeliver. The fan-out began at At−B, so the deliver→start gap is the
	// ordering-to-execution queueing delay and B is pure servant-execution
	// time.
	EvDispatch

	evMax // sentinel, keep last
)

var typeNames = [evMax]string{
	EvNone:         "none",
	EvMulticast:    "multicast",
	EvBatchFlush:   "batch-flush",
	EvIngest:       "ingest",
	EvStash:        "stash",
	EvDupDrop:      "dup-drop",
	EvStaleDrop:    "stale-drop",
	EvAssign:       "assign",
	EvDeliver:      "deliver",
	EvCutDeliver:   "cut-deliver",
	EvStable:       "stable",
	EvResend:       "resend",
	EvFlushPropose: "flush-propose",
	EvFlushAck:     "flush-ack",
	EvFlushCommit:  "flush-commit",
	EvViewInstall:  "view-install",
	EvTCPFlush:     "tcp-flush",
	EvTCPDropFull:  "tcp-drop-full",
	EvTCPDropConn:  "tcp-drop-conn",
	EvTCPConnect:   "tcp-connect",
	EvCallStart:    "call-start",
	EvStage:        "stage",
	EvLeaseGrant:   "lease-grant",
	EvLeaseExpire:  "lease-expire",
	EvLocalRead:    "local-read",
	EvFrontierWait: "frontier-wait",
	EvDispatch:     "dispatch",
}

// String returns the event type's journal name.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "type?"
}

// NoSender marks an event that has no member or peer attribution.
const NoSender int16 = -1

// Event is one decoded journal entry. The recording form is seven packed
// words; this struct is only materialized on the read path.
type Event struct {
	// Seq is the journal sequence number (the /journal cursor).
	Seq uint64
	// At is nanoseconds since the process-wide journal epoch. Every
	// recorder in a process shares the epoch, so events from co-located
	// recorders merge onto one timeline.
	At int64
	// Type is the protocol transition.
	Type Type
	// Proc is the recording process's ID in the recorder's name table.
	Proc uint16
	// Group is the group's ID in the name table (0 when not group-scoped).
	Group uint16
	// Sender is a member position in the event's view, or a peer proc ID
	// for transport events, or NoSender.
	Sender int16
	// View is the group view sequence the event happened in.
	View uint32
	// MsgSeq and A, B are per-type payloads (see the Type constants).
	MsgSeq uint64
	A, B   uint64
}

// epoch is the process-wide journal time base. time.Since(epoch) reads
// the monotonic clock and allocates nothing.
var epoch = time.Now()

// Now returns the current journal timestamp.
func Now() int64 { return int64(time.Since(epoch)) }

// Stamp returns the journal timestamp of t, a clock reading that carries
// its monotonic part (time.Now's or Time's). It reads no clock.
func Stamp(t time.Time) int64 { return int64(t.Sub(epoch)) }

// Time returns journal timestamp at as a time.Time, so one reading of Now
// serves both as a journal stamp and as a time to compare with other
// monotonic readings. Its wall-clock part is the epoch's plus the elapsed
// monotonic time.
func Time(at int64) time.Time { return epoch.Add(time.Duration(at)) }

// viewKey identifies one installed view of one group.
type viewKey struct {
	Group uint16
	View  uint32
}

// The name tables are append-only and snapshotted on every Meta call, so
// they must stay bounded even on a node that churns through groups — a
// sharded fabric creates a cs/ binding group per client per shard, and a
// long-lived process would otherwise intern without limit (and silently
// alias once past uint16). Past the cap, Proc/Group return 0: events
// render as "-" but recording stays safe. Views are evicted FIFO — old
// views are dead weight once their group moves on.
const (
	maxInterned = 4096
	maxViews    = 8192
)

// DefaultCap is the journal capacity installed by obs.New — small enough
// to be free (a few hundred KB), large enough to hold the recent past of
// a lightly loaded node. Benches and -journal nodes install bigger rings.
const DefaultCap = 4096

// Recorder is the journal. The zero value and nil are both valid,
// disabled recorders: Record is a no-op.
type Recorder struct {
	ctr  atomic.Uint64 // the newest journal seq claimed
	size int           // slots made at New; 0 disables the recorder
	// own holds one segment of segCap slots per P at New. A P beyond
	// them, and every writer of a ring too small to split, writes shared
	// under smu; shared is made at New for an unsplit ring, and at the
	// first such write otherwise.
	own    []segment
	segCap int
	smu    sync.Mutex
	shared atomic.Pointer[segment]

	// Name tables, cold path. Index 0 of procs/groups is reserved for
	// "unset" so a zero ID never aliases a real name.
	mu        sync.Mutex
	procs     []string
	procIdx   map[string]uint16
	groups    []string
	groupIdx  map[string]uint16
	views     map[viewKey][]string
	viewOrder []viewKey // insertion order, for FIFO eviction at maxViews
}

// minSegment is the shortest per-P segment. A ring that cannot give every
// P this many slots stays one segment, shared by all writers.
const minSegment = 32

// New returns a recorder holding the last capacity events (rounded up to
// a power of two) in one segment per P, each holding capacity/P rounded
// down to a power of two; a ring too small to give each P minSegment slots
// is one segment. capacity <= 0 returns a disabled recorder.
func New(capacity int) *Recorder {
	r := &Recorder{
		procs:    []string{"-"},
		procIdx:  make(map[string]uint16),
		groups:   []string{"-"},
		groupIdx: make(map[string]uint16),
		views:    make(map[viewKey][]string),
	}
	if capacity <= 0 {
		return r
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	p := runtime.GOMAXPROCS(0)
	per := 1
	for per*2 <= n/p {
		per <<= 1
	}
	if per < minSegment {
		r.shared.Store(newSegment(n))
		r.size = n
		return r
	}
	r.own = make([]segment, p)
	for i := range r.own {
		r.own[i].init(per)
	}
	r.segCap, r.size = per, p*per
	return r
}

// Enabled reports whether Record stores events.
func (r *Recorder) Enabled() bool { return r != nil && r.size > 0 }

// Cap returns the ring capacity: the slots of every segment.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	if s := r.shared.Load(); s != nil && len(r.own) > 0 {
		return r.size + len(s.slots)
	}
	return r.size
}

// Proc interns a process name and returns its ID. IDs are stable for the
// recorder's lifetime. Call at construction time, not on hot paths.
func (r *Recorder) Proc(name string) uint16 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.procIdx[name]; ok {
		return id
	}
	if len(r.procs) >= maxInterned {
		return 0
	}
	id := uint16(len(r.procs))
	r.procs = append(r.procs, name)
	r.procIdx[name] = id
	return id
}

// Group interns a group name and returns its ID.
func (r *Recorder) Group(name string) uint16 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.groupIdx[name]; ok {
		return id
	}
	if len(r.groups) >= maxInterned {
		return 0
	}
	id := uint16(len(r.groups))
	r.groups = append(r.groups, name)
	r.groupIdx[name] = id
	return id
}

// SetView records the member names, by position, of one installed view,
// so snapshots can resolve Sender positions. Called at view install.
func (r *Recorder) SetView(group uint16, view uint32, members []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := viewKey{group, view}
	if _, exists := r.views[k]; !exists {
		for len(r.viewOrder) >= maxViews {
			delete(r.views, r.viewOrder[0])
			r.viewOrder = r.viewOrder[1:]
		}
		r.viewOrder = append(r.viewOrder, k)
	}
	r.views[k] = append([]string(nil), members...)
}

// Meta is a point-in-time copy of the recorder's name tables.
type Meta struct {
	procs  []string
	groups []string
	views  map[viewKey][]string
}

// Meta snapshots the name tables.
func (r *Recorder) Meta() *Meta {
	m := &Meta{views: make(map[viewKey][]string)}
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m.procs = append([]string(nil), r.procs...)
	m.groups = append([]string(nil), r.groups...)
	for k, v := range r.views {
		m.views[k] = v
	}
	return m
}

// ProcName resolves a process ID, or "-" when unknown.
func (m *Meta) ProcName(id uint16) string {
	if m != nil && int(id) < len(m.procs) {
		return m.procs[id]
	}
	return "-"
}

// GroupName resolves a group ID, or "-" when unknown.
func (m *Meta) GroupName(id uint16) string {
	if m != nil && int(id) < len(m.groups) {
		return m.groups[id]
	}
	return "-"
}

// GroupID resolves an interned group name back to its ID. It reports
// false for names never interned — including names lost to the intern
// cap, which all collapse to ID 0.
func (m *Meta) GroupID(name string) (uint16, bool) {
	if m == nil {
		return 0, false
	}
	for id := 1; id < len(m.groups); id++ {
		if m.groups[id] == name {
			return uint16(id), true
		}
	}
	return 0, false
}

// FilterGroup returns the events scoped to one group. Events that are not
// group-scoped (transport flushes, peer connects — Group 0) are dropped:
// a group filter asks "what happened to THIS group", and unattributed
// events cannot answer that.
func FilterGroup(events []Event, group uint16) []Event {
	out := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Group == group {
			out = append(out, e)
		}
	}
	return out
}

// Members returns the member names of one view, or nil.
func (m *Meta) Members(group uint16, view uint32) []string {
	if m == nil {
		return nil
	}
	return m.views[viewKey{group, view}]
}

// MemberName resolves a member position within a view. Transport events
// store a proc ID in Sender instead; those are rendered by the caller.
func (m *Meta) MemberName(group uint16, view uint32, pos int16) string {
	if pos < 0 {
		return "-"
	}
	if mem := m.Members(group, view); int(pos) < len(mem) {
		return mem[pos]
	}
	return "#" + itoa(int64(pos))
}

// itoa is a tiny strconv.FormatInt(10) stand-in kept local so the decode
// path has no surprising dependencies.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
