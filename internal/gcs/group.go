package gcs

import (
	"context"
	"errors"
	"sync"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs/flight"
	"newtop/internal/queue"
	"newtop/internal/transport"
	"newtop/internal/vclock"
	"newtop/internal/wire"
)

// Errors returned by group operations.
var (
	// ErrLeft is returned after the local member has left the group (or
	// the node closed).
	ErrLeft = errors.New("gcs: left group")
	// ErrConfigMismatch is returned by Join when the group's installed
	// configuration differs from the joiner's.
	ErrConfigMismatch = errors.New("gcs: group configuration mismatch")
)

type groupState int

const (
	stateJoining groupState = iota + 1
	stateNormal
	stateFlushing
	stateLeft
)

// Group is the local member's handle on one group. All methods are safe
// for concurrent use.
type Group struct {
	node *Node
	id   ids.GroupID
	cfg  GroupConfig
	me   ids.ProcessID

	mu   sync.Mutex
	cond *sync.Cond

	state groupState
	view  View
	// servers is view's members less its clients (View.Servers), built at
	// each install and shared, never modified, by Servers' callers.
	servers []ids.ProcessID

	// Per-view messaging state (reset at every view installation). The
	// per-member counters are dense slices keyed by the view's member
	// index (see mindex.go): every member derives the same position
	// table from the sorted membership, so positions are meaningful on
	// the wire and a counter read is an array load, not a map probe.
	// Messages and ordering decisions live in the per-position sequence
	// windows (window.go), their state given by these cursors.
	sendSeq       uint64
	midx          *memberIndex   // position table of the installed view (nil while joining)
	delivered     []uint64       // contiguous delivered per member position
	recvContig    []uint64       // contiguous ingested per member position
	win           []seqWindow    // messages and ordering decisions per member position
	npending      int            // ingested, not yet delivered: Σ recvContig − delivered
	nstore        int            // unstable messages retained for flush/resend
	nappStore     int            // application messages among them (activeLocked)
	lastStamp     []vclock.Stamp // greatest contiguously-ingested stamp per position
	ring          globalRing     // inverse of the windows' decisions, indexed by global seq
	delGlobal     uint64         // last delivered global seq
	assignHigh    uint64         // sequencer only: highest global assigned
	announcedHigh uint64         // sequencer only: highest global put on the wire
	ackMat        []uint64       // n×n acknowledgement matrix, row-major [from][sender]
	stableSeq     []uint64       // per-position stability floor (min over ackMat columns)
	collectVisits uint64         // slots examined by compactStableLocked (cost tests)
	maxAppStamp   vclock.Stamp   // greatest application stamp ingested from others
	seqLeader     bool           // this member is the view's sequencer (OrderSequencer only)

	// Read-lease machinery (cfg.LeaseTicks > 0; see lease.go). Every
	// expiry decision compares counts of the group's own deterministic
	// timer, never the wall clock. tickCount and lastDelivStamp survive
	// view changes (stamps are monotone across views); the grant state is
	// per-view and reset at installation — a view change revokes leases.
	tickCount       uint64       // ticks since the group handle was created
	lastHeardTick   []uint64     // per-position tick of the last accepted current-view traffic
	leaderPos       int          // member position of the view's leader (-1 while joining)
	leaseGrantTick  uint64       // tick the last sequencer grant was accepted (0 = none this view)
	leaseBound      uint64       // bound carried by that grant, in ticks
	leaseWasValid   bool         // last validity observed by tick() (transition journalling)
	frontierWaiters int          // ReadIndex waiters parked on cond
	lastDelivStamp  vclock.Stamp // stamp of the newest delivered application message

	// Delivery queues (see mindex.go): the loop pops deliverable
	// messages in O(log n) instead of re-sorting the pending set on
	// every attempt. deliverQ holds all pending messages under the
	// symmetric and causal orders, and the pending nulls under the
	// sequencer order (application messages there are indexed by the
	// global-sequence ring instead). assignQ holds the sequencer
	// leader's not-yet-assigned application messages. scratch is the
	// reusable pop buffer for scan-and-push-back passes.
	deliverQ stampHeap
	assignQ  stampHeap
	scratch  []*dataMsg
	// batchBuf holds this member's data messages queued for the next batch
	// flush (cfg.Batch only). Queued messages are already self-ingested and
	// in the store, so a view change can simply drop the buffer: the flush
	// protocol recovers them through the commit's cut.
	batchBuf []*dataMsg
	// delivArena carves Delivery headers out of chunks of deliveryChunk so
	// the per-delivery allocation is amortised; a chunk is surrendered to
	// the GC once fully carved (each Delivery is handed to the application
	// exactly once, so carved slots are never reused).
	delivArena []Delivery
	// msgArena carves this member's own outbound dataMsg envelopes the
	// same way (the receive side has its twin in decoder.msgs). Slots are
	// never reused, so store/pending retention is safe; the GC reclaims a
	// chunk when its last message dies.
	msgArena []dataMsg
	// payArena holds the copies of this member's multicast payloads, which
	// the group keeps for self-delivery, resends and the flush cut while
	// the caller reuses its own buffer. Its chunks follow msgArena's rules.
	payArena transport.Arena
	// coordScratch is the reusable live-member buffer of actingCoordinator.
	coordScratch []ids.ProcessID

	// clk is the clock reading of the current critical section (see
	// Node.now): every stamp taken under g.mu uses it.
	clk instant

	// Liveness machinery.
	lastSentAt time.Time
	lastHeard  map[ids.ProcessID]time.Time
	ackMark    map[ids.ProcessID]ackProgress
	wasActive  bool

	// Membership machinery.
	suspects      map[ids.ProcessID]bool
	pendingJoins  map[ids.ProcessID]bool // joiner → joins as a client
	pendingLeaves map[ids.ProcessID]bool
	curProposal   *proposeMsg // proposal we last acked (participant side)
	proposalAt    time.Time
	fl            *flushCoord // coordinator side, nil unless proposing
	maxViewSeq    ids.ViewSeq // highest view sequence ever seen/proposed

	// Traffic that arrived before the view it belongs to installed here
	// (see holdEarlyLocked): data of the view a joining or flushing member
	// is about to install, and a next-view proposal that overtook the
	// commit this member is waiting for. installViewLocked releases both.
	early     []*dataMsg
	earlyProp *proposeMsg
	// joined is closed at the first view installation, or when the handle
	// closes first (a rejected or abandoned join); Join waits on it.
	joined chan struct{}

	// attention counts outstanding application-level interests (e.g.
	// invocations awaiting replies): while positive, an event-driven
	// group keeps its time-silence and failure-suspicion machinery
	// running even if all messages have stabilised — a request manager
	// that dies after acknowledging a request but before answering it
	// must still be detected.
	attention int

	joinErr error

	stats   Stats
	metrics *gcsMetrics

	// Flight-recorder identity: the journal ring plus this process's and
	// group's interned IDs. Recording is lock-free and allocation-free,
	// so hooks run inline on the hot path.
	fr      *flight.Recorder
	frProc  uint16
	frGroup uint16

	// wentry is the group's deadline on the node's shared timer wheel
	// (wheel.go); parked (guarded by mu) is true while the group holds no
	// scheduled tick at all — the idle event-driven state of paper §3.
	wentry wheelEntry
	parked bool

	// Post-order dispatch queue (dispatch.go). evmu nests inside mu;
	// evCond signals the end of an in-flight drain.
	evmu       sync.Mutex
	evCond     *sync.Cond
	evq        []dispItem
	evScratch  []dispItem
	evActive   bool // queued on, or being drained by, the worker pool
	evDraining bool // a worker is mid-batch
	evClosed   bool
	handler    func(Event)
	events     *queue.FIFO[Event] // the Events() adaptor's buffer, if it was called
}

// Test-only instrumentation of the delivery loop (nil in production).
// The delivery-equivalence property tests install these to compare every
// ordering decision of the indexed machinery against a reference
// re-implementation of the pre-index scan+sort algorithm; both run with
// g.mu held. Install before any node is created and clear only after
// every node has closed.
var (
	testOrderPreStep func(g *Group)
	testOrderChoice  func(g *Group, chosen *dataMsg)
)

// deliveryChunk is how many Delivery headers one arena chunk carves; see
// Group.delivArena.
const deliveryChunk = 64

// payChunk is the size of the chunks Group.payArena carves payload copies
// from.
const payChunk = 8 << 10

// flushCoord is the coordinator-side state of one membership change round.
type flushCoord struct {
	seq       ids.ViewSeq
	members   []ids.ProcessID
	clients   []ids.ProcessID // the members that joined as clients
	prop      *proposeMsg     // resent to the members yet to ack (reproposeLocked)
	acks      map[ids.ProcessID]*flushAckMsg
	startedAt time.Time
	sentAt    time.Time // when the proposal was last sent
}

func newGroup(n *Node, id ids.GroupID, cfg GroupConfig, st groupState) *Group {
	g := &Group{
		node:          n,
		id:            id,
		cfg:           cfg,
		me:            n.ID(),
		leaderPos:     -1, // no view installed yet
		metrics:       n.metrics,
		fr:            n.fr,
		frProc:        n.frProc,
		frGroup:       n.fr.Group(string(id)),
		state:         st,
		clk:           n.now(),
		lastHeard:     make(map[ids.ProcessID]time.Time),
		suspects:      make(map[ids.ProcessID]bool),
		pendingJoins:  make(map[ids.ProcessID]bool),
		pendingLeaves: make(map[ids.ProcessID]bool),
		payArena:      transport.Arena{Size: payChunk},
	}
	g.cond = sync.NewCond(&g.mu)
	g.evCond = sync.NewCond(&g.evmu)
	// Register the tick deadline on the node's shared wheel: one wheel
	// goroutine drives every group, so a new group costs a list link, not
	// a ticker goroutine.
	g.wentry.g = g
	g.metrics.groupsActive.Add(1)
	n.wheel.schedule(&g.wentry, cfg.Tick)
	return g
}

// frRecord journals one protocol event scoped to the group's current
// view, stamped with the section's clock (mu held). sender is a member
// position (or flight.NoSender); the recorder is lock-free and
// allocation-free.
func (g *Group) frRecord(t flight.Type, sender int, msgSeq, a, b uint64) {
	g.fr.RecordAt(g.clk.at, flight.Event{
		Type:   t,
		Proc:   g.frProc,
		Group:  g.frGroup,
		Sender: int16(sender),
		View:   uint32(g.view.Seq),
		MsgSeq: msgSeq,
		A:      a,
		B:      b,
	})
}

// ID returns the group identifier.
func (g *Group) ID() ids.GroupID { return g.id }

// Me returns the local member's process identifier.
func (g *Group) Me() ids.ProcessID { return g.me }

// Config returns the group configuration (with defaults applied).
func (g *Group) Config() GroupConfig { return g.cfg }

// View returns the currently installed view (zero View while joining).
func (g *Group) View() View {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.view.Clone()
}

// Servers returns the servers of the installed view (View.Servers) and the
// view's sequence number. It is current from the moment the view installs,
// ahead of the view event's dispatch. The slice is shared: the caller must
// not modify it.
func (g *Group) Servers() ([]ids.ProcessID, ids.ViewSeq) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.servers, g.view.Seq
}

// leaderOf returns the deterministic leader (coordinator and sequencer) of
// a membership: the configured preferred leader when present, otherwise
// the lowest identifier.
func (g *Group) leaderOf(members []ids.ProcessID) ids.ProcessID {
	if !g.cfg.Leader.Nil() && ids.ContainsProcess(members, g.cfg.Leader) {
		return g.cfg.Leader
	}
	return ids.MinProcess(members)
}

// actingCoordinator is the leader among non-suspected members (mu held).
func (g *Group) actingCoordinator() ids.ProcessID {
	live := g.coordScratch[:0]
	for _, m := range g.view.Members {
		if !g.suspects[m] {
			live = append(live, m)
		}
	}
	g.coordScratch = live
	return g.leaderOf(live)
}

// Attend declares an outstanding application-level interest in the
// group: the liveness machinery of an event-driven group stays active
// until the matching Unattend, so failures are detected even while no
// messages are in flight. Lively groups are unaffected.
func (g *Group) Attend() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.readClockLocked()
	g.attention++
	g.unparkLocked()
	g.updateActivityLocked()
}

// Unattend releases an Attend.
func (g *Group) Unattend() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.attention > 0 {
		g.attention--
	}
}

// Suspect reports an application-level failure suspicion about a member
// (e.g. from an external prober): the membership machinery treats it like
// a time-silence suspicion — the acting coordinator excludes the member
// in the next view. Suspicions about unknown members or ourselves are
// ignored. The built-in suspector remains authoritative; this entry point
// exists because the failure suspector is a modular, replaceable part of
// the service.
func (g *Group) Suspect(p ids.ProcessID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state != stateNormal && g.state != stateFlushing {
		return
	}
	if p == g.me || !g.view.Contains(p) || g.suspects[p] {
		return
	}
	g.readClockLocked()
	g.unparkLocked()
	g.suspects[p] = true
	if coord := g.actingCoordinator(); coord != g.me {
		g.sendMsgLocked(coord, &suspectMsg{Group: g.id, Accused: p})
		return
	}
	g.maybeStartFlushLocked()
}

// Multicast sends an application message to the full membership with the
// group's configured ordering guarantee. It blocks while a view change is
// in progress (sends are forbidden between flush-ack and view
// installation). The group keeps a copy of payload, so the caller may
// reuse or recycle it as soon as Multicast returns.
func (g *Group) Multicast(ctx context.Context, payload []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.waitNormalLocked(ctx); err != nil {
		return err
	}
	g.readClockLocked()
	g.sendDataLocked(false, g.payArena.Copy(payload))
	return nil
}

// MulticastAsSequencer is Multicast for the view's sequencer alone: once the
// group is normal it sends only if this member sequences the view, and
// returns ErrNotSequencer, having sent nothing, if not. The test and the
// send share one critical section, and a sequencer assigns its own message
// its global slot as it emits it (emitDataLocked), so on a nil return the
// message is ordered ahead of anything any member sends later.
func (g *Group) MulticastAsSequencer(ctx context.Context, payload []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.waitNormalLocked(ctx); err != nil {
		return err
	}
	if !g.seqLeader {
		return ErrNotSequencer
	}
	g.readClockLocked()
	g.sendDataLocked(false, g.payArena.Copy(payload))
	return nil
}

// waitNormalLocked blocks until the group is in the normal state, the
// member has left, or ctx is done. The normal-state fast path stays free
// of the slow half's context and watch-channel machinery, so the
// steady-state Multicast pays a branch, not an escape-forced allocation.
func (g *Group) waitNormalLocked(ctx context.Context) error {
	switch g.state {
	case stateNormal:
		return nil
	case stateLeft:
		return ErrLeft
	}
	return g.waitNormalSlowLocked(ctx)
}

// waitNormalSlowLocked is the blocking half of waitNormalLocked: a view
// change (or join) is in progress, so park on the group's condition
// variable until the state settles or ctx ends.
func (g *Group) waitNormalSlowLocked(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var watch chan struct{}
	for {
		switch g.state {
		case stateNormal:
			return nil
		case stateLeft:
			return ErrLeft
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if watch == nil && ctx.Done() != nil {
			watch = make(chan struct{})
			go func() {
				select {
				case <-ctx.Done():
					g.cond.Broadcast()
				case <-watch:
				}
			}()
			defer close(watch)
		}
		g.cond.Wait() //lint:ok lockblock Cond.Wait atomically releases g.mu while parked; the event loop keeps running
	}
}

// sendDataLocked builds, self-ingests and transmits one data message,
// then runs the delivery loop.
func (g *Group) sendDataLocked(null bool, payload []byte) {
	g.emitDataLocked(null, payload)
	g.tryDeliverLocked()
}

// emitDataLocked builds, self-ingests and transmits one data message
// without entering the delivery loop (so the loop itself can announce
// sequencer decisions without recursing).
func (g *Group) emitDataLocked(null bool, payload []byte) {
	g.unparkLocked()
	if null {
		g.stats.NullSent++
		g.metrics.nullsSent.Inc()
	} else {
		g.stats.AppSent++
		g.metrics.appSent.Inc()
	}
	g.sendSeq++
	if len(g.msgArena) == 0 {
		g.msgArena = make([]dataMsg, dataMsgChunk)
	}
	m := &g.msgArena[0]
	g.msgArena = g.msgArena[1:]
	m.bornAt = g.clk.t
	m.Group = g.id
	m.ViewSeq = g.view.Seq
	m.ViewInstaller = g.view.Installer
	m.Sender = g.me
	m.Seq = g.sendSeq
	m.Lamport = g.node.clock.Next()
	m.Null = null
	m.Payload = payload
	m.senderIdx = g.midx.me
	m.VC = g.sendVCLocked(m, g.sendSeq)
	var isNull uint64
	if null {
		isNull = 1
	}
	g.frRecord(flight.EvMulticast, g.midx.me, m.Seq, m.Lamport, isNull)
	if g.seqLeader {
		if !null {
			g.assignLocked(m.senderIdx, m.Seq)
		}
		m.Assigns = g.assignDeltaLocked(m)
		g.announcedHigh = g.assignHigh
		// Read-lease grant: piggybacked on whatever the sequencer was
		// sending anyway, but only while it can itself hear a majority —
		// a deposed minority sequencer stops granting within one bound.
		if g.cfg.LeaseTicks > 0 && g.quorumHeardLocked(uint64(g.cfg.LeaseTicks)) {
			m.Lease = uint64(g.cfg.LeaseTicks)
		}
	}
	if g.cfg.ProcessingCost > 0 && !g.batchingLocked() {
		time.Sleep(g.cfg.ProcessingCost) //lint:ok lockblock simulated per-message processing cost (paper's overload experiments); zero in production configs
	}
	g.lastSentAt = g.clk.t
	g.ingestContiguousLocked(m)
	// Snapshot the acknowledgement vector after self-ingestion so the
	// message advertises its own receipt; without that, a sender's first
	// and only message can never stabilise at the other members.
	m.Acks = g.ackSnapshotLocked(m)
	if g.batchingLocked() {
		g.queueBatchLocked(m)
	} else {
		g.broadcastLocked(m)
	}
}

// batchingLocked reports whether sends currently go through the batch
// buffer: configured, in the normal state, and with someone to send to (a
// singleton view has no wire traffic to coalesce).
func (g *Group) batchingLocked() bool {
	return g.cfg.Batch && g.state == stateNormal && len(g.view.Members) > 1
}

// queueBatchLocked appends one freshly-built data message to the batch
// buffer. Null messages flush the buffer at once: they exist for
// liveness, acknowledgement and ordering progress, so delaying them a
// tick would slow the protocol, and because they are emitted last in any
// burst they carry the buffered application messages out with them (FIFO
// per sender is preserved — the buffer flushes in emit order).
func (g *Group) queueBatchLocked(m *dataMsg) {
	g.batchBuf = append(g.batchBuf, m)
	if m.Null || len(g.batchBuf) >= batchLimit {
		g.flushBatchLocked()
	}
}

// flushBatchLocked puts the queued data messages on the wire as one batch
// envelope (or as a bare data message when only one is queued, where the
// envelope would buy nothing). The simulated ProcessingCost is charged
// once per envelope rather than once per message — the sender-side half
// of the amortisation that batching exists for.
func (g *Group) flushBatchLocked() {
	if len(g.batchBuf) == 0 {
		return
	}
	msgs := g.batchBuf
	if g.cfg.ProcessingCost > 0 {
		time.Sleep(g.cfg.ProcessingCost) //lint:ok lockblock simulated per-envelope processing cost (amortised across the batch); zero in production configs
	}
	var w *wire.Writer
	if len(msgs) == 1 {
		w = g.node.encode(msgs[0])
	} else {
		w = g.node.encode(&batchMsg{Group: g.id, Msgs: msgs})
	}
	g.frRecord(flight.EvBatchFlush, g.midx.me, msgs[0].Seq, uint64(len(msgs)), 0)
	g.stats.BatchesSent++
	g.stats.BatchedMsgs += uint64(len(msgs))
	g.metrics.batchesSent.Inc()
	g.metrics.batchedMsgs.Add(uint64(len(msgs)))
	g.metrics.batchSizeHigh.SetMax(int64(len(msgs)))
	g.sendToLocked(g.view.Members, w)
	// The messages live on in the store; the buffer's capacity is reused
	// for the next batch window once its references are released.
	for i := range msgs {
		msgs[i] = nil
	}
	g.batchBuf = msgs[:0]
}

// broadcastLocked transmits a data message to every other view member.
func (g *Group) broadcastLocked(m *dataMsg) {
	g.sendToLocked(g.view.Members, g.node.encode(m))
}

// sendToLocked sends the frame encoded in w to every process of to but
// this member (best-effort; the resend machinery recovers), then recycles
// w: every transport copies what it keeps.
func (g *Group) sendToLocked(to []ids.ProcessID, w *wire.Writer) {
	for _, p := range to {
		if p != g.me {
			g.sendLocked(p, w.Bytes())
		}
	}
	wire.PutWriter(w)
}

// sendMsgLocked encodes one protocol message and sends it to one process.
func (g *Group) sendMsgLocked(to ids.ProcessID, msg any) {
	w := g.node.encode(msg)
	g.sendLocked(to, w.Bytes())
	wire.PutWriter(w)
}

// sendLocked transmits one encoded protocol message, counting the bytes
// against the group's wire totals.
func (g *Group) sendLocked(to ids.ProcessID, enc []byte) {
	size := uint64(len(enc) - len(g.node.hdr))
	g.stats.BytesSent += size
	g.metrics.bytesSent.Add(size)
	//lint:ok lockblock endpoints are non-blocking by contract (netsim queues, loopback drops); holding g.mu here keeps send order = ingest order
	_ = g.node.out.SendFrame(to, enc) //lint:ok errdrop best-effort: the resend machinery in tick.go recovers lost protocol messages
}

// sendVCLocked snapshots the causal context of a new send into the
// message's inline counter block: a straight copy of the dense delivered
// vector plus the message's own sequence number, with no per-send map or
// heap allocation for typical view sizes.
func (g *Group) sendVCLocked(m *dataMsg, seq uint64) []uint64 {
	n := g.midx.n()
	var vc []uint64
	if n <= maxInlineMembers {
		vc = m.counts[0:n:n]
	} else {
		vc = make([]uint64, n)
	}
	copy(vc, g.delivered)
	vc[g.midx.me] = seq
	return vc
}

// ackSnapshotLocked snapshots the contiguous-received counters (the
// stability acknowledgement vector piggybacked on every message) into the
// second half of the message's inline counter block.
func (g *Group) ackSnapshotLocked(m *dataMsg) []uint64 {
	n := g.midx.n()
	var acks []uint64
	if n <= maxInlineMembers {
		acks = m.counts[maxInlineMembers : maxInlineMembers+n : maxInlineMembers+n]
	} else {
		acks = make([]uint64, n)
	}
	copy(acks, g.recvContig)
	return acks
}

// assignLocked hands the next global sequence number to a message
// (sequencer only). The slot may be created here, ahead of the message.
func (g *Group) assignLocked(pos int, seq uint64) {
	g.assignHigh++
	g.win[pos].Ensure(seq).global = g.assignHigh
	g.ring.set(g.assignHigh, msgRef{pos: pos, seq: seq})
	g.frRecord(flight.EvAssign, pos, seq, g.assignHigh, 0)
}

// assignSnapshotLocked lists every live (un-GCed) ordering decision, in
// global order straight off the ring. Used by the flush protocol only:
// the commit's recovery cut must carry the full table so every surviving
// member can place the unstable messages, however little each one heard.
func (g *Group) assignSnapshotLocked() []assign {
	out := make([]assign, 0, g.ring.live)
	g.ring.Each(func(global uint64, ref *msgRef) {
		if ref.seq != 0 {
			out = append(out, assign{Sender: g.midx.members[ref.pos], Seq: ref.seq, Global: global})
		}
	})
	return out
}

// assignDeltaLocked lists the ordering decisions made since the last
// announcement — globals in (announcedHigh, assignHigh], read straight
// off the ring. Each decision is put on the wire exactly once: followers
// ingest a sender's messages contiguously (losses are repaired by resend,
// and view changes recover the full table through the flush), so the
// first carry is the only one that can ever inform anyone. The carrying
// sequence number (that of m, the message the caller is about to send) is
// recorded in the slot so the decision outlives that message's
// stabilisation. This is the paper's explicit ORDER multicast: new
// decisions only — announcing the whole live table made every message
// O(unstable-window) to encode and decode, which melted the sequencer under
// pipelined load. The list is built in m's inline block, spilling to the
// heap only past maxInlineAssigns decisions.
func (g *Group) assignDeltaLocked(m *dataMsg) []assign {
	if g.assignHigh <= g.announcedHigh {
		return nil
	}
	seq := m.Seq
	out := m.asgn[:0]
	if n := g.assignHigh - g.announcedHigh; n > maxInlineAssigns {
		out = make([]assign, 0, n)
	}
	for global := g.announcedHigh + 1; global <= g.assignHigh; global++ {
		ref := g.ring.Get(global)
		if ref.seq == 0 {
			continue
		}
		out = append(out, assign{Sender: g.midx.members[ref.pos], Seq: ref.seq, Global: global})
		if sl := g.win[ref.pos].At(ref.seq); sl.aseq == 0 {
			sl.aseq = seq
		}
	}
	return out
}

// handleData ingests one inbound data message (mu held): the per-message
// acceptance half, then the post-ingest tail.
func (g *Group) handleData(m *dataMsg) {
	if g.acceptDataLocked(m, true) {
		g.postIngestLocked()
	}
}

// handleBatch unpacks a sender-side batch envelope: every inner message
// is accepted exactly as if it had arrived alone — before any ordering
// decision, so delivery semantics are untouched — and then the
// post-ingest tail runs once for the whole envelope. That single tail
// pass is the receive-side half of the amortisation: one prompt-ack null
// covers the entire batch instead of one per message (block-gating), and
// the simulated ProcessingCost is charged once per envelope.
func (g *Group) handleBatch(b *batchMsg) {
	if g.acceptBatchLocked(b) {
		g.postIngestLocked()
	}
}

// acceptBatchLocked is the acceptance half of handleBatch: every inner
// message is ingested, the simulated ProcessingCost is charged once per
// envelope, and the caller owes a post-ingest tail if anything was
// accepted.
func (g *Group) acceptBatchLocked(b *batchMsg) bool {
	if len(b.Msgs) == 0 || g.state == stateLeft {
		return false
	}
	if g.cfg.ProcessingCost > 0 && g.state != stateJoining {
		time.Sleep(g.cfg.ProcessingCost) //lint:ok lockblock simulated per-envelope processing cost (amortised across the batch); zero in production configs
	}
	accepted := false
	for _, m := range b.Msgs {
		if g.acceptDataLocked(m, false) {
			accepted = true
		}
	}
	return accepted
}

// handleBurst ingests a run of data-carrying messages (data or batch
// envelopes) that were already waiting on the inbound queue, then runs
// the post-ingest tail once for the whole run. This is the receive-side
// twin of handleBatch's amortisation, applied across frames instead of
// within one envelope: when the transport delivers faster than the
// event loop drains — exactly the regime a loaded real-network group
// lives in — one stability compaction, one delivery pass and at most one
// prompt-ack (or sequencer announce) null cover the backlog instead of
// one of each per frame. Acceptance still happens message by message,
// before any ordering decision, so delivery semantics are identical to
// handling each frame alone.
func (g *Group) handleBurst(msgs []any, bytes int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.readClockLocked()
	g.unparkLocked()
	g.stats.BytesReceived += uint64(bytes)
	g.metrics.bytesRecv.Add(uint64(bytes))
	accepted := false
	for _, msg := range msgs {
		switch m := msg.(type) {
		case *dataMsg:
			if g.acceptDataLocked(m, true) {
				accepted = true
			}
		case *batchMsg:
			if g.acceptBatchLocked(m) {
				accepted = true
			}
		}
	}
	if accepted {
		g.postIngestLocked()
	}
	g.noteDepthsLocked()
}

// noteDepthsLocked folds the queue depths into their high-water gauges.
func (g *Group) noteDepthsLocked() {
	g.metrics.pendingHigh.SetMax(int64(g.npending))
	g.metrics.storeHigh.SetMax(int64(g.nstore))
	g.metrics.orderHigh.SetMax(int64(g.ring.live))
}

// acceptDataLocked runs the per-message half of data handling: state and
// view filtering, clock witnessing, ack/assign merging, and
// contiguous-or-stash ingestion. It reports whether the message was
// processed in the normal state (so the post-ingest tail should run).
// Data is only accepted in the normal state: after a member flush-acks,
// anything still in flight from the old view is recovered through the
// commit's cut (or counts as lost with its sender), never ingested
// directly — that is what keeps the cut the authoritative "all or none"
// message set. Traffic of a view not installed here yet is held instead
// (holdEarlyLocked) and accepted once that view installs.
func (g *Group) acceptDataLocked(m *dataMsg, charge bool) bool {
	if g.state == stateLeft {
		return false
	}
	if g.view.Contains(m.Sender) {
		g.lastHeard[m.Sender] = g.clk.t
	}
	if g.state != stateNormal {
		g.holdEarlyLocked(m)
		return false
	}
	if m.ViewSeq != g.view.Seq || m.ViewInstaller != g.view.Installer {
		g.frRecord(flight.EvStaleDrop, int(flight.NoSender), m.Seq, m.Lamport, 0)
		return false // stale or foreign-view traffic
	}
	si := g.midx.posOf(m.Sender)
	if si < 0 {
		g.frRecord(flight.EvStaleDrop, int(flight.NoSender), m.Seq, m.Lamport, 0)
		return false
	}
	if len(m.VC) > g.midx.n() || len(m.Acks) > g.midx.n() {
		return false // corrupt or hostile frame: vectors longer than the view
	}
	m.senderIdx = si
	if g.cfg.LeaseTicks > 0 {
		// Current-view traffic renews the lease bookkeeping: the contact
		// ticks feed the symmetric lease (and the sequencer's own quorum
		// check), and a grant stamped by the view's leader renews the
		// follower's sequencer lease.
		g.lastHeardTick[si] = g.tickCount
		if m.Lease > 0 && si == g.leaderPos {
			g.leaseGrantTick = g.tickCount
			g.leaseBound = m.Lease
		}
	}
	if charge && g.cfg.ProcessingCost > 0 {
		time.Sleep(g.cfg.ProcessingCost) //lint:ok lockblock simulated per-message processing cost (paper's overload experiments); zero in production configs
	}
	g.node.clock.Witness(m.Lamport)
	g.mergeAcksLocked(si, m.Acks)
	g.mergeAssignsLocked(m.Assigns)

	switch {
	case m.Seq <= g.recvContig[si]:
		// Duplicate (resend); acks/assigns already merged above.
		g.frRecord(flight.EvDupDrop, si, m.Seq, m.Lamport, 0)
	case m.Seq == g.recvContig[si]+1:
		g.ingestContiguousLocked(m)
		// Drain any stashed successors.
		for next := g.win[si].Get(m.Seq + 1).m; next != nil; next = g.win[si].Get(next.Seq + 1).m {
			g.ingestContiguousLocked(next)
		}
	default:
		// Out of order: the slot ahead of recvContig is the stash.
		g.frRecord(flight.EvStash, si, m.Seq, m.Lamport, 0)
		g.win[si].Ensure(m.Seq).m = m
	}
	return true
}

// postIngestLocked is the once-per-frame tail of data handling: stability
// compaction, the delivery loop and the prompt acknowledgement.
func (g *Group) postIngestLocked() {
	g.compactStableLocked()
	g.tryDeliverLocked()
	// Prompt acknowledgement: under the total-order protocols, messages
	// still pending after the delivery pass need traffic from us before
	// anyone can deliver them; if our latest send does not already cover
	// them, speak up now (one null acknowledges everything pending).
	// This is the paper's "protocol specific" message exchange.
	if g.state == stateNormal && g.cfg.Order.Total() && g.needAckLocked() {
		g.sendDataLocked(true, nil)
	}
	if g.frontierWaiters > 0 {
		// The symmetric read-index barrier can clear on a heard-past
		// advance alone (a causally-blocked null renews lastStamp without
		// any delivery), so the ingest tail wakes waiters too.
		g.cond.Broadcast()
	}
	g.updateActivityLocked()
}

// needAckLocked reports whether any application message ingested from
// another member is not yet covered by this member's latest send. The
// check must cover delivered messages too: a member that delivered early
// (the sequencer, say) and went quiet would otherwise stall everyone else
// behind the heard-past condition until its next time-silence beat.
func (g *Group) needAckLocked() bool {
	return g.lastStamp[g.midx.me].Less(g.maxAppStamp)
}

// ingestContiguousLocked accepts the next in-sequence message from a
// sender into its window slot — retained and pending from here on —
// advances the ordering bookkeeping and enqueues the message on the
// delivery (or assignment) queue it will be popped from.
func (g *Group) ingestContiguousLocked(m *dataMsg) {
	si := m.senderIdx
	var isNull uint64
	if m.Null {
		isNull = 1
	}
	g.frRecord(flight.EvIngest, si, m.Seq, m.Lamport, isNull)
	g.recvContig[si] = m.Seq
	g.win[si].Ensure(m.Seq).m = m
	g.npending++
	g.nstore++
	if !m.Null {
		g.nappStore++
	}
	if st := m.stamp(); g.lastStamp[si].Less(st) {
		g.lastStamp[si] = st
	}
	if !m.Null && si != g.midx.me && g.maxAppStamp.Less(m.stamp()) {
		g.maxAppStamp = m.stamp()
	}
	g.ackMat[g.midx.me*g.midx.n()+si] = m.Seq
	if g.cfg.Order != OrderSequencer || m.Null {
		// Symmetric and causal delivery pop everything from the stamp
		// heap; under the sequencer order only nulls do (application
		// messages are reached through the global-sequence ring).
		g.deliverQ.push(m)
	} else if g.seqLeader {
		g.assignQ.push(m)
	}
}

// mergeAcksLocked folds a member's received-counters into the matrix row
// of the member at position from.
func (g *Group) mergeAcksLocked(from int, acks []uint64) {
	row := g.ackMat[from*g.midx.n():]
	for s, n := range acks {
		if n > row[s] {
			row[s] = n
		}
	}
}

// mergeAssignsLocked folds sequencer decisions into the windows. It runs
// at accept time, before the contiguity check, so a decision may create
// its slot ahead of its message. One for a collected sequence number
// duplicates a decision already acted on; no other is ever dropped.
func (g *Group) mergeAssignsLocked(as []assign) {
	for _, a := range as {
		pos := g.midx.posOf(a.Sender)
		if pos < 0 || a.Seq <= g.win[pos].Floor() || a.Global == 0 {
			continue
		}
		if sl := g.win[pos].Ensure(a.Seq); sl.global == 0 {
			sl.global = a.Global
			g.ring.set(a.Global, msgRef{pos: pos, seq: a.Seq})
		}
	}
}

// compactStableLocked recomputes per-sender stability and collects the
// windows from the front: a message is released once stable and locally
// delivered, and its slot, with the ordering decision, pops with it. The
// cost is the slots collected, not the slots retained, so it runs after
// every ingested frame and every delivery. The sequencer leader holds a
// released message's decision until a message of ours that announced it
// has been received by everyone — or the others would never learn its
// place in the total order — re-examining the held front on every call.
func (g *Group) compactStableLocked() {
	n := g.midx.n()
	for s := 0; s < n; s++ {
		low := g.ackMat[s]
		for q := 1; q < n; q++ {
			low = min(low, g.ackMat[q*n+s])
		}
		if low > g.stableSeq[s] {
			g.frRecord(flight.EvStable, s, low, 0, 0)
		}
		g.stableSeq[s] = low
	}
	stableMe := g.stableSeq[g.midx.me]
	for s := range g.win {
		w := &g.win[s]
		lo := min(g.stableSeq[s], g.delivered[s])
		for w.rel < lo {
			g.collectVisits++
			w.rel++
			sl := w.At(w.rel)
			g.nstore--
			if !sl.m.Null {
				g.nappStore--
			}
			sl.m = nil
		}
		for w.Floor() < w.rel {
			g.collectVisits++
			if sl := w.At(w.Floor() + 1); sl.global != 0 {
				if g.seqLeader && (sl.aseq == 0 || sl.aseq > stableMe) {
					break
				}
				g.ring.del(sl.global)
			}
			w.PopFront()
		}
	}
	g.ring.compact(g.delGlobal)
}

// causalOKLocked reports whether m's causal context is satisfied.
func (g *Group) causalOKLocked(m *dataMsg) bool {
	si := m.senderIdx
	if m.Seq != g.delivered[si]+1 {
		return false
	}
	for q, n := range m.VC {
		if q == si {
			continue
		}
		if n > g.delivered[q] {
			return false
		}
	}
	return true
}

// tryDeliverLocked delivers every message that has become deliverable
// under the group's ordering mode, in a loop until quiescent. At the
// sequencer it interleaves ordering decisions with deliveries (a remote
// message must be delivered locally before its causal successors can be
// assigned); any decision concerning messages this node did not send is
// announced with an order-carrying null, the paper's explicit ORDER
// multicast.
func (g *Group) tryDeliverLocked() {
	if g.state != stateNormal {
		return
	}
	for {
		if testOrderPreStep != nil {
			testOrderPreStep(g)
		}
		g.sequenceLocked()
		m := g.nextDeliverableLocked()
		if testOrderChoice != nil {
			testOrderChoice(g, m)
		}
		if m == nil {
			if g.seqLeader && g.assignHigh > g.announcedHigh {
				// Decisions about other members' messages are not on the
				// wire yet (our own carry theirs at send time).
				// emitDataLocked advances announcedHigh, so this branch
				// runs at most once per batch of new decisions.
				g.emitDataLocked(true, nil)
				continue // the null itself may now be deliverable
			}
			return
		}
		g.deliverLocked(m)
	}
}

// sequenceLocked is the sequencer's ordering step: assign global sequence
// numbers, in stamp order, to causally-deliverable unassigned application
// messages.
func (g *Group) sequenceLocked() {
	if !g.seqLeader {
		return
	}
	// Pop the waiting application messages in stamp order. Causal
	// readiness cannot change mid-pass (nothing is delivered here), so
	// each causally-deliverable message gets the next global as it is
	// popped — the same stamp-ordered assignment the old full scan made —
	// and the blocked rest go back on the queue for the next pass.
	for g.assignQ.len() > 0 {
		m := g.assignQ.pop()
		if g.win[m.senderIdx].Get(m.Seq).global != 0 {
			continue // assigned while queued (own send, or a merged decision)
		}
		if g.causalOKLocked(m) {
			g.assignLocked(m.senderIdx, m.Seq)
			continue
		}
		g.scratch = append(g.scratch, m)
	}
	g.pushBackLocked(&g.assignQ)
}

// nextDeliverableLocked picks the unique next message to deliver, or nil.
func (g *Group) nextDeliverableLocked() *dataMsg {
	switch g.cfg.Order {
	case OrderCausal:
		return g.popCausalLocked()
	case OrderSymmetric:
		return g.popSymmetricLocked()
	case OrderSequencer:
		return g.popSequencerLocked()
	}
	return nil
}

// popCausalLocked pops the stamp-minimal causally-deliverable pending
// message; blocked messages popped on the way go back on the queue.
func (g *Group) popCausalLocked() *dataMsg {
	var chosen *dataMsg
	for g.deliverQ.len() > 0 {
		m := g.deliverQ.pop()
		if g.causalOKLocked(m) {
			chosen = m
			break
		}
		g.scratch = append(g.scratch, m)
	}
	g.pushBackLocked(&g.deliverQ)
	return chosen
}

// popSymmetricLocked pops the next message under the symmetric total
// order: the stamp-minimal pending message, except that causally-blocked
// nulls are scanned past (they cannot gate the total order).
func (g *Group) popSymmetricLocked() *dataMsg {
	var chosen *dataMsg
	for g.deliverQ.len() > 0 {
		m := g.deliverQ.pop()
		g.scratch = append(g.scratch, m) // provisionally back on the queue
		if !g.causalOKLocked(m) {
			if m.Null {
				continue
			}
			// The stamp-minimal application message waits on a causal
			// predecessor that must arrive first.
			break
		}
		if !m.Null && !g.allHeardPastLocked(m) {
			break // total order blocked until everyone spoke
		}
		chosen = m
		g.scratch = g.scratch[:len(g.scratch)-1] // keep it popped
		break
	}
	g.pushBackLocked(&g.deliverQ)
	return chosen
}

// popSequencerLocked picks the next message under the sequencer total
// order: whichever of (a) the stamp-minimal causally-deliverable null and
// (b) the application message holding the next global sequence number
// comes first in stamp order. (b) is an O(1) ring load; the old code
// re-sorted the whole pending set to find both.
func (g *Group) popSequencerLocked() *dataMsg {
	var next *dataMsg
	if ref := g.ring.Get(g.delGlobal + 1); ref.seq != 0 {
		// Causal readiness implies pending: the sender's next undelivered
		// sequence number cannot sit in the stash past a gap.
		if m := g.win[ref.pos].Get(ref.seq).m; m != nil && g.causalOKLocked(m) && g.allHeardPastLocked(m) {
			// NewTop is block-based: besides the sequencer's ordering
			// decision, delivery requires traffic from every member past
			// the message, which is what keeps all functioning members
			// atomically in step (and what makes group membership costly
			// for far-away members).
			next = m
		}
	}
	var null *dataMsg
	for g.deliverQ.len() > 0 {
		m := g.deliverQ.pop()
		if g.causalOKLocked(m) {
			null = m
			break
		}
		g.scratch = append(g.scratch, m)
	}
	var chosen *dataMsg
	switch {
	case null == nil:
		chosen = next
	case next == nil || null.stamp().Less(next.stamp()):
		chosen = null // nulls bypass the total order
	default:
		g.scratch = append(g.scratch, null) // next wins; the null stays queued
		chosen = next
	}
	g.pushBackLocked(&g.deliverQ)
	return chosen
}

// pendingAppFloorLocked lowers bound to the least stamp of a pending
// application message, if one is lower.
func (g *Group) pendingAppFloorLocked(bound vclock.Stamp) vclock.Stamp {
	for s := range g.win {
		for seq := g.delivered[s] + 1; seq <= g.recvContig[s]; seq++ {
			if m := g.win[s].Get(seq).m; !m.Null && m.stamp().Less(bound) {
				bound = m.stamp()
			}
		}
	}
	return bound
}

// pushBackLocked returns the scratch buffer's messages to a queue and
// clears the buffer (nil-ing entries so it does not pin delivered
// messages for the garbage collector).
func (g *Group) pushBackLocked(q *stampHeap) {
	for i, m := range g.scratch {
		q.push(m)
		g.scratch[i] = nil
	}
	g.scratch = g.scratch[:0]
}

// allHeardPastLocked reports whether every other member has been heard
// from (contiguously) with a stamp greater than m's, so no earlier-stamped
// message can still arrive.
func (g *Group) allHeardPastLocked(m *dataMsg) bool {
	st := m.stamp()
	me, si := g.midx.me, m.senderIdx
	for q := range g.lastStamp {
		if q == me || q == si {
			continue
		}
		if !st.Less(g.lastStamp[q]) {
			return false
		}
	}
	return true
}

// deliverLocked finalises delivery of one message.
func (g *Group) deliverLocked(m *dataMsg) {
	g.npending--
	g.delivered[m.senderIdx] = m.Seq
	global := g.win[m.senderIdx].Get(m.Seq).global
	if !m.Null {
		if global > g.delGlobal {
			g.delGlobal = global
		}
		// Journal B is global+1 so "unordered" (causal mode) stays distinguishable.
		var gplus uint64
		if global != 0 {
			gplus = global + 1
		}
		g.frRecord(flight.EvDeliver, m.senderIdx, m.Seq, m.Lamport, gplus)
		if len(g.delivArena) == 0 {
			g.delivArena = make([]Delivery, deliveryChunk)
		}
		d := &g.delivArena[0]
		g.delivArena = g.delivArena[1:]
		*d = Delivery{
			Sender:  m.Sender,
			Payload: m.Payload,
			Stamp:   m.stamp(),
			ViewSeq: m.ViewSeq,
		}
		g.stats.AppDelivered++
		g.metrics.appDelivered.Inc()
		// The ordering cost of our own multicasts is measurable without
		// clock skew: bornAt is only set on locally-built messages.
		if !m.bornAt.IsZero() {
			g.metrics.deliveryLatency.Observe(g.clk.t.Sub(m.bornAt))
		}
		if g.lastDelivStamp.Less(d.Stamp) {
			g.lastDelivStamp = d.Stamp
		}
		g.pushEventLocked(Event{Type: EventDeliver, Deliver: d}, m.senderIdx, m.Seq, uint32(m.ViewSeq))
	}
	if g.frontierWaiters > 0 {
		g.cond.Broadcast() // a ReadIndex barrier may have been reached
	}
	g.compactStableLocked()
}

// updateActivityLocked recomputes the event-driven activity flag and
// resets suspicion clocks on an idle-to-active transition.
func (g *Group) updateActivityLocked() {
	active := g.activeLocked()
	if active && !g.wasActive {
		for _, p := range g.view.Members {
			g.lastHeard[p] = g.clk.t
		}
	}
	g.wasActive = active
}

// activeLocked reports whether the liveness machinery should be running.
// Unstable nulls do not count: acknowledging an acknowledgement would keep
// an event-driven group heartbeating forever, so quiescence is defined
// over application traffic only (trailing nulls are collected the next
// time the group wakes).
func (g *Group) activeLocked() bool {
	if g.state == stateLeft || g.state == stateJoining {
		return false
	}
	if g.cfg.Liveness == Lively {
		return true
	}
	if g.cfg.LeaseTicks > 0 {
		// Leases renew on the time-silence traffic: an idle event-driven
		// group must keep heartbeating or every member's lease would
		// expire between requests.
		return true
	}
	return g.npending > 0 || g.nappStore > 0 || g.state == stateFlushing || g.fl != nil || g.attention > 0
}

// installViewLocked resets all per-view state and emits the view event.
func (g *Group) installViewLocked(v View) {
	g.view = v.Clone()
	g.servers = v.Servers(nil)
	if v.Seq > g.maxViewSeq {
		g.maxViewSeq = v.Seq
	}
	g.sendSeq = 0
	n := len(v.Members)
	g.midx = buildMemberIndex(g.view.Members, g.me)
	if g.fr.Enabled() {
		names := make([]string, n)
		for i, p := range v.Members {
			names[i] = string(p)
		}
		g.fr.SetView(g.frGroup, uint32(v.Seq), names)
	}
	g.frRecord(flight.EvViewInstall, int(flight.NoSender), 0, uint64(n), uint64(g.cfg.Order))
	g.delivered = make([]uint64, n)
	g.recvContig = make([]uint64, n)
	for i := range g.win {
		g.win[i].reset() // releases the old view's messages, keeps the capacity
	}
	for len(g.win) < n {
		g.win = append(g.win, seqWindow{})
	}
	g.win = g.win[:n]
	g.npending, g.nstore, g.nappStore = 0, 0, 0
	g.lastStamp = make([]vclock.Stamp, n)
	g.ring.reset()
	g.delGlobal, g.assignHigh, g.announcedHigh = 0, 0, 0
	g.ackMat = make([]uint64, n*n)
	g.stableSeq = make([]uint64, n)
	g.maxAppStamp = vclock.Stamp{}
	g.seqLeader = g.cfg.Order == OrderSequencer && g.leaderOf(g.view.Members) == g.me
	// View changes revoke read leases: the grant state resets and the
	// contact ticks reseed to now, so validity has to be re-earned from
	// the new view's own traffic. tickCount and lastDelivStamp survive —
	// the former is the clock itself, the latter is monotone across views.
	g.leaderPos = g.midx.posOf(g.leaderOf(v.Members))
	g.leaseGrantTick = 0
	g.leaseBound = 0
	g.lastHeardTick = make([]uint64, n)
	for i := range g.lastHeardTick {
		g.lastHeardTick[i] = g.tickCount
	}
	g.deliverQ.reset()
	g.assignQ.reset()
	// Any messages still queued for a batch flush belonged to the old
	// view; they are already in that view's store, so the flush protocol
	// recovered (or declared lost) every one of them through the cut.
	g.batchBuf = nil
	now := g.clk.t
	g.lastSentAt = now
	g.lastHeard = make(map[ids.ProcessID]time.Time, len(v.Members))
	g.ackMark = make(map[ids.ProcessID]ackProgress, len(v.Members))
	for _, p := range v.Members {
		g.lastHeard[p] = now
	}
	g.suspects = make(map[ids.ProcessID]bool)
	for p := range g.pendingJoins {
		if v.Contains(p) {
			delete(g.pendingJoins, p)
		}
	}
	for p := range g.pendingLeaves {
		if !v.Contains(p) {
			delete(g.pendingLeaves, p)
		}
	}
	g.stats.ViewsInstalled++
	g.metrics.viewsInstalled.Inc()
	// proposalAt is non-zero iff this installation concludes a membership
	// round this member took part in (founding views install directly).
	if !g.proposalAt.IsZero() {
		g.metrics.viewChange.Observe(g.clk.t.Sub(g.proposalAt))
		g.proposalAt = time.Time{}
	}
	g.curProposal = nil
	g.fl = nil
	g.state = stateNormal
	view := v.Clone()
	g.pushEventLocked(Event{Type: EventView, View: &view}, int(flight.NoSender), 0, uint32(v.Seq))
	g.updateActivityLocked()
	g.unparkLocked()
	g.cond.Broadcast()
	if g.joined != nil {
		close(g.joined)
		g.joined = nil
	}
	g.releaseEarlyDataLocked()

	// Coordinatorship may have moved with this view (e.g. the configured
	// leader just joined): hand any still-pending membership requests to
	// the new coordinator instead of stranding them here until the
	// requesters retry.
	if coord := g.actingCoordinator(); coord != g.me {
		for p, client := range g.pendingJoins {
			g.sendMsgLocked(coord, &joinMsg{Group: g.id, Joiner: p, Client: client})
		}
		g.pendingJoins = make(map[ids.ProcessID]bool)
		for p := range g.pendingLeaves {
			g.sendMsgLocked(coord, &leaveMsg{Group: g.id, Leaver: p})
		}
		g.pendingLeaves = make(map[ids.ProcessID]bool)
	} else if len(g.pendingJoins)+len(g.pendingLeaves) > 0 {
		g.maybeStartFlushLocked()
	}
	g.releaseEarlyProposalLocked()
}

// Leave departs the group: the coordinator is informed so the remaining
// members install a view without us, and the local handle shuts down (no
// handler call survives it; the Events channel closes).
func (g *Group) Leave() error {
	g.mu.Lock()
	if g.state == stateLeft {
		g.mu.Unlock()
		return nil
	}
	g.readClockLocked()
	coord := g.actingCoordinator()
	me := g.me
	// Push any batched messages onto the wire before departing; the
	// remaining members would otherwise only recover them through resends
	// directed at a process that is gone.
	g.flushBatchLocked()
	g.closeLocked(nil)
	g.mu.Unlock()

	if coord != "" && coord != me {
		g.sendMsgLocked(coord, &leaveMsg{Group: g.id, Leaver: me})
	}
	g.node.dropGroup(g.id)
	g.closeDispatch()
	return nil
}

// closeLocked transitions to the terminal state and deregisters the
// group's wheel deadline. The dispatch queue is shut separately
// (closeDispatch), outside g.mu: it may have to wait out an in-flight
// drain, and the handler that drain runs may call into the group.
func (g *Group) closeLocked(err error) {
	if g.state == stateLeft {
		return
	}
	g.state = stateLeft
	g.joinErr = err
	g.early, g.earlyProp = nil, nil
	if g.joined != nil {
		close(g.joined)
		g.joined = nil
	}
	if !g.parked {
		g.parked = true
		g.node.wheel.cancel(&g.wentry)
		g.metrics.groupsActive.Add(-1)
	} else {
		g.metrics.groupsIdle.Add(-1)
	}
	g.cond.Broadcast()
}

// handle dispatches one decoded inbound message; size is the wire size of
// the frame it arrived in.
func (g *Group) handle(from ids.ProcessID, msg any, size int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.readClockLocked()
	g.unparkLocked()
	g.stats.BytesReceived += uint64(size)
	g.metrics.bytesRecv.Add(uint64(size))
	defer g.noteDepthsLocked()
	switch m := msg.(type) {
	case *dataMsg:
		g.handleData(m)
	case *batchMsg:
		g.handleBatch(m)
	case *joinMsg:
		g.handleJoin(m)
	case *leaveMsg:
		g.handleLeave(m)
	case *suspectMsg:
		g.handleSuspect(m)
	case *proposeMsg:
		g.handlePropose(m)
	case *flushAckMsg:
		g.handleFlushAck(m)
	case *commitMsg:
		g.handleCommit(m)
	}
}
