// Package gcs implements the NewTop group communication service: virtually
// synchronous group membership with coordinator-driven flush, reliable
// FIFO/causal multicast with stability tracking, and two interchangeable
// causality-preserving total-order protocols — symmetric (decentralised,
// Lamport-clock merge driven by time-silence null traffic) and asymmetric
// (sequencer-based) — selectable per group, with overlapping-group support
// (a node may belong to any number of groups, sharing one Lamport clock so
// causality is preserved across groups, paper fig. 7).
package gcs

import (
	"fmt"
	"time"

	"newtop/internal/ids"
)

// OrderMode selects the delivery ordering guarantee of a group.
type OrderMode int

const (
	// OrderCausal delivers messages in causal order only.
	OrderCausal OrderMode = iota + 1
	// OrderSymmetric delivers in causality-preserving total order using the
	// decentralised protocol: all members merge by (Lamport time, sender)
	// and progress is driven by the time-silence null traffic. Best when
	// all members multicast regularly (peer groups).
	OrderSymmetric
	// OrderSequencer delivers in causality-preserving total order using the
	// asymmetric protocol: the lowest-ID member of the current view
	// sequences all messages. Best for request-reply style groups.
	OrderSequencer
)

// String implements fmt.Stringer.
func (o OrderMode) String() string {
	switch o {
	case OrderCausal:
		return "causal"
	case OrderSymmetric:
		return "symmetric"
	case OrderSequencer:
		return "sequencer"
	default:
		return fmt.Sprintf("OrderMode(%d)", int(o))
	}
}

// Liveness selects when the time-silence and failure-suspicion machinery
// runs (paper §3).
type Liveness int

const (
	// Lively keeps time-silence heartbeats and failure suspicion active
	// for the whole lifetime of the group (peer/conference groups).
	Lively Liveness = iota + 1
	// EventDriven activates the machinery only while undelivered or
	// unstable messages exist, shutting it down once everything is
	// delivered and stable (request-reply groups).
	EventDriven
)

// String implements fmt.Stringer.
func (l Liveness) String() string {
	switch l {
	case Lively:
		return "lively"
	case EventDriven:
		return "event-driven"
	default:
		return fmt.Sprintf("Liveness(%d)", int(l))
	}
}

// GroupConfig fixes the behaviour of one group. Every member must use an
// identical configuration; Join verifies this against the view it is
// granted.
type GroupConfig struct {
	// Order is the delivery guarantee; the default is OrderSymmetric.
	Order OrderMode
	// Leader optionally pins the coordinator/sequencer role to one
	// process: whenever that process is in the view it takes the role,
	// otherwise the lowest identifier does. This is how the paper's
	// optimised configuration makes the roles of sequencer, request
	// manager and primary coincide on one member (§4.2).
	Leader ids.ProcessID
	// Liveness selects lively or event-driven time-silence; the default
	// is Lively.
	Liveness Liveness
	// TimeSilence is how long a member may stay silent before its NewTop
	// layer emits an "I am alive" null message.
	TimeSilence time.Duration
	// SuspectTimeout is how long a member may remain unheard-from (while
	// the suspector is active) before it is suspected to have failed. It
	// should comfortably exceed TimeSilence plus the worst network delay.
	SuspectTimeout time.Duration
	// Resend is how long a message may remain unacknowledged by some
	// member before it is retransmitted to that member.
	Resend time.Duration
	// FlushTimeout is how long the coordinator waits for flush acks
	// before excluding silent members and re-proposing.
	FlushTimeout time.Duration
	// Tick is the period of the group's internal timer; it bounds the
	// granularity of all the durations above.
	Tick time.Duration
	// ProcessingCost models the NewTop service object's per-message
	// processing (queue management, ordering checks, the per-reply thread
	// creation the paper describes in fig. 9) as simulated CPU time
	// charged once per data message sent and once per data message
	// received. The evaluation harness calibrates it so a single NewTop
	// invocation costs ~2.5x a raw ORB call, as measured in the paper;
	// leave zero outside simulations. With Batch enabled the cost is
	// charged once per wire envelope instead of once per message — the
	// amortisation batching exists to buy.
	ProcessingCost time.Duration
	// Batch enables sender-side multicast batching: application messages
	// queued within the same tick window are coalesced into one batch
	// envelope on the wire, of at most batchLimit messages (a full buffer
	// flushes without waiting for the tick). Batches are unpacked at the
	// receiver before ordering, so every delivery guarantee (causal,
	// symmetric, asymmetric, view synchrony) is untouched; protocol nulls
	// flush the buffer immediately so liveness and acknowledgement timing
	// keep their unbatched promptness. Batching is sender-local: members
	// of one group may disagree on it.
	Batch bool
	// LeaseTicks enables time-bounded read leases: while a member holds a
	// valid lease it may serve reads from its delivered prefix without
	// entering the ordering layer, and a partitioned member's lease
	// expires after LeaseTicks ticks of the group's own timer, so it can
	// never serve past its staleness bound. Under the sequencer protocol
	// the sequencer stamps a grant on every message it emits (the grant
	// piggybacks on the existing ack/ORDER traffic — there is no separate
	// lease message); under the symmetric protocol the advancing
	// stability frontier is the grantor: the lease holds while every
	// fellow member has been heard from within the bound. Leases are
	// revoked at every view change and while a flush is in progress.
	// Requires a total-order protocol. LeaseTicks*Tick should comfortably
	// exceed TimeSilence so renewals outpace expiry; a group with leases
	// enabled keeps its liveness machinery running even when event-driven
	// (renewals ride the time-silence traffic). Zero disables leases.
	LeaseTicks int
}

// Defaults for the evaluation profile's time scale.
const (
	defaultTimeSilence = 25 * time.Millisecond
	defaultSuspect     = 250 * time.Millisecond
	defaultResend      = 60 * time.Millisecond
	defaultFlush       = 400 * time.Millisecond
	defaultTick        = 5 * time.Millisecond
)

// withDefaults fills unset fields.
func (c GroupConfig) withDefaults() GroupConfig {
	if c.Order == 0 {
		c.Order = OrderSymmetric
	}
	if c.Liveness == 0 {
		c.Liveness = Lively
	}
	if c.TimeSilence <= 0 {
		c.TimeSilence = defaultTimeSilence
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = defaultSuspect
	}
	if c.Resend <= 0 {
		c.Resend = defaultResend
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = defaultFlush
	}
	if c.Tick <= 0 {
		c.Tick = defaultTick
	}
	return c
}

// batchLimit bounds one batch envelope when Batch is enabled.
const batchLimit = 64

// validate checks the lease/order combination.
func (c GroupConfig) validate() error {
	if c.LeaseTicks > 0 && !c.Order.Total() {
		return fmt.Errorf("gcs: read leases require a total-order protocol, not %v", c.Order)
	}
	return nil
}

// Total reports whether the mode is one of the total-order protocols.
func (o OrderMode) Total() bool { return o == OrderSymmetric || o == OrderSequencer }
