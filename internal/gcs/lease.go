package gcs

import (
	"context"
	"errors"

	"newtop/internal/ids"
	"newtop/internal/obs/flight"
	"newtop/internal/vclock"
)

// This file implements time-bounded read leases (cfg.LeaseTicks) and the
// linearizable read-index handshake. The lease is the authority under
// which a member may serve reads from its locally delivered prefix
// without entering the ordering layer:
//
//   - Sequencer protocol: the sequencer stamps a grant (dataMsg.Lease) on
//     every message it emits while it can itself hear a majority of the
//     view; a member accepting current-view traffic from the sequencer
//     renews its lease. The grant rides the existing ack/ORDER traffic —
//     time-silence nulls renew leases on an otherwise idle group.
//   - Symmetric protocol: there is no distinguished grantor; the
//     advancing stability frontier is the lease. The lease holds while
//     every fellow member has been heard from within the bound (the same
//     condition under which the decentralised order keeps moving).
//
// Every expiry decision compares tick counts of the group's own timer
// (Group.tickCount), never the wall clock, so lease behaviour is
// deterministic under the detclock discipline: a partitioned member stops
// serving within LeaseTicks ticks of losing its grantor, which is the
// staleness bound the read path advertises. Leases are revoked at every
// view installation (installViewLocked resets the grant) and suspended
// while a flush reshapes the membership (state != stateNormal).

// Lease and read-index errors.
var (
	// ErrNoLease is returned when the group has no lease machinery
	// (cfg.LeaseTicks == 0) or is not in a state to hold one.
	ErrNoLease = errors.New("gcs: read leases not enabled")
	// ErrLeaseExpired is returned when the member's read lease has
	// expired (grantor silent past the bound, or a flush in progress).
	ErrLeaseExpired = errors.New("gcs: read lease expired")
	// ErrNotSequencer is returned by ReadIndex and MulticastAsSequencer
	// on a member that is not the view's sequencer: linearizable reads,
	// and multicasts ordered at their send, need the ordering authority.
	ErrNotSequencer = errors.New("gcs: not the sequencer")
)

// LeaseStatus is a diagnostic snapshot of the local read lease.
type LeaseStatus struct {
	Valid bool
	// AgeTicks is how many ticks ago the lease was last renewed (for the
	// sequencer itself and under the symmetric protocol: the age of the
	// oldest contact the validity rests on).
	AgeTicks uint64
	// BoundTicks is the configured lease duration.
	BoundTicks uint64
	// ViewSeq is the view the lease belongs to.
	ViewSeq ids.ViewSeq
}

// LeaseStatus reports the current lease without journalling a read.
func (g *Group) LeaseStatus() LeaseStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	return LeaseStatus{
		Valid:      g.leaseValidLocked(),
		AgeTicks:   g.leaseAgeLocked(),
		BoundTicks: uint64(g.cfg.LeaseTicks),
		ViewSeq:    g.view.Seq,
	}
}

// LeaseRead validates the local read lease for one leased read and
// journals it. maxStale, when non-zero, tightens the configured bound for
// this read only. On success it returns the lease age and the effective
// bound in ticks (age <= bound — the invariant the journal check
// verifies); on failure the caller must not serve from local state.
func (g *Group) LeaseRead(maxStale uint64) (age, bound uint64, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.LeaseTicks <= 0 {
		return 0, 0, ErrNoLease
	}
	if !g.leaseValidLocked() {
		g.metrics.leaseRejects.Inc()
		return 0, 0, ErrLeaseExpired
	}
	bound = uint64(g.cfg.LeaseTicks)
	if maxStale > 0 && maxStale < bound {
		bound = maxStale
	}
	age = g.leaseAgeLocked()
	if age > bound {
		// The lease is live but older than the caller's tighter bound.
		g.metrics.leaseRejects.Inc()
		return age, bound, ErrLeaseExpired
	}
	g.metrics.localReads.Inc()
	g.readClockLocked()
	g.frRecord(flight.EvLocalRead, g.midx.me, 0, age, bound)
	return age, bound, nil
}

// leaseValidLocked reports whether this member currently holds a read
// lease. All comparisons are between tick counts.
func (g *Group) leaseValidLocked() bool {
	if g.cfg.LeaseTicks <= 0 || g.state != stateNormal || g.midx == nil {
		return false
	}
	bound := uint64(g.cfg.LeaseTicks)
	if g.cfg.Order == OrderSequencer {
		if g.seqLeader {
			return g.quorumHeardLocked(bound)
		}
		if g.leaseGrantTick == 0 {
			return false // no grant accepted in this view yet
		}
		if g.leaseBound > 0 && g.leaseBound < bound {
			bound = g.leaseBound
		}
		return g.tickCount-g.leaseGrantTick <= bound
	}
	// Symmetric: valid while every fellow member spoke within the bound.
	for pos := range g.lastHeardTick {
		if pos == g.midx.me {
			continue
		}
		if g.tickCount-g.lastHeardTick[pos] > bound {
			return false
		}
	}
	return true
}

// leaseAgeLocked is the staleness the current lease rests on, in ticks:
// for a sequencer-granted lease, ticks since the last accepted grant; for
// the sequencer itself and the symmetric protocol, ticks since the oldest
// member contact the validity is built from. Zero for a singleton view.
func (g *Group) leaseAgeLocked() uint64 {
	if g.midx == nil {
		return 0
	}
	if g.cfg.Order == OrderSequencer && !g.seqLeader {
		if g.leaseGrantTick == 0 {
			return 0
		}
		return g.tickCount - g.leaseGrantTick
	}
	var age uint64
	for pos := range g.lastHeardTick {
		if pos == g.midx.me {
			continue
		}
		if a := g.tickCount - g.lastHeardTick[pos]; a > age {
			age = a
		}
	}
	return age
}

// quorumHeardLocked reports whether a majority of the view (this member
// included) has been heard from within the window — the sequencer's own
// authority to grant and to serve: a deposed minority sequencer loses it
// within one bound of the partition.
func (g *Group) quorumHeardLocked(bound uint64) bool {
	heard := 1 // self
	for pos := range g.lastHeardTick {
		if pos == g.midx.me {
			continue
		}
		if g.tickCount-g.lastHeardTick[pos] <= bound {
			heard++
		}
	}
	return heard >= ids.Majority(len(g.view.Members))
}

// ReadIndex is the linearizable read barrier: it returns once every
// application message ordered before the call has been delivered locally,
// together with the stamp of the newest such delivery (the caller must
// not serve until its execution stream has consumed that stamp). It is
// the cheap stability-frontier handshake of the read path — no ordered
// multicast of the read itself:
//
//   - Sequencer protocol (sequencer only): capture the highest assigned
//     global sequence and wait for the delivered frontier to reach it,
//     under the sequencer's own quorum lease.
//   - Symmetric protocol: multicast one null marker and wait for it to
//     clear the total order; everything stamped before the marker has
//     then been delivered here.
//
// A view change during the wait revalidates and retries in the new view
// (the view's cut carries every delivery the old frontier promised).
func (g *Group) ReadIndex(ctx context.Context) (vclock.Stamp, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if err := g.waitNormalLocked(ctx); err != nil {
			return vclock.Stamp{}, err
		}
		if g.cfg.LeaseTicks <= 0 {
			return vclock.Stamp{}, ErrNoLease
		}
		g.readClockLocked()
		view := g.view.Seq
		var err error
		if g.cfg.Order == OrderSequencer {
			err = g.readIndexSequencerLocked(ctx, view)
		} else {
			err = g.readIndexSymmetricLocked(ctx, view)
		}
		if err != nil {
			return vclock.Stamp{}, err
		}
		if g.state == stateNormal && g.view.Seq == view {
			return g.lastDelivStamp, nil
		}
		// The membership changed under the wait: start over in the new
		// view (waitNormalLocked parks through any in-progress flush).
	}
}

// readIndexSequencerLocked runs the sequencer-side frontier wait for one
// view; the caller retries on a view change.
func (g *Group) readIndexSequencerLocked(ctx context.Context, view ids.ViewSeq) error {
	if !g.seqLeader {
		return ErrNotSequencer
	}
	if !g.quorumHeardLocked(uint64(g.cfg.LeaseTicks)) {
		g.metrics.leaseRejects.Inc()
		return ErrLeaseExpired
	}
	target := g.assignHigh
	g.frRecord(flight.EvFrontierWait, g.midx.me, 0, target, g.delGlobal)
	return g.waitFrontierLocked(ctx, view, func() bool { return g.delGlobal >= target })
}

// readIndexSymmetricLocked emits a null marker and waits for the
// decentralised order's delivery frontier to pass the marker's stamp.
// The marker itself clears pending early (nulls bypass the total order),
// so the barrier is on the stamp: once every member has been heard
// contiguously past it and nothing earlier-stamped is still pending,
// every application message ordered before the read has been delivered
// here — contiguous ingestion means no earlier-stamped message can still
// be in flight from a member already heard past the stamp.
func (g *Group) readIndexSymmetricLocked(ctx context.Context, view ids.ViewSeq) error {
	if !g.leaseValidLocked() {
		g.metrics.leaseRejects.Inc()
		return ErrLeaseExpired
	}
	g.emitDataLocked(true, nil)
	st := g.lastStamp[g.midx.me] // the marker's stamp
	g.frRecord(flight.EvFrontierWait, g.midx.me, g.sendSeq, st.Time, 0)
	g.tryDeliverLocked()
	return g.waitFrontierLocked(ctx, view, func() bool { return g.frontierPassedLocked(st) })
}

// frontierPassedLocked reports whether the delivery frontier has passed
// stamp st: every fellow member has been heard contiguously past st and
// no application message stamped before st is still awaiting delivery.
func (g *Group) frontierPassedLocked(st vclock.Stamp) bool {
	for q := range g.lastStamp {
		if q == g.midx.me {
			continue
		}
		if !st.Less(g.lastStamp[q]) {
			return false
		}
	}
	return !g.pendingAppFloorLocked(st).Less(st)
}

// waitFrontierLocked parks on the group's condition variable until done()
// holds, the view changes, the member leaves, or ctx ends. deliverLocked
// broadcasts while frontierWaiters is positive, so the steady-state
// delivery path pays one predictable branch for the read machinery.
func (g *Group) waitFrontierLocked(ctx context.Context, view ids.ViewSeq, done func() bool) error {
	g.frontierWaiters++
	defer func() { g.frontierWaiters-- }()
	var watch chan struct{}
	for g.state == stateNormal && g.view.Seq == view && !done() {
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
	if g.state == stateLeft {
		return ErrLeft
	}
	return nil
}
