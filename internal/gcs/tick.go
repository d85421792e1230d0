package gcs

import (
	"time"

	"newtop/internal/obs/flight"
)

// This file implements the group's timer-driven machinery: the
// time-silence mechanism ("I am alive" nulls), the failure suspector,
// unacknowledged-message retransmission and flush timeouts. For lively
// groups the machinery runs for the group's whole lifetime; for
// event-driven groups only while undelivered or unstable messages exist
// (paper §3) — and an event-driven group with nothing left to do *parks*:
// it deregisters from the node's shared timer wheel entirely, costing
// zero scheduled work until the next inbound frame, local send, or
// Attend/Suspect call unparks it.

// instant is one reading of the node's clock in the two forms a group
// stamps with: a time.Time for the liveness bookkeeping (lastHeard,
// lastSentAt, bornAt) and latency samples, and a journal timestamp.
type instant struct {
	t  time.Time
	at int64
}

// now reads the node's clock. A group reads it once as it enters its
// critical section for a received batch or an API call (readClockLocked),
// and everything the section stamps — its journal events, lastHeard,
// bornAt and lastSentAt, the latency samples — shares that reading. The reading is taken after the section's cause (a popped
// batch, a caller's call), so no stamp runs ahead of its cause, and it is
// at most the section's length early: a lastHeard that errs early makes
// a member suspected sooner, never later.
func (n *Node) now() instant {
	at := flight.Now()
	return instant{t: flight.Time(at), at: at}
}

// readClockLocked takes the current critical section's clock reading.
func (g *Group) readClockLocked() { g.clk = g.node.now() }

// tick runs one beat of the timer machinery and re-arms (or parks) the
// group's wheel entry. It is called by the wheel goroutine with the
// sweep's shared wall-clock reading — the clock is read once per sweep,
// not once per group per tick — and that reading is the section's clock
// unless an earlier section's is later: a group's stamps never go back.
func (g *Group) tick(now time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if at := flight.Stamp(now); at > g.clk.at {
		g.clk = instant{t: now, at: at}
	}
	// The tick count is the group's deterministic clock: every read-lease
	// expiry decision is a comparison of tick counts (see lease.go), so it
	// advances unconditionally, before any early return. (It freezes while
	// parked, but only groups without leases or lively liveness ever
	// park.)
	g.tickCount++
	if g.state == stateLeft {
		return // closeLocked already canceled the entry; do not re-arm
	}
	if g.state == stateJoining {
		g.rearmLocked()
		return
	}
	g.updateActivityLocked()
	active := g.wasActive

	// Batching: the tick is the batch window. Anything the application
	// queued since the last tick goes out now as one envelope.
	if g.state == stateNormal {
		g.flushBatchLocked()
	}

	// Time-silence: stay lively so peers neither block the symmetric
	// order on us nor suspect us. Under the symmetric protocol a member
	// holding undelivered application messages acks promptly (every tick
	// instead of every time-silence period): the decentralised order can
	// only advance once everyone has spoken past the message — this is
	// the "protocol specific message" traffic of §1, and the reason the
	// paper finds closed groups expensive under symmetric ordering.
	if g.state == stateNormal && active && len(g.view.Members) > 1 {
		quiet := now.Sub(g.lastSentAt)
		// The prompt ack is normally sent at ingestion; this is the
		// fallback for acks that raced a state change. It must use the
		// same "not yet covered" condition — re-acking every tick while a
		// message waits on the total order would melt large groups.
		promptAck := g.cfg.Order.Total() && g.needAckLocked() && quiet >= g.cfg.Tick
		if quiet >= g.cfg.TimeSilence || promptAck {
			g.sendDataLocked(true, nil)
		}
	}

	// Retransmission of unacknowledged messages (only while the group is
	// active: an idle event-driven group neither resends nor expects
	// acks; anything genuinely missing is recovered when traffic or a
	// membership change wakes the machinery).
	if g.state == stateNormal && active {
		g.resendLocked(now)
	}

	// Failure suspicion (only while no flush is reshaping the membership;
	// members are legitimately silent mid-flush).
	if g.state == stateNormal && active {
		for _, q := range g.view.Members {
			if q == g.me || g.suspects[q] {
				continue
			}
			if now.Sub(g.lastHeard[q]) > g.cfg.SuspectTimeout {
				g.suspects[q] = true
				if coord := g.actingCoordinator(); coord != g.me {
					g.sendMsgLocked(coord, &suspectMsg{Group: g.id, Accused: q})
				}
			}
		}
	}

	// Coordinator flush timeout: exclude silent members and re-propose.
	if g.fl != nil && now.Sub(g.fl.startedAt) > g.cfg.FlushTimeout {
		for _, p := range g.fl.members {
			if p == g.me {
				continue
			}
			if _, ok := g.fl.acks[p]; ok {
				continue
			}
			if g.view.Contains(p) {
				g.suspects[p] = true
			}
			delete(g.pendingJoins, p)
		}
		g.fl = nil
		g.curProposal = nil
	} else if g.fl != nil && now.Sub(g.fl.sentAt) >= g.cfg.Resend {
		g.reproposeLocked(now)
	}

	// Participant flush timeout: the proposer died before committing.
	if g.state == stateFlushing && g.fl == nil && g.curProposal != nil &&
		now.Sub(g.proposalAt) > 2*g.cfg.FlushTimeout {
		if p := g.curProposal.Proposer; p != g.me && g.view.Contains(p) {
			g.suspects[p] = true
		}
		g.curProposal = nil
	}

	g.maybeStartFlushLocked()

	// Read-lease transitions: journal the edges (valid↔expired) so the
	// flight recorder shows exactly when a member gained or lost the
	// authority to serve local reads. The decision itself is pure tick
	// arithmetic; nothing here touches the wall clock.
	if g.cfg.LeaseTicks > 0 {
		valid := g.leaseValidLocked()
		if valid != g.leaseWasValid {
			if valid {
				g.metrics.leaseGrants.Inc()
				g.frRecord(flight.EvLeaseGrant, g.midx.me, 0, g.leaseAgeLocked(), uint64(g.cfg.LeaseTicks))
			} else {
				g.metrics.leaseExpiries.Inc()
				g.frRecord(flight.EvLeaseExpire, g.midx.me, 0, g.leaseAgeLocked(), uint64(g.cfg.LeaseTicks))
			}
			g.leaseWasValid = valid
		}
	}

	if g.canParkLocked() {
		g.parkLocked()
		return
	}
	g.rearmLocked()
}

// rearmLocked schedules the next tick on the shared wheel. The entry was
// just popped by the wheel sweep (or is being created), so scheduling
// never races a pending expiry.
func (g *Group) rearmLocked() {
	g.node.wheel.schedule(&g.wentry, g.cfg.Tick)
}

// canParkLocked reports whether an event-driven group has nothing left
// for the timer machinery to do: no undelivered or unstable messages, no
// membership round, batch residue, read-barrier waiter or outstanding
// attention — and no configuration (lease, lively liveness) that needs a
// continuous beat. Parked groups hold no wheel entry at all.
func (g *Group) canParkLocked() bool {
	if g.cfg.Liveness != EventDriven || g.cfg.LeaseTicks > 0 {
		return false
	}
	if g.state != stateNormal || g.activeLocked() {
		return false
	}
	return g.fl == nil && g.curProposal == nil &&
		len(g.batchBuf) == 0 && g.frontierWaiters == 0 &&
		len(g.suspects) == 0 &&
		len(g.pendingJoins) == 0 && len(g.pendingLeaves) == 0
}

// parkLocked drops the group from the wheel (the firing sweep already
// popped the entry, so there is nothing to cancel).
func (g *Group) parkLocked() {
	if g.parked {
		return
	}
	g.parked = true
	g.metrics.groupsActive.Add(-1)
	g.metrics.groupsIdle.Add(1)
}

// unparkLocked re-registers a parked group on the wheel. Called from
// every entry point that can create timer work: inbound frames, local
// sends, Attend, Suspect and view installations.
func (g *Group) unparkLocked() {
	if !g.parked || g.state == stateLeft {
		return
	}
	g.parked = false
	g.metrics.groupsIdle.Add(-1)
	g.metrics.groupsActive.Add(1)
	g.node.wheel.schedule(&g.wentry, g.cfg.Tick)
}

// ackProgress tracks, per peer, the last acknowledgement level observed
// and when; a resend fires only when the level has not moved for a full
// resend window, so messages merely in flight are never duplicated.
type ackProgress struct {
	known uint64
	at    time.Time
}

// resendLocked retransmits our messages that some member has failed to
// acknowledge for longer than the resend window.
func (g *Group) resendLocked(now time.Time) {
	if g.sendSeq == 0 {
		return
	}
	n := g.midx.n()
	for qi, q := range g.view.Members {
		if q == g.me {
			continue
		}
		known := g.ackMat[qi*n+g.midx.me]
		if known >= g.sendSeq {
			delete(g.ackMark, q)
			continue
		}
		mark, ok := g.ackMark[q]
		if !ok || known > mark.known {
			g.ackMark[q] = ackProgress{known: known, at: now}
			continue
		}
		if now.Sub(mark.at) < g.cfg.Resend {
			continue
		}
		g.ackMark[q] = ackProgress{known: known, at: now}
		// Go-back-N with a bounded burst: the receiver ingests
		// contiguously, so resending the lowest unacknowledged prefix is
		// what unblocks it; flooding the whole backlog at once would add
		// congestion to whatever caused the loss.
		const resendBurst = 32
		end := g.sendSeq
		if known+resendBurst < end {
			end = known + resendBurst
		}
		g.frRecord(flight.EvResend, qi, known+1, end, g.sendSeq)
		for seq := known + 1; seq <= end; seq++ {
			g.stats.Resent++
			g.metrics.resent.Inc()
			if m := g.win[g.midx.me].Get(seq).m; m != nil {
				g.sendMsgLocked(q, m)
			}
		}
	}
}
