package gcs

import (
	"cmp"
	"slices"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs/flight"
	"newtop/internal/wire"
)

// This file implements the membership machinery: joins, leaves, suspicion
// handling and the coordinator-driven two-phase flush that gives the group
// virtually synchronous view changes. During a flush every member stops
// sending, ships its unstable messages to the coordinator, and the
// coordinator's commit carries the union (the "cut"): every message any
// survivor holds is delivered by all survivors before the new view is
// installed, which is the paper's atomicity guarantee — all functioning
// members deliver a message, or none do.

// handleJoin processes a join request (mu held). Non-coordinators forward
// it; the acting coordinator queues the joiner for the next view.
func (g *Group) handleJoin(m *joinMsg) {
	if g.state == stateLeft {
		return
	}
	if g.state == stateJoining {
		// We are not installed yet; park the request — view installation
		// forwards parked requests to the acting coordinator.
		g.pendingJoins[m.Joiner] = true
		return
	}
	coord := g.actingCoordinator()
	if coord != g.me {
		g.sendMsgLocked(coord, m)
		return
	}
	if g.view.Contains(m.Joiner) || g.pendingJoins[m.Joiner] {
		return
	}
	g.pendingJoins[m.Joiner] = true
	g.maybeStartFlushLocked()
}

// handleLeave processes a graceful leave announcement (mu held).
func (g *Group) handleLeave(m *leaveMsg) {
	if g.state == stateLeft {
		return
	}
	if g.state == stateJoining {
		g.pendingLeaves[m.Leaver] = true
		return
	}
	coord := g.actingCoordinator()
	if coord != g.me {
		g.sendMsgLocked(coord, m)
		return
	}
	if !g.view.Contains(m.Leaver) || g.pendingLeaves[m.Leaver] {
		return
	}
	g.pendingLeaves[m.Leaver] = true
	g.maybeStartFlushLocked()
}

// handleSuspect processes a failure report (mu held). Only the acting
// coordinator acts on reports; everyone else relies on its own suspector.
func (g *Group) handleSuspect(m *suspectMsg) {
	if g.state == stateJoining || g.state == stateLeft {
		return
	}
	if g.actingCoordinator() != g.me {
		return
	}
	if m.Accused == g.me || !g.view.Contains(m.Accused) || g.suspects[m.Accused] {
		return
	}
	g.suspects[m.Accused] = true
	g.maybeStartFlushLocked()
}

// maybeStartFlushLocked begins a membership round if this member is the
// acting coordinator and there is a change to make (or a stuck flush to
// supersede).
func (g *Group) maybeStartFlushLocked() {
	if g.state != stateNormal && g.state != stateFlushing {
		return
	}
	if g.fl != nil || g.actingCoordinator() != g.me {
		return
	}
	target := make([]ids.ProcessID, 0, len(g.view.Members)+len(g.pendingJoins))
	for _, p := range g.view.Members {
		if !g.suspects[p] && !g.pendingLeaves[p] {
			target = append(target, p)
		}
	}
	for p := range g.pendingJoins {
		target = append(target, p)
	}
	target = ids.SortProcesses(target)
	if !ids.ContainsProcess(target, g.me) {
		return // we are leaving; nothing to coordinate
	}
	unchanged := len(target) == len(g.view.Members)
	if unchanged {
		for i, p := range target {
			if g.view.Members[i] != p {
				unchanged = false
				break
			}
		}
	}
	if unchanged && g.state == stateNormal {
		return
	}

	newSeq := g.maxViewSeq + 1
	g.maxViewSeq = newSeq
	prop := &proposeMsg{Group: g.id, NewSeq: newSeq, Proposer: g.me, Members: target}
	g.fl = &flushCoord{
		seq:       newSeq,
		members:   target,
		prop:      prop,
		acks:      make(map[ids.ProcessID]*flushAckMsg, len(target)),
		startedAt: g.clk.t,
	}
	g.fl.sentAt = g.fl.startedAt
	g.state = stateFlushing
	g.curProposal = prop
	g.proposalAt = g.fl.startedAt
	g.fr.RecordAt(g.clk.at, flight.Event{Type: flight.EvFlushPropose, Proc: g.frProc, Group: g.frGroup,
		Sender: flight.NoSender, View: uint32(newSeq), A: uint64(len(target))})

	g.sendToLocked(target, g.node.encode(prop))
	// Self-ack with our own unstable state.
	g.acceptFlushAckLocked(g.makeFlushAckLocked(prop))
}

// reproposeLocked resends the round's proposal to every member whose ack is
// still missing (the tick calls it once per Resend until FlushTimeout). A
// proposal can reach a member before the commit that puts its proposer in
// that member's view, which drops it then, and a full transport queue can
// drop it outright; handlePropose re-acks a proposal it already acked, so a
// resend costs nothing but the frame.
func (g *Group) reproposeLocked(now time.Time) {
	g.fl.sentAt = now
	w := g.node.encode(g.fl.prop)
	for _, p := range g.fl.members {
		if _, acked := g.fl.acks[p]; !acked && p != g.me {
			g.sendLocked(p, w.Bytes())
		}
	}
	wire.PutWriter(w)
}

// makeFlushAckLocked snapshots this member's unstable state for a flush.
func (g *Group) makeFlushAckLocked(p *proposeMsg) *flushAckMsg {
	ack := &flushAckMsg{
		Group:    g.id,
		NewSeq:   p.NewSeq,
		Proposer: p.Proposer,
		From:     g.me,
		Joining:  g.state == stateJoining,
	}
	if ack.Joining {
		return ack
	}
	// Positions follow the sorted membership: sender-then-sequence order.
	ack.Unstable = make([]*dataMsg, 0, g.nstore)
	for s := range g.win {
		for seq := g.win[s].rel + 1; seq <= g.recvContig[s]; seq++ {
			ack.Unstable = append(ack.Unstable, g.win[s].Get(seq).m)
		}
	}
	ack.Assigns = g.assignSnapshotLocked()
	g.fr.RecordAt(g.clk.at, flight.Event{Type: flight.EvFlushAck, Proc: g.frProc, Group: g.frGroup,
		Sender: flight.NoSender, View: uint32(p.NewSeq), A: uint64(len(ack.Unstable))})
	return ack
}

// handlePropose processes a view proposal (mu held).
func (g *Group) handlePropose(p *proposeMsg) {
	if g.state == stateLeft {
		return
	}
	if !ids.ContainsProcess(p.Members, g.me) {
		return // we have been excluded; our own suspector reshapes our world
	}
	// Proposals must come from a member of our current view (joiners have
	// no view yet and trust any proposal that includes them). Competing
	// proposals are arbitrated by the (seq, proposer) preference below.
	if g.state != stateJoining {
		if !g.view.Contains(p.Proposer) {
			g.holdEarlyProposalLocked(p)
			return
		}
		if p.NewSeq <= g.view.Seq {
			return
		}
	}
	if cur := g.curProposal; cur != nil {
		switch {
		case cur.NewSeq == p.NewSeq && cur.Proposer == p.Proposer:
			// Retransmitted proposal: fall through and re-ack.
		case cur.NewSeq > p.NewSeq:
			return
		case cur.NewSeq == p.NewSeq && cur.Proposer.Less(p.Proposer):
			return // keep the smaller proposer on a tie
		}
	}
	if p.NewSeq > g.maxViewSeq {
		g.maxViewSeq = p.NewSeq
	}
	// Abandon our own competing round if theirs wins.
	if g.fl != nil && (p.NewSeq > g.fl.seq || (p.NewSeq == g.fl.seq && p.Proposer.Less(g.me))) {
		g.fl = nil
	}
	g.lastHeard[p.Proposer] = g.clk.t
	g.curProposal = p
	g.proposalAt = g.clk.t
	if g.state == stateNormal {
		g.state = stateFlushing
	}
	ack := g.makeFlushAckLocked(p)
	if p.Proposer == g.me {
		g.acceptFlushAckLocked(ack)
		return
	}
	g.sendMsgLocked(p.Proposer, ack)
}

// handleFlushAck processes one member's flush acknowledgement at the
// coordinator (mu held).
func (g *Group) handleFlushAck(a *flushAckMsg) {
	if g.fl == nil || a.Proposer != g.me || a.NewSeq != g.fl.seq {
		return
	}
	if !ids.ContainsProcess(g.fl.members, a.From) {
		return
	}
	g.lastHeard[a.From] = g.clk.t
	g.acceptFlushAckLocked(a)
}

// acceptFlushAckLocked records an ack and commits when the round is
// complete.
func (g *Group) acceptFlushAckLocked(a *flushAckMsg) {
	if g.fl == nil {
		return
	}
	g.fl.acks[a.From] = a
	if len(g.fl.acks) < len(g.fl.members) {
		return
	}
	g.commitFlushLocked()
}

// commitFlushLocked builds the cut from all acks and installs the view.
func (g *Group) commitFlushLocked() {
	fl := g.fl
	// Cut and table are unions over the acks: concatenate, sort, drop the
	// duplicates (copies of a decision carry the same global, so they sort
	// next to each other).
	var cut []*dataMsg
	var assigns []assign
	for _, ack := range fl.acks {
		for _, m := range ack.Unstable {
			if m.ViewSeq == g.view.Seq && m.ViewInstaller == g.view.Installer {
				cut = append(cut, m)
			}
		}
		assigns = append(assigns, ack.Assigns...)
	}
	slices.SortFunc(cut, func(a, b *dataMsg) int {
		return cmp.Or(cmp.Compare(a.Sender, b.Sender), cmp.Compare(a.Seq, b.Seq))
	})
	cut = slices.CompactFunc(cut, func(a, b *dataMsg) bool { return a.Sender == b.Sender && a.Seq == b.Seq })
	slices.SortFunc(assigns, func(a, b assign) int {
		return cmp.Or(cmp.Compare(a.Global, b.Global), cmp.Compare(a.Sender, b.Sender), cmp.Compare(a.Seq, b.Seq))
	})
	commit := &commitMsg{
		Group:    g.id,
		NewSeq:   fl.seq,
		Proposer: g.me,
		Members:  fl.members,
		Order:    g.cfg.Order,
		Liveness: g.cfg.Liveness,
		Leader:   g.cfg.Leader,
		Cut:      cut,
		Assigns:  slices.Compact(assigns),
	}

	g.sendToLocked(fl.members, g.node.encode(commit))
	g.applyCommitLocked(commit)
}

// handleCommit processes a view commit (mu held).
func (g *Group) handleCommit(c *commitMsg) {
	if g.state == stateLeft {
		return
	}
	if !ids.ContainsProcess(c.Members, g.me) {
		return
	}
	if g.state != stateJoining && !g.view.Contains(c.Proposer) {
		return
	}
	if g.state == stateJoining {
		if c.Order != g.cfg.Order || c.Liveness != g.cfg.Liveness || c.Leader != g.cfg.Leader {
			g.closeLocked(ErrConfigMismatch)
			return
		}
	} else if c.NewSeq <= g.view.Seq {
		return
	}
	g.lastHeard[c.Proposer] = g.clk.t
	g.applyCommitLocked(c)
}

// applyCommitLocked delivers the cut (all-or-none atomicity) and installs
// the new view. Joiners skip the cut: old-view messages belong to members
// of the old view only.
func (g *Group) applyCommitLocked(c *commitMsg) {
	g.fr.RecordAt(g.clk.at, flight.Event{Type: flight.EvFlushCommit, Proc: g.frProc, Group: g.frGroup,
		Sender: flight.NoSender, View: uint32(c.NewSeq), A: uint64(len(c.Cut))})
	if g.state != stateJoining {
		g.mergeAssignsLocked(c.Assigns)
		g.deliverCutLocked(c.Cut, c.Assigns)
	}
	g.installViewLocked(View{Seq: c.NewSeq, Installer: c.Proposer, Members: c.Members})
}

// earlyHoldLimit bounds the data messages a member holds for a view it has
// not installed yet. The hold only has to bridge the gap between a view's
// first traffic and its commit reaching this member, a few frames in
// practice; past the bound, messages are dropped and the sender's resend
// delivers them, as it did before there was a hold.
const earlyHoldLimit = 256

// holdEarlyLocked keeps a data message stamped with a later view than the
// installed one, which a joining or flushing member receives when a member
// that has already installed the next view (its coordinator, say) sends in
// it before this member's commit has arrived. Dropping it would cost a full
// Resend before the sender repairs the gap. Old-view traffic is not held:
// after a flush ack the cut is the authority on it.
func (g *Group) holdEarlyLocked(m *dataMsg) {
	if m.ViewSeq > g.view.Seq && len(g.early) < earlyHoldLimit {
		g.early = append(g.early, m)
	}
}

// holdEarlyProposalLocked keeps a proposal from outside the view of a
// flushing member: its proposer installed the view this member is about to
// install, and proposed the next one before this member's commit arrived.
// Once the commit puts the proposer in the view, the proposal is handled as
// if it had just arrived, so the coordinator's resend (reproposeLocked) is
// needed only when the proposal or the commit is lost.
func (g *Group) holdEarlyProposalLocked(p *proposeMsg) {
	if g.state == stateFlushing && p.NewSeq > g.view.Seq+1 &&
		(g.earlyProp == nil || g.earlyProp.NewSeq <= p.NewSeq) {
		g.earlyProp = p
	}
}

// releaseEarlyDataLocked ingests the held messages of the view just
// installed and drops the rest, which belonged to a view that did not
// install here. Arrival order is each sender's send order up to loss, and
// acceptDataLocked stashes whatever a loss put out of order, so the
// replay keeps per-sender order.
func (g *Group) releaseEarlyDataLocked() {
	if len(g.early) == 0 {
		return
	}
	early := g.early
	g.early = nil
	accepted := false
	for _, m := range early {
		if m.ViewSeq == g.view.Seq && m.ViewInstaller == g.view.Installer && g.acceptDataLocked(m, false) {
			accepted = true
		}
	}
	if accepted {
		g.postIngestLocked()
	}
}

// releaseEarlyProposalLocked hands a held proposal to handlePropose, which
// drops it if it is no longer ahead of the installed view.
func (g *Group) releaseEarlyProposalLocked() {
	if p := g.earlyProp; p != nil {
		g.earlyProp = nil
		g.handlePropose(p)
	}
}

// deliverCutLocked force-delivers the undelivered messages of the cut in a
// deterministic, causality- and order-respecting sequence: sequencer-
// ordered messages first (by global sequence), everything else by stamp.
// Pending messages outside the cut are discarded — they were received by
// no surviving ack and count as "delivered by none".
func (g *Group) deliverCutLocked(cut []*dataMsg, assigns []assign) {
	// When concurrent membership rounds raced, a cut can name senders
	// outside the locally installed view: those have no delivered floor to
	// advance and no window, so their decisions come from the commit's table.
	type cutMsg struct {
		m      *dataMsg
		pos    int
		global uint64 // 0: unordered (nulls never carry assignments)
	}
	todo := make([]cutMsg, 0, len(cut))
	for _, m := range cut {
		c := cutMsg{m: m, pos: g.midx.posOf(m.Sender)}
		if c.pos >= 0 {
			if m.Seq <= g.delivered[c.pos] {
				continue
			}
			c.global = g.win[c.pos].Get(m.Seq).global
		} else if i := slices.IndexFunc(assigns, func(a assign) bool { return a.Sender == m.Sender && a.Seq == m.Seq }); i >= 0 {
			c.global = assigns[i].Global
		}
		todo = append(todo, c)
	}
	// Sequencer-ordered messages first, by global (0-1 wraps an unordered
	// message past every global); everything else by stamp.
	slices.SortFunc(todo, func(a, b cutMsg) int {
		return cmp.Or(cmp.Compare(a.global-1, b.global-1),
			cmp.Compare(a.m.Lamport, b.m.Lamport), cmp.Compare(a.m.Sender, b.m.Sender))
	})
	for _, c := range todo {
		m := c.m
		if c.pos >= 0 && m.Seq > g.delivered[c.pos] {
			g.delivered[c.pos] = m.Seq
		}
		if !m.Null {
			g.frRecord(flight.EvCutDeliver, c.pos, m.Seq, m.Lamport, 0)
			g.stats.AppDelivered++
			g.stats.CutDelivered++
			g.metrics.appDelivered.Inc()
			g.metrics.cutDelivered.Inc()
			g.pushEventLocked(Event{Type: EventDeliver, Deliver: &Delivery{
				Sender:  m.Sender,
				Payload: m.Payload,
				Stamp:   m.stamp(),
				ViewSeq: m.ViewSeq,
			}}, c.pos, m.Seq, uint32(m.ViewSeq))
		}
	}
}
