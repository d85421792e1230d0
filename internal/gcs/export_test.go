package gcs

import (
	"fmt"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/transport"
)

// NewNodeWorkers is NewNodeObs with a dispatch pool of the given size (0
// selects the default), for the tests that pin per-group delivery order
// across concurrent workers on any host.
func NewNodeWorkers(ep transport.Endpoint, o *obs.Obs, workers int) *Node {
	if workers <= 0 {
		workers = dispatchWorkers()
	}
	return newNode(ep, o, workers)
}

// Coordinator returns the current view's membership coordinator.
func (g *Group) Coordinator() ids.ProcessID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaderOf(g.view.Members)
}

// Sequencer returns the member ordering messages under OrderSequencer.
func (g *Group) Sequencer() ids.ProcessID { return g.Coordinator() }

// Coordinator returns the member responsible for membership changes: the
// lowest process identifier in the view.
func (v View) Coordinator() ids.ProcessID { return ids.MinProcess(v.Members) }

// Sequencer returns the member that orders messages under OrderSequencer:
// like the coordinator, the lowest identifier, which lets the roles of
// sequencer, request manager and primary coincide as in the paper's
// optimised passive-replication configuration (§4.2).
func (v View) Sequencer() ids.ProcessID { return ids.MinProcess(v.Members) }

// SameIdentity reports whether two views are the same installed view.
func (v View) SameIdentity(o View) bool { return v.Seq == o.Seq && v.Installer == o.Installer }

// DebugDump renders the group's internal delivery state for diagnostics.
func (g *Group) DebugDump() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := fmt.Sprintf("%s@%s state=%d view=%v delGlobal=%d assignHigh=%d pending=%d store=%d order=%d\n",
		g.id, g.me, g.state, g.view.Members, g.delGlobal, g.assignHigh, g.npending, g.nstore, g.ring.live)
	if g.midx == nil {
		return s // joining: no per-view state yet
	}
	stash := make([]int, len(g.win)) // messages held out of order, per position
	for q := range g.win {
		g.win[q].Each(func(seq uint64, sl *seqSlot) {
			if sl.m != nil && seq > g.recvContig[q] {
				stash[q]++
			}
		})
	}
	s += fmt.Sprintf("  delivered=%v\n  recvContig=%v\n  stash=%v\n", g.delivered, g.recvContig, stash)
	byG := make([]string, 0, 8)
	for global := g.delGlobal + 1; global <= g.delGlobal+4; global++ {
		ref := g.ring.Get(global)
		if ref.seq == 0 {
			byG = append(byG, fmt.Sprintf("g%d=?", global))
			continue
		}
		id := ids.MsgID{Sender: g.midx.members[ref.pos], Seq: ref.seq}
		m := g.win[ref.pos].Get(ref.seq).m
		if m == nil || ref.seq <= g.delivered[ref.pos] {
			byG = append(byG, fmt.Sprintf("g%d=%v(not-pending,del=%d)", global, id, g.delivered[ref.pos]))
			continue
		}
		byG = append(byG, fmt.Sprintf("g%d=%v causal=%v heard=%v vc=%v", global, id, g.causalOKLocked(m), g.allHeardPastLocked(m), m.VC))
	}
	s += "  next globals: " + fmt.Sprint(byG) + "\n"
	for q, st := range g.lastStamp {
		s += fmt.Sprintf("  lastStamp[%s]=%v\n", g.midx.members[q], st)
	}
	return s
}

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

// Obs returns the node's observability domain.
func (n *Node) Obs() *obs.Obs { return n.obs }

// decodeMessage parses one GCS payload, returning one of the message
// struct pointers. One-shot entry point: interning and reader reuse need
// a long-lived decoder (the node's receive loop owns one).
func decodeMessage(payload []byte) (any, error) {
	var d decoder
	return d.decode(payload)
}
