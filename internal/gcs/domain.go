package gcs

import (
	"sync"

	"newtop/internal/ids"
	"newtop/internal/vclock"
)

// Total-order domains extend the per-group total order across overlapping
// groups — NewTop's distinguishing capability ("ensuring that total order
// delivery is preserved even for multi-group objects", §2.1, [5]). Groups
// created with the same non-empty GroupConfig.Domain on a node form a
// domain: the node delivers the union of their application messages in
// global (Lamport stamp) order. Because stamps are totally ordered and
// every domain member applies the same rule, any two nodes sharing two
// domain groups agree on the relative order of messages across them.
//
// The mechanics: each group continuously publishes its *frontier* — a
// stamp below which it can neither deliver nor receive anything new
// (the minimum of every member's last heard stamp and of its pending
// application messages). A domain-gated message is deliverable only when
// its stamp lies below the frontier of every sibling group, so no sibling
// can later produce a smaller-stamped delivery. Progress requires domain
// groups to be Lively (or continuously trafficked): the time-silence
// nulls advance the frontiers, exactly the paper's observation that
// multi-group ordering costs protocol traffic.
//
// Deliveries in a domain carry a contiguous DomainSeq so a consumer can
// merge the groups' event streams exactly (see MergeDomain). During a
// view change the flush force-delivers the cut without domain gating;
// domain order is therefore guaranteed between messages sent in stable
// views, matching the per-group guarantee's granularity.

// domainState is the per-node bookkeeping of one total-order domain.
type domainState struct {
	mu        sync.Mutex
	frontiers map[ids.GroupID]vclock.Stamp
	members   map[ids.GroupID]*Group
	seq       uint64
}

// domainRegistry lives on the Node.
type domainRegistry struct {
	mu      sync.Mutex
	domains map[string]*domainState
}

func newDomainRegistry() *domainRegistry {
	return &domainRegistry{domains: make(map[string]*domainState)}
}

func (r *domainRegistry) state(name string) *domainState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.domains[name]
	if !ok {
		st = &domainState{
			frontiers: make(map[ids.GroupID]vclock.Stamp),
			members:   make(map[ids.GroupID]*Group),
		}
		r.domains[name] = st
	}
	return st
}

// register adds a group to its domain. Sibling wake-ups are delivered as
// coalesced dispatch kicks (Group.kickDispatch), not channels.
func (st *domainState) register(gid ids.GroupID, g *Group) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.frontiers[gid] = vclock.Stamp{}
	st.members[gid] = g
}

// unregister removes a departing group and wakes the siblings (their gate
// no longer considers it).
func (st *domainState) unregister(gid ids.GroupID) {
	st.mu.Lock()
	delete(st.frontiers, gid)
	delete(st.members, gid)
	sibs := st.snapshotMembersLocked(gid)
	st.mu.Unlock()
	for _, s := range sibs {
		s.kickDispatch()
	}
}

// publish records a group's new frontier; if it advanced, the siblings are
// poked to re-run their delivery checks.
func (st *domainState) publish(gid ids.GroupID, frontier vclock.Stamp) {
	st.mu.Lock()
	old, ok := st.frontiers[gid]
	if !ok {
		st.mu.Unlock()
		return // already unregistered
	}
	if old == frontier {
		st.mu.Unlock()
		return
	}
	// Regressions happen at view installations (per-view ordering state
	// resets); they must reach the registry immediately or the siblings
	// would clear deliveries against a frontier that no longer holds.
	st.frontiers[gid] = frontier
	advanced := old.Less(frontier)
	var sibs []*Group
	if advanced {
		sibs = st.snapshotMembersLocked(gid)
	}
	st.mu.Unlock()
	for _, s := range sibs {
		s.kickDispatch()
	}
}

func (st *domainState) snapshotMembersLocked(except ids.GroupID) []*Group {
	out := make([]*Group, 0, len(st.members))
	for gid, g := range st.members {
		if gid != except {
			out = append(out, g)
		}
	}
	return out
}

// clear reports whether a message with the given stamp may be delivered in
// group gid: every sibling's frontier must lie strictly past the stamp.
func (st *domainState) clear(gid ids.GroupID, stamp vclock.Stamp) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for other, frontier := range st.frontiers {
		if other == gid {
			continue
		}
		if !stamp.Less(frontier) {
			return false
		}
	}
	return true
}

// nextSeq hands out the node-local contiguous domain sequence number.
func (st *domainState) nextSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	return st.seq
}

// frontierLocked computes this group's current frontier: the smallest
// stamp at which something could still be delivered here — the minimum of
// every other member's contiguously-heard stamp and of the pending
// application messages. An empty or single-member view has an unbounded
// frontier (no constraint on siblings).
func (g *Group) frontierLocked() vclock.Stamp {
	unbounded := vclock.Stamp{Time: ^uint64(0), Sender: ids.ProcessID("\xff")}
	if g.state != stateNormal {
		return vclock.Stamp{} // reconfiguring: hold the siblings back
	}
	frontier := unbounded
	for q, st := range g.lastStamp {
		if q == g.midx.me {
			continue
		}
		if st.Less(frontier) {
			frontier = st
		}
	}
	return g.pendingAppFloorLocked(frontier)
}

// publishFrontierLocked pushes the current frontier to the domain.
func (g *Group) publishFrontierLocked() {
	if g.domain == nil {
		return
	}
	g.domain.publish(g.id, g.frontierLocked())
}

// MergeDomain merges the event streams of a node's domain groups into one
// channel whose deliveries appear in the domain's global total order
// (contiguous DomainSeq). View events are forwarded as they arrive,
// interleaved best-effort. The returned channel closes when every input
// group's stream has closed. All groups must belong to the same domain of
// the same node.
func MergeDomain(groups ...*Group) <-chan Event {
	out := make(chan Event)
	var wg sync.WaitGroup
	merged := make(chan Event)
	for _, g := range groups {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range g.Events() {
				merged <- ev
			}
		}()
	}
	go func() {
		wg.Wait()
		close(merged)
	}()
	go func() {
		defer close(out)
		next := uint64(1)
		hold := make(map[uint64]Event)
		for ev := range merged {
			if ev.Type != EventDeliver || ev.Deliver.DomainSeq == 0 {
				out <- ev
				continue
			}
			hold[ev.Deliver.DomainSeq] = ev
			for {
				e, ok := hold[next]
				if !ok {
					break
				}
				delete(hold, next)
				next++
				out <- e
			}
		}
		// Drain any tail (gaps cannot occur: DomainSeq is contiguous).
		for len(hold) > 0 {
			e, ok := hold[next]
			if !ok {
				return
			}
			delete(hold, next)
			next++
			out <- e
		}
	}()
	return out
}
