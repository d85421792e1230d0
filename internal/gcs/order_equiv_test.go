package gcs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

// Delivery-order equivalence property tests.
//
// The indexed delivery machinery (stamp heaps, the global-sequence ring,
// dense per-view counters) replaced an algorithm that re-collected and
// re-sorted the whole pending set on every delivery attempt. These tests
// pin the two to each other: an oracle re-implementation of the old
// scan+sort runs inside the delivery loop via the testOrderPreStep /
// testOrderChoice hooks and must agree with the indexed implementation on
// EVERY ordering decision every group makes — under concurrent senders,
// message loss, sender-side batching and view changes.

// orderOracle collects violations and per-group sequencing predictions.
type orderOracle struct {
	mu         sync.Mutex
	violations []string
	expect     map[*Group]assignExpect
	step       map[*Group]uint64
}

type assignExpect struct {
	checked bool        // this step was sampled for verification
	base    uint64      // nextGlobal before the sequencing step
	ids     []ids.MsgID // messages the old algorithm would assign, in order
}

// shouldCheck bounds the oracle's own cost: the scan+sort replay is
// O(pending · log pending) under g.mu, and a pipelined sender can pile up
// thousands of pending nulls at a slow receiver — replaying every step
// there would make the oracle itself the bottleneck (slower ingestion →
// more pending → slower replay, a harness-induced livelock under -race).
// Small states, where the ordering edge cases live, are always checked;
// large ones are sampled deterministically.
func (o *orderOracle) shouldCheck(g *Group) bool {
	o.mu.Lock()
	o.step[g]++
	tick := o.step[g]
	o.mu.Unlock()
	return g.npending <= 64 || tick%16 == 0
}

// The oracle reads the group's pending set and ordering table through
// these two accessors only, so its scan-and-sort reference logic stays
// independent of how the group stores them (the sequence windows).

// oraclePending lists the pending set: ingested, not yet delivered.
func oraclePending(g *Group) []*dataMsg {
	out := make([]*dataMsg, 0, g.npending)
	for s := range g.win {
		for seq := g.delivered[s] + 1; seq <= g.recvContig[s]; seq++ {
			out = append(out, g.win[s].get(seq).m)
		}
	}
	return out
}

// oracleGlobal returns the global position decided for a message, if any.
func oracleGlobal(g *Group, id ids.MsgID) (uint64, bool) {
	pos := g.midx.posOf(id.Sender)
	if pos < 0 {
		return 0, false
	}
	global := g.win[pos].get(id.Seq).global
	return global, global != 0
}

// oracleIsPending reports whether m itself is in the pending set.
func oracleIsPending(g *Group, m *dataMsg) bool {
	si := m.senderIdx
	return m.Seq > g.delivered[si] && m.Seq <= g.recvContig[si] && g.win[si].get(m.Seq).m == m
}

func (m *dataMsg) msgID() ids.MsgID { return ids.MsgID{Sender: m.Sender, Seq: m.Seq} }

func (o *orderOracle) violatef(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.violations) < 8 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// install wires the oracle into the delivery loop. Must run before any
// node exists; the returned teardown must run after every node closed.
func (o *orderOracle) install() func() {
	o.expect = make(map[*Group]assignExpect)
	o.step = make(map[*Group]uint64)
	testOrderPreStep = o.preStep
	testOrderChoice = o.choice
	return func() {
		testOrderPreStep = nil
		testOrderChoice = nil
	}
}

// preStep runs with g.mu held at the top of every delivery-loop
// iteration: it checks the queue/ring invariants and predicts, with the
// old algorithm, which assignments the sequencing step is about to make.
func (o *orderOracle) preStep(g *Group) {
	if !o.shouldCheck(g) {
		o.mu.Lock()
		o.expect[g] = assignExpect{checked: false}
		o.mu.Unlock()
		return
	}
	o.checkQueuesLocked(g)
	if !g.seqLeader {
		o.mu.Lock()
		o.expect[g] = assignExpect{checked: true}
		o.mu.Unlock()
		return
	}
	cands := make([]*dataMsg, 0, g.npending)
	for _, m := range oraclePending(g) {
		if m.Null {
			continue
		}
		if _, ok := oracleGlobal(g, m.msgID()); ok {
			continue
		}
		cands = append(cands, m)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].stamp().Less(cands[j].stamp()) })
	exp := assignExpect{checked: true, base: g.assignHigh + 1}
	for _, m := range cands {
		if g.causalOKLocked(m) {
			exp.ids = append(exp.ids, m.msgID())
		}
	}
	o.mu.Lock()
	o.expect[g] = exp
	o.mu.Unlock()
}

// choice runs with g.mu held right after the indexed implementation
// picked its next deliverable (or nil): it replays the old scan+sort on
// the same state and demands the identical decision, and checks the
// sequencing prediction made in preStep.
func (o *orderOracle) choice(g *Group, chosen *dataMsg) {
	o.mu.Lock()
	exp, ok := o.expect[g]
	delete(o.expect, g)
	o.mu.Unlock()
	if !ok || !exp.checked {
		return
	}
	if want := oracleNextDeliverable(g); want != chosen {
		o.violatef("%s order=%v: indexed chose %s, scan+sort oracle wants %s",
			g.me, g.cfg.Order, describeMsg(chosen), describeMsg(want))
	}
	if !g.seqLeader {
		return
	}
	for i, id := range exp.ids {
		if got, found := oracleGlobal(g, id); !found || got != exp.base+uint64(i) {
			o.violatef("%s: oracle expected %v assigned global %d, got %d (found=%v)",
				g.me, id, exp.base+uint64(i), got, found)
		}
	}
	if want := exp.base + uint64(len(exp.ids)); g.assignHigh+1 != want {
		o.violatef("%s: next global %d after sequencing, oracle expects %d", g.me, g.assignHigh+1, want)
	}
}

// checkQueuesLocked verifies the delivery queues and the ring against the
// state they index: same membership, no strays, nothing missing.
func (o *orderOracle) checkQueuesLocked(g *Group) {
	pending := oraclePending(g)
	if len(pending) != g.npending {
		o.violatef("%s: pending counter %d, windows hold %d", g.me, g.npending, len(pending))
	}
	switch g.cfg.Order {
	case OrderCausal, OrderSymmetric:
		if g.deliverQ.len() != len(pending) {
			o.violatef("%s: deliverQ holds %d messages, pending holds %d", g.me, g.deliverQ.len(), len(pending))
			return
		}
		for _, m := range g.deliverQ.ms {
			if !oracleIsPending(g, m) {
				o.violatef("%s: deliverQ holds %v which is not pending", g.me, m.msgID())
			}
		}
	case OrderSequencer:
		nulls := 0
		for _, m := range pending {
			if m.Null {
				nulls++
			}
		}
		if g.deliverQ.len() != nulls {
			o.violatef("%s: deliverQ holds %d nulls, pending holds %d", g.me, g.deliverQ.len(), nulls)
		}
		for _, m := range g.deliverQ.ms {
			if !m.Null || !oracleIsPending(g, m) {
				o.violatef("%s: deliverQ holds stray %v", g.me, m.msgID())
			}
		}
		if g.seqLeader {
			queued := make(map[ids.MsgID]bool, g.assignQ.len())
			for _, m := range g.assignQ.ms {
				if m.Null || !oracleIsPending(g, m) {
					o.violatef("%s: assignQ holds stray %v", g.me, m.msgID())
				}
				queued[m.msgID()] = true
			}
			for _, m := range pending {
				if m.Null {
					continue
				}
				id := m.msgID()
				if _, assigned := oracleGlobal(g, id); !assigned && !queued[id] {
					o.violatef("%s: unassigned pending %v missing from assignQ", g.me, id)
				}
			}
		}
	}
	live := 0
	g.ring.each(func(global uint64, ref *msgRef) {
		if ref.seq == 0 {
			return
		}
		live++
		if got := g.win[ref.pos].get(ref.seq).global; got != global {
			o.violatef("%s: ring slot g%d=%d#%d disagrees with its window slot (%d)", g.me, global, ref.pos, ref.seq, got)
		}
	})
	if live != g.ring.live {
		o.violatef("%s: ring counts %d live decisions, holds %d", g.me, g.ring.live, live)
	}
}

// oracleNextDeliverable is the pre-index algorithm, verbatim: collect the
// whole pending set, sort by stamp, scan.
func oracleNextDeliverable(g *Group) *dataMsg {
	candidates := oraclePending(g)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].stamp().Less(candidates[j].stamp()) })

	switch g.cfg.Order {
	case OrderCausal:
		for _, m := range candidates {
			if g.causalOKLocked(m) {
				return m
			}
		}
	case OrderSymmetric:
		for _, m := range candidates {
			if !g.causalOKLocked(m) {
				if m.Null {
					continue
				}
				return nil
			}
			if m.Null {
				return m
			}
			if !g.allHeardPastLocked(m) {
				return nil
			}
			if g.domain != nil && !g.domain.clear(g.id, m.stamp()) {
				return nil
			}
			return m
		}
	case OrderSequencer:
		for _, m := range candidates {
			if !g.causalOKLocked(m) {
				continue
			}
			if m.Null {
				return m
			}
			if global, ok := oracleGlobal(g, m.msgID()); ok && global == g.delGlobal+1 &&
				g.allHeardPastLocked(m) {
				return m
			}
		}
	}
	return nil
}

func describeMsg(m *dataMsg) string {
	if m == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s#%d(null=%v,stamp=%v)", m.Sender, m.Seq, m.Null, m.stamp())
}

// equivOpts parameterises one equivalence scenario.
type equivOpts struct {
	order     OrderMode
	members   int
	perSender int     // app messages each sending member multicasts per phase
	loss      float64 // packet loss probability after the view forms
	batch     bool
	leaveMid  bool // member[members-1] leaves between two send phases
	workers   int  // dispatch pool size per node; 0 selects the default
}

// runOrderEquiv drives a full group under the oracle and returns the
// per-member application delivery sequences.
func runOrderEquiv(t *testing.T, opts equivOpts) [][]string {
	t.Helper()
	oracle := &orderOracle{}
	teardown := oracle.install()

	sim := netsim.New(netsim.FastProfile(), 7)
	net := memnet.New(sim)
	cfg := GroupConfig{
		Order:          opts.order,
		Batch:          opts.batch,
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: time.Minute,
		Resend:         25 * time.Millisecond,
		FlushTimeout:   time.Second,
		Tick:           2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var nodes []*Node
	var groups []*Group
	for i := 0; i < opts.members; i++ {
		ep, err := net.Endpoint(ids.ProcessID(fmt.Sprintf("m%d", i)), netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		n := NewNodeWorkers(ep, obs.Default(), opts.workers)
		nodes = append(nodes, n)
		var g *Group
		if i == 0 {
			g, err = n.Create("equiv", cfg)
		} else {
			g, err = n.Join(ctx, "equiv", nodes[0].ID(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	for _, g := range groups {
		for len(g.View().Members) != opts.members {
			time.Sleep(time.Millisecond)
		}
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
		teardown()
		if len(oracle.violations) > 0 {
			for _, v := range oracle.violations {
				t.Error("oracle violation: " + v)
			}
		}
	}()

	// Collect application deliveries per member.
	seqs := make([][]string, opts.members)
	var seqMu sync.Mutex
	var collectors sync.WaitGroup
	for i, g := range groups {
		collectors.Add(1)
		go func(i int, g *Group) {
			defer collectors.Done()
			for ev := range g.Events() {
				if ev.Type == EventDeliver {
					seqMu.Lock()
					seqs[i] = append(seqs[i], string(ev.Deliver.Payload))
					seqMu.Unlock()
				}
			}
		}(i, g)
	}

	if opts.loss > 0 {
		sim.SetLoss(opts.loss)
	}

	senders := opts.members - 1 // the last member only listens (and may leave)
	sendPhase := func(phase int, sendGroups []*Group) {
		var wg sync.WaitGroup
		for si, g := range sendGroups {
			wg.Add(1)
			go func(si int, g *Group) {
				defer wg.Done()
				for k := 0; k < opts.perSender; k++ {
					payload := fmt.Sprintf("p%d-s%d#%d", phase, si, k)
					if err := g.Multicast(ctx, []byte(payload)); err != nil {
						t.Errorf("multicast %s: %v", payload, err)
						return
					}
				}
			}(si, g)
		}
		wg.Wait()
	}
	waitDelivered := func(memberIdx, want int) {
		deadline := time.Now().Add(45 * time.Second)
		for {
			seqMu.Lock()
			got := len(seqs[memberIdx])
			seqMu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				all := ""
				for _, g := range groups {
					all += g.DebugDump() + "\n"
				}
				t.Fatalf("member %d delivered %d of %d:\n%s", memberIdx, got, want, all)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	total := senders * opts.perSender
	sendPhase(0, groups[:senders])
	for i := range groups {
		waitDelivered(i, total)
	}

	if opts.leaveMid {
		leaver := groups[opts.members-1]
		if err := leaver.Leave(); err != nil {
			t.Fatal(err)
		}
		// Wait for the survivors to install the shrunk view.
		for _, g := range groups[:senders] {
			for len(g.View().Members) != opts.members-1 {
				time.Sleep(time.Millisecond)
			}
		}
		sendPhase(1, groups[:senders])
		total *= 2
		for i := 0; i < senders; i++ {
			waitDelivered(i, total)
		}
	}

	for _, n := range nodes {
		_ = n.Close()
	}
	collectors.Wait()
	return seqs
}

// assertSameOrder demands byte-identical delivery sequences across the
// given members (the total-order guarantee).
func assertSameOrder(t *testing.T, seqs [][]string, members int) {
	t.Helper()
	for i := 1; i < members; i++ {
		if len(seqs[i]) != len(seqs[0]) {
			t.Fatalf("member %d delivered %d messages, member 0 delivered %d", i, len(seqs[i]), len(seqs[0]))
		}
		for k := range seqs[0] {
			if seqs[i][k] != seqs[0][k] {
				t.Fatalf("delivery order diverges at %d: member 0 saw %q, member %d saw %q",
					k, seqs[0][k], i, seqs[i][k])
			}
		}
	}
}

func TestOrderEquivCausal(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderCausal, members: 3, perSender: 120})
	for i, s := range seqs {
		if len(s) != 240 {
			t.Errorf("member %d delivered %d of 240", i, len(s))
		}
	}
}

func TestOrderEquivSymmetric(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSymmetric, members: 4, perSender: 80})
	assertSameOrder(t, seqs, 4)
}

func TestOrderEquivSymmetricLoss(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSymmetric, members: 3, perSender: 60, loss: 0.05})
	assertSameOrder(t, seqs, 3)
}

func TestOrderEquivSymmetricBatch(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSymmetric, members: 3, perSender: 100, batch: true})
	assertSameOrder(t, seqs, 3)
}

func TestOrderEquivSymmetricViewChange(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSymmetric, members: 3, perSender: 60, leaveMid: true})
	// Survivors (members 0 and 1) must agree on the full doubled stream,
	// including whatever the flush cut force-delivered at the change.
	assertSameOrder(t, seqs[:2], 2)
}

func TestOrderEquivSequencer(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSequencer, members: 4, perSender: 80})
	assertSameOrder(t, seqs, 4)
}

func TestOrderEquivSequencerLoss(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSequencer, members: 3, perSender: 60, loss: 0.05})
	assertSameOrder(t, seqs, 3)
}

func TestOrderEquivSequencerViewChange(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSequencer, members: 3, perSender: 60, leaveMid: true})
	assertSameOrder(t, seqs[:2], 2)
}

func TestOrderEquivSequencerBatchLoss(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSequencer, members: 3, perSender: 60, batch: true, loss: 0.03})
	assertSameOrder(t, seqs, 3)
}

// Multi-worker dispatch must not reorder deliveries: the pool hands each
// group to at most one worker at a time (single-writer), so the
// byte-identical total order must survive more than one dispatch worker exactly as
// it holds at 1. These runs exercise the engine's concurrency across
// groups while pinning order within each.

func TestOrderEquivSymmetricWorkers(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSymmetric, members: 4, perSender: 80, workers: 4})
	assertSameOrder(t, seqs, 4)
}

func TestOrderEquivSequencerWorkersLoss(t *testing.T) {
	seqs := runOrderEquiv(t, equivOpts{order: OrderSequencer, members: 3, perSender: 60, loss: 0.05, workers: 4})
	assertSameOrder(t, seqs, 3)
}
