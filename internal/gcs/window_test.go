package gcs

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

// Tests for the sequence window (window.go): a model check of the ring
// type against the map representation it replaced, the far-ahead spill,
// the sequencer's order-table bound and the cost of collection.

// mapModel is the old representation of one sender's state: a store and
// a stash keyed by sequence number, the ordering table and its inverse.
type mapModel struct {
	msgs    map[uint64]*dataMsg // store ∪ stash
	assigns map[uint64]uint64   // seq -> global
	globals map[uint64]uint64   // global -> seq
}

// TestWindowMatchesMapModel drives one seqWindow and a globalRing with
// random in-order pushes, out-of-order inserts and ahead-of-message
// decisions (some past the dense bound, where they stall delivery until
// the window fills and spills), duplicates and front pops, and demands
// that they answer exactly like the maps — after every step at first, then
// sampled while the run marches the window across several dense spans.
func TestWindowMatchesMapModel(t *testing.T) {
	steps := 200000
	if testing.Short() {
		steps = 40000
	}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w seqWindow
		var ring globalRing
		model := mapModel{msgs: map[uint64]*dataMsg{}, assigns: map[uint64]uint64{}, globals: map[uint64]uint64{}}
		recvContig, nextGlobal, delGlobal := uint64(0), uint64(1), uint64(0)
		ahead := func() uint64 { // a sequence number past recvContig, sometimes past the dense bound
			if r.Intn(200) == 0 {
				return w.floor + 1 + maxSpan + uint64(r.Intn(2048))
			}
			return recvContig + 2 + uint64(r.Intn(40))
		}
		decide := func(seq uint64) {
			if seq <= w.floor {
				return // collected: a duplicate of a decision already used
			}
			sl := w.ensure(seq)
			if _, dup := model.assigns[seq]; dup != (sl.global != 0) {
				t.Fatalf("seed %d: slot %d decided=%v, model %v", seed, seq, sl.global != 0, dup)
			} else if dup {
				return // first decision wins
			}
			sl.global = nextGlobal
			ring.set(nextGlobal, msgRef{pos: 0, seq: seq})
			model.assigns[seq] = nextGlobal
			model.globals[nextGlobal] = seq
			nextGlobal++
		}
		for step := 0; step < steps; step++ {
			switch op := r.Intn(10); {
			case op < 4: // in-order push, then the stashed successors become contiguous
				recvContig++
				m := &dataMsg{Seq: recvContig}
				w.ensure(recvContig).m = m
				model.msgs[recvContig] = m
				for model.msgs[recvContig+1] != nil {
					recvContig++
				}
			case op == 4: // out-of-order insert; a resend overwrites the stashed copy
				m := &dataMsg{Seq: ahead()}
				w.ensure(m.Seq).m = m
				model.msgs[m.Seq] = m
			case op == 5: // decision ahead of its message
				decide(ahead())
			case op == 6: // decision for a message already here, or a duplicate of any
				if recvContig > 0 {
					decide(1 + uint64(r.Int63n(int64(recvContig))))
				}
			default: // deliver in global order, then pop the front up to a random floor
				for {
					seq, ok := model.globals[delGlobal+1]
					if !ok || seq > recvContig {
						break
					}
					delGlobal++
				}
				upTo := min(w.floor+uint64(r.Intn(8)), recvContig)
				if r.Intn(50) == 0 {
					upTo = recvContig // an acknowledgement burst collects everything
				}
				for w.floor < upTo {
					front := w.floor + 1
					if g := model.assigns[front]; g > delGlobal {
						break // not delivered yet
					} else if g != 0 {
						ring.del(g)
						delete(model.globals, g)
					}
					delete(model.msgs, front)
					delete(model.assigns, front)
					w.popFront()
				}
				ring.compact(delGlobal)
			}
			if step < 3000 || step%2003 == 0 {
				checkWindowAgainstModel(t, seed, step, &w, &ring, &model)
			}
		}
		checkWindowAgainstModel(t, seed, steps, &w, &ring, &model)
		if w.floor < maxSpan && !testing.Short() {
			t.Fatalf("seed %d: the run never filled and drained the dense span (floor at %d)", seed, w.floor)
		}
		if len(w.slots) > maxSpan || len(ring.slots) > maxSpan {
			t.Fatalf("seed %d: dense span exceeded its bound: window %d, ring %d slots", seed, len(w.slots), len(ring.slots))
		}
	}
}

// TestWindowSpillDrains: an in-order backlog longer than the dense bound
// spills, stays readable, and pops away completely — front first, through
// the dense span and on through the spill.
func TestWindowSpillDrains(t *testing.T) {
	var w seqWindow
	const total = maxSpan + 100
	for seq := uint64(1); seq <= total; seq++ {
		w.ensure(seq).m = &dataMsg{Seq: seq}
	}
	if w.n != maxSpan || len(w.far) != 100 {
		t.Fatalf("dense span %d, spill %d; want %d and 100", w.n, len(w.far), maxSpan)
	}
	for seq := uint64(1); seq <= total; seq++ {
		if m := w.get(seq).m; m == nil || m.Seq != seq {
			t.Fatalf("msg(%d) = %v", seq, m)
		}
		w.popFront()
	}
	if w.n != 0 || len(w.far) != 0 || w.floor != total {
		t.Fatalf("after draining: span %d, spill %d, floor %d", w.n, len(w.far), w.floor)
	}
}

func checkWindowAgainstModel(t *testing.T, seed int64, step int, w *seqWindow, ring *globalRing, model *mapModel) {
	t.Helper()
	msgs, decided := 0, 0
	w.each(func(seq uint64, sl *seqSlot) {
		if sl.m != model.msgs[seq] || sl.global != model.assigns[seq] {
			t.Fatalf("seed %d step %d: slot %d holds (%p, g%d), model (%p, g%d)",
				seed, step, seq, sl.m, sl.global, model.msgs[seq], model.assigns[seq])
		}
		if sl.m != nil {
			msgs++
		}
		if sl.global != 0 {
			decided++
		}
	})
	if msgs != len(model.msgs) || decided != len(model.assigns) {
		t.Fatalf("seed %d step %d: window holds %d messages and %d decisions, model %d and %d",
			seed, step, msgs, decided, len(model.msgs), len(model.assigns))
	}
	for seq, m := range model.msgs {
		if w.get(seq).m != m {
			t.Fatalf("seed %d step %d: get(%d).m = %p, model %p", seed, step, seq, w.get(seq).m, m)
		}
	}
	if ring.live != len(model.globals) {
		t.Fatalf("seed %d step %d: ring counts %d live decisions, model %d", seed, step, ring.live, len(model.globals))
	}
	for global, seq := range model.globals {
		if ref := ring.get(global); ref.seq != seq {
			t.Fatalf("seed %d step %d: ring.get(%d) = %v, model seq %d", seed, step, global, ref, seq)
		}
	}
}

// seqFollower builds a sequencer-order group whose local member b/me is a
// follower (a/p leads) on a null endpoint, with every timer parked.
func seqFollower(t testing.TB) (*Node, *Group) {
	n := NewNode(newNullEP("b/me"))
	g, err := n.Create("alloc", quiescentConfig(OrderSequencer))
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.installViewLocked(View{Seq: 2, Installer: "b/me", Members: []ids.ProcessID{"a/p", "b/me", "c/q"}})
	g.mu.Unlock()
	return n, g
}

// farAheadFrame is a leader null whose ordering table names a sequence
// number (and a global) 2^40 past anything real.
func farAheadFrame() *dataMsg {
	return &dataMsg{
		Group: "alloc", ViewSeq: 2, ViewInstaller: "b/me", Sender: "a/p", Seq: 1, Lamport: 1, Null: true,
		VC: []uint64{1, 0, 0}, Acks: []uint64{1, 0, 0},
		Assigns: []assign{{Sender: "c/q", Seq: 1 << 40, Global: 1 << 40}},
	}
}

// checkWindowsBounded fails if any window or the ring grew its dense span
// past the bound.
func checkWindowsBounded(t testing.TB, g *Group) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for s := range g.win {
		if len(g.win[s].slots) > maxSpan {
			t.Fatalf("window %d grew to %d slots", s, len(g.win[s].slots))
		}
	}
	if len(g.ring.slots) > maxSpan {
		t.Fatalf("ring grew to %d slots", len(g.ring.slots))
	}
}

// TestFarAheadAssignBounded: a decision naming a sequence number 2^40
// ahead costs one spill entry, not a 2^40-slot window, is not dropped, and
// does not stop later legitimate decisions from landing.
func TestFarAheadAssignBounded(t *testing.T) {
	n, g := seqFollower(t)
	defer n.Close()
	g.handle("a/p", farAheadFrame(), 0)
	checkWindowsBounded(t, g)
	g.mu.Lock()
	if got := g.win[2].get(1 << 40).global; got != 1<<40 {
		t.Errorf("far-ahead decision dropped: global of c/q#2^40 = %d", got)
	}
	if ref := g.ring.get(1 << 40); ref != (msgRef{pos: 2, seq: 1 << 40}) {
		t.Errorf("far-ahead decision missing from the ring: %v", ref)
	}
	g.mu.Unlock()

	// c/q#1 arrives, the leader orders it at global 1 and speaks past it.
	base := dataMsg{Group: "alloc", ViewSeq: 2, ViewInstaller: "b/me"}
	app, order := base, base
	app.Sender, app.Seq, app.Lamport, app.Payload = "c/q", 1, 5, []byte("legit")
	app.VC, app.Acks = []uint64{0, 0, 1}, []uint64{1, 0, 1}
	order.Sender, order.Seq, order.Lamport, order.Null = "a/p", 2, 9, true
	order.VC, order.Acks = []uint64{2, 0, 1}, []uint64{2, 0, 1}
	order.Assigns = []assign{{Sender: "c/q", Seq: 1, Global: 1}}
	g.handle("c/q", &app, 0)
	g.handle("a/p", &order, 0)
	for {
		select {
		case ev := <-g.Events():
			if ev.Type == EventDeliver {
				if string(ev.Deliver.Payload) != "legit" {
					t.Fatalf("delivered %q", ev.Deliver.Payload)
				}
				checkWindowsBounded(t, g)
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("legitimate decision never landed:\n%s", g.DebugDump())
		}
	}
}

// FuzzIngestFrame feeds arbitrary frames to a follower's ingest path: no
// input may panic it or grow a window's dense span past its bound.
func FuzzIngestFrame(f *testing.F) {
	f.Add(encodeMessage(farAheadFrame()))
	stash := farAheadFrame()
	stash.Seq, stash.Assigns = 1<<40, nil
	f.Add(encodeMessage(stash))
	f.Add(encodeMessage(&batchMsg{Group: "alloc", Msgs: []*dataMsg{farAheadFrame(), stash}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeMessage(data)
		if err != nil {
			return
		}
		n, g := seqFollower(t)
		defer n.Close()
		g.handle("a/p", msg, len(data))
		checkWindowsBounded(t, g)
	})
}

// TestCompactionCostIndependentOfBacklog pins the cost of collection to
// what is collected: with one member never acknowledging a/p's messages,
// a backlog of 32 or of 4096 unstable messages sits in a/p's window while
// the other two senders' messages keep stabilising, and the slots the
// collection loop examines per cycle must be the same small number. A
// reintroduced scan of everything retained shows up as ~backlog here.
func TestCompactionCostIndependentOfBacklog(t *testing.T) {
	visitsPerCycle := func(backlog int) float64 {
		n, g := allocGroup(t, OrderCausal, "a/p", "c/q")
		defer n.Close()
		inject := func(sender ids.ProcessID, pos int, seq uint64, acks []uint64) {
			g.handle(sender, &dataMsg{
				Group: "alloc", ViewSeq: 2, ViewInstaller: "b/me", Sender: sender, Seq: seq, Lamport: seq, Null: true,
				VC: peerVC(pos, seq), Acks: acks,
			}, 0)
		}
		for seq := uint64(1); seq <= uint64(backlog); seq++ {
			inject("a/p", 0, seq, []uint64{seq, 0, 0})
		}
		if st := g.Stats(); st.StoreSize != backlog || st.Pending != 0 {
			t.Fatalf("backlog %d: store=%d pending=%d", backlog, st.StoreSize, st.Pending)
		}
		const cycles = 200
		g.mu.Lock()
		before := g.collectVisits
		g.mu.Unlock()
		for i := uint64(1); i <= cycles; i++ {
			if err := g.Multicast(nil, []byte("x")); err != nil {
				t.Fatal(err)
			}
			// c/q acknowledges b/me and itself, never a/p; a/p everyone.
			inject("c/q", 2, i, []uint64{0, i, i})
			inject("a/p", 0, uint64(backlog)+i, []uint64{uint64(backlog) + i, i, i})
			<-g.Events()
		}
		g.mu.Lock()
		visits := g.collectVisits - before
		g.mu.Unlock()
		if st := g.Stats(); st.StoreSize != backlog+cycles {
			t.Fatalf("backlog %d: store=%d after %d cycles, want %d", backlog, st.StoreSize, cycles, backlog+cycles)
		}
		return float64(visits) / cycles
	}
	small, large := visitsPerCycle(32), visitsPerCycle(4096)
	t.Logf("slots examined per cycle (3 deliveries, 2 collections): backlog 32 → %.2f, backlog 4096 → %.2f", small, large)
	if small != large || small == 0 || small > 8 {
		t.Fatalf("collection cost depends on the backlog (or is not O(1)): %.2f vs %.2f slots per cycle", small, large)
	}
}

// TestSequencerOrderTableBounded pins the sequencer's ordering table to
// the in-flight window. Before the sequence windows the leader could not
// revisit a decision whose message it had already collected, so about half
// of all decisions — and, pinned behind the first of them, the whole ring —
// stayed for the life of the view.
func TestSequencerOrderTableBounded(t *testing.T) {
	const (
		perSender = 10000
		window    = 64 // multicasts in flight per sender
		bound     = 16 * 2 * window
	)
	net := memnet.New(netsim.New(netsim.FastProfile(), 3))
	cfg := GroupConfig{
		Order:          OrderSequencer,
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: time.Minute,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   5 * time.Second,
		Tick:           2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var groups []*Group
	for i := 0; i < 3; i++ {
		ep, err := net.Endpoint(ids.ProcessID(fmt.Sprintf("m%d", i)), netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		n := NewNodeObs(ep, obs.Default())
		defer n.Close()
		var g *Group
		if i == 0 {
			g, err = n.Create("bounded", cfg)
		} else {
			g, err = n.Join(ctx, "bounded", "m0", cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	for _, g := range groups {
		for len(g.View().Members) != 3 {
			time.Sleep(time.Millisecond)
		}
	}
	leader := groups[0]
	if leader.Sequencer() != leader.Me() {
		t.Fatalf("m0 is not the sequencer")
	}

	// Every member consumes its deliveries; a follower's own deliveries
	// return its in-flight tokens.
	var consumers, senders sync.WaitGroup
	delivered := make([]int, 3)
	for i, g := range groups {
		tokens := make(chan struct{}, window)
		consumers.Add(1)
		go func(i int, g *Group) {
			defer consumers.Done()
			for ev := range g.Events() {
				if ev.Type != EventDeliver {
					continue
				}
				if delivered[i]++; ev.Deliver.Sender == g.Me() {
					<-tokens
				}
				if delivered[i] == 2*perSender {
					return
				}
			}
		}(i, g)
		if i == 0 {
			continue
		}
		senders.Add(1)
		go func(g *Group) {
			defer senders.Done()
			for k := 0; k < perSender; k++ {
				tokens <- struct{}{}
				if err := g.Multicast(ctx, []byte("bounded")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// Sample the leader's table while the load runs.
	sendersDone := make(chan struct{})
	go func() { senders.Wait(); close(sendersDone) }()
	highLive, highSpan := 0, 0
	for running := true; running; {
		select {
		case <-sendersDone:
			running = false
		case <-time.After(time.Millisecond):
		}
		leader.mu.Lock()
		live, span := leader.ring.live, leader.ring.n+len(leader.ring.far)
		leader.mu.Unlock()
		highLive, highSpan = max(highLive, live), max(highSpan, span)
	}
	consumers.Wait()
	t.Logf("leader order table under load: %d live decisions, ring span %d (in flight ≤ %d, %d multicasts)",
		highLive, highSpan, 2*window, 2*perSender)
	if highLive > bound || highSpan > bound {
		t.Errorf("leader order table grew to %d decisions / ring span %d, bound %d", highLive, highSpan, bound)
	}

	// Quiet: a few time-silence rounds carry the last acknowledgements and
	// the table drains at every member.
	deadline := time.Now().Add(20 * time.Second)
	for _, g := range groups {
		for g.Stats().OrderTable != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: order table stuck at %d after quiescence:\n%s", g.Me(), g.Stats().OrderTable, g.DebugDump())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
