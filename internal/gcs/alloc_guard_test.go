package gcs

import (
	"slices"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/lint/allocs"
	"newtop/internal/transport"
	"newtop/internal/wire"
)

// Allocation-budget guards for the protocol hot paths (run by ci.sh as a
// dedicated stage: go test -run AllocGuard). allocs.PerOp reads the exact
// mean, so a path whose arenas refill every few dozen operations reads a
// few hundredths, and its budget sits just above that: a regression back
// to per-message maps, per-attempt sorting or per-encode writers reads a
// whole allocation or more, and a smaller arena chunk or an allocation
// every few operations reads tenths. Under the race detector, which makes
// sync.Pool drop writers at random, the guards only log.
//
// The harness isolates the protocol state machine: a null endpoint
// swallows sends without queueing (so transport buffering is not
// measured), the tick machinery is parked on hour-long timers, and peer
// traffic is injected as pre-built messages through the same handle()
// entry point the receive loop uses.

// nullEP is a transport endpoint that drops every send and never receives.
type nullEP struct {
	id ids.ProcessID
	in chan transport.Inbound
}

func newNullEP(id ids.ProcessID) *nullEP {
	return &nullEP{id: id, in: make(chan transport.Inbound)}
}

func (e *nullEP) ID() ids.ProcessID                           { return e.id }
func (e *nullEP) Send(to ids.ProcessID, payload []byte) error { return nil }
func (e *nullEP) Inbound() <-chan transport.Inbound           { return e.in }

// Recv parks the node's receive loop until Close.
func (e *nullEP) Recv([]transport.Inbound) (int, bool) {
	<-e.in
	return 0, false
}

func (e *nullEP) Close() error {
	select {
	case <-e.in:
	default:
		close(e.in)
	}
	return nil
}

// quiescentConfig parks every timer so background ticks cannot pollute
// allocs.PerOp (which counts allocations process-wide).
func quiescentConfig(order OrderMode) GroupConfig {
	return GroupConfig{
		Order:          order,
		TimeSilence:    time.Hour,
		SuspectTimeout: time.Hour,
		Resend:         time.Hour,
		FlushTimeout:   time.Hour,
		Tick:           time.Hour,
	}
}

// allocGroup builds a group on a null endpoint and force-installs a view
// containing fake peers (their messages are injected by hand).
func allocGroup(t *testing.T, order OrderMode, members ...ids.ProcessID) (*Node, *Group) {
	t.Helper()
	n := NewNode(newNullEP("b/me"))
	g, err := n.Create("alloc", quiescentConfig(order))
	if err != nil {
		t.Fatal(err)
	}
	all := append([]ids.ProcessID{"b/me"}, members...)
	g.mu.Lock()
	g.installViewLocked(View{Seq: 2, Installer: "b/me", Members: ids.SortProcesses(all)})
	g.mu.Unlock()
	// Drain the founding and forced view events.
	for i := 0; i < 2; i++ {
		<-g.Events()
	}
	return n, g
}

// TestAllocGuardMulticastDeliver budgets the full multicast→deliver cycle
// under the symmetric total order: one application multicast by this
// member plus one injected null from each of two peers (the traffic that
// lets the decentralised order advance), ending with the local delivery
// of the application message.
func TestAllocGuardMulticastDeliver(t *testing.T) {
	n, g := allocGroup(t, OrderSymmetric, "a/p", "c/q")
	defer n.Close()

	// Pre-build the peer traffic outside the measured loop so the guard
	// covers the protocol path, not the test's own message construction.
	// Lamport times are spaced so each injected null stamps past the
	// locally-sent message of its cycle (10i+3 < 10i+11), which is what
	// lets the symmetric order deliver every cycle.
	const warm, runs = 64, 200
	total := warm + runs + 8
	peers := []ids.ProcessID{"a/p", "c/q"}
	peerPos := []int{0, 2} // dense positions in the sorted view [a/p b/me c/q]
	msgs := make([][]*dataMsg, total)
	for i := 0; i < total; i++ {
		seq := uint64(i) + 1
		for k, p := range peers {
			msgs[i] = append(msgs[i], &dataMsg{
				Group:         "alloc",
				ViewSeq:       2,
				ViewInstaller: "b/me",
				Sender:        p,
				Seq:           seq,
				Lamport:       10*seq + uint64(k) + 1,
				Null:          true,
				VC:            peerVC(peerPos[k], seq),
				Acks:          peerAcks(seq),
			})
		}
	}
	payload := make([]byte, 64)
	iter := 0
	cycle := func() {
		if err := g.Multicast(nil, payload); err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs[iter] {
			g.handle(m.Sender, m, 0)
		}
		iter++
		ev := <-g.Events()
		if ev.Type != EventDeliver {
			t.Fatalf("expected delivery, got %+v", ev)
		}
	}
	// Steady the state (map/queue growth) before measuring.
	for i := 0; i < warm; i++ {
		cycle()
	}
	avg := allocs.PerOp(runs, cycle)
	t.Logf("multicast→deliver (symmetric, 3 members): %.3f allocs/op", avg)
	const budget = 0.1 // measured 0.040, the arenas' chunk refills: the frame leaves from a pooled writer and the payload's copy is carved (1.0 with the frame detached; 29.0 on the seed)
	if avg > budget && !allocs.Race {
		t.Fatalf("multicast→deliver allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// peerVC builds the causal context of an injected peer message (dense,
// position-keyed over the 3-member view).
func peerVC(pos int, seq uint64) []uint64 {
	vc := make([]uint64, 3)
	vc[pos] = seq
	return vc
}

// peerAcks builds the acknowledgement vector of an injected peer message:
// the peer has contiguously received everything every member sent so far
// (the local member sends exactly one message per cycle).
func peerAcks(seq uint64) []uint64 {
	return []uint64{seq, seq, seq}
}

// TestAllocGuardEncode budgets the wire encoding of a typical data
// message.
func TestAllocGuardEncode(t *testing.T) {
	m := &dataMsg{
		Group:         "alloc",
		ViewSeq:       2,
		ViewInstaller: "b/me",
		Sender:        "b/me",
		Seq:           9,
		Lamport:       99,
		VC:            []uint64{4, 9, 7},
		Payload:       make([]byte, 64),
		Acks:          []uint64{4, 9, 7},
	}
	avg := allocs.PerOp(500, func() {
		wire.PutWriter(encodeFramed(nil, m))
	})
	t.Logf("encode dataMsg: %.3f allocs/op", avg)
	const budget = 0 // measured 0.000: the frame is sent from the pooled writer (1.0 detached; 3.0 on the seed)
	if avg > budget && !allocs.Race {
		t.Fatalf("encode allocates %.3f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardDecode budgets the wire decoding of a typical data message
// from the sequencer, ordering decisions included, by a long-lived decoder
// as the node's receive loop runs it: identifiers interned, counters and
// decisions in the message's inline blocks, the envelope carved from a
// chunk.
func TestAllocGuardDecode(t *testing.T) {
	enc := encodeMessage(&dataMsg{
		Group:         "alloc",
		ViewSeq:       2,
		ViewInstaller: "b/me",
		Sender:        "b/me",
		Seq:           9,
		Lamport:       99,
		VC:            []uint64{4, 9, 7},
		Payload:       make([]byte, 64),
		Acks:          []uint64{4, 9, 7},
		Assigns:       []assign{{Sender: "a/p", Seq: 3, Global: 11}, {Sender: "b/me", Seq: 9, Global: 12}},
	})
	d := newDecoder()
	avg := allocs.PerOp(500, func() {
		if _, err := d.decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode dataMsg: %.3f allocs/op", avg)
	const budget = 0.05 // measured 0.014, the envelope arena's chunk refills (1.0 with the decisions on the heap; 15.0 one-shot on the seed)
	if avg > budget {
		t.Fatalf("decode allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// TestAllocGuardMuxedBroadcast pins the headroom framing: over a Mux
// channel the encoded buffer is the wire frame, so one pooled writer serves
// every destination of a broadcast and nothing is allocated. (Before, the
// channel copied the frame once per destination to prepend its protocol
// byte, and later the frame was detached from the writer once.)
func TestAllocGuardMuxedBroadcast(t *testing.T) {
	mux := transport.NewMux(newNullEP("b/me"))
	defer mux.Close()
	n := NewNode(mux.Channel(transport.ProtoGCS))
	defer n.Close()
	g, err := n.Create("alloc", quiescentConfig(OrderSequencer))
	if err != nil {
		t.Fatal(err)
	}
	peers := []ids.ProcessID{"a/p", "c/q", "d/r", "e/s", "f/t", "g/u"}
	g.mu.Lock()
	g.installViewLocked(View{Seq: 2, Installer: "b/me", Members: ids.SortProcesses(append([]ids.ProcessID{"b/me"}, peers...))})
	g.mu.Unlock()
	m := &dataMsg{
		Group:         "alloc",
		ViewSeq:       2,
		ViewInstaller: "b/me",
		Sender:        "b/me",
		Seq:           1,
		Lamport:       1,
		VC:            make([]uint64, 7),
		Acks:          make([]uint64, 7),
		Payload:       make([]byte, 64),
	}
	broadcast := func() {
		g.mu.Lock()
		g.broadcastLocked(m)
		g.mu.Unlock()
	}
	for i := 0; i < 16; i++ {
		broadcast() // per-link metric slots are created on first contact
	}
	avg := allocs.PerOp(200, broadcast)
	t.Logf("broadcast to %d destinations over a mux channel: %.3f allocs/op", len(peers), avg)
	const budget = 0 // measured 0.000: every destination is sent the pooled writer's bytes (1.0 with the frame detached, 7 with a copy per destination)
	if avg > budget && !allocs.Race {
		t.Fatalf("muxed broadcast allocates %.3f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardSequencerDeliver budgets the multicast→deliver cycle under
// the sequencer order, where ordering decisions ride on data messages (the
// paper's ORDER multicast). As the leader, this member assigns its own
// message a global position and announces the decision on that message; as
// a follower, it multicasts and then ingests the leader's null that carries
// the decision for it. The peers' frames go through the node's decoder and
// its dispatch, as the receive loop's would, so the decisions are decoded
// too. Either way the decisions live in the message's inline block: with a
// heap slice per announcement and per decode each cycle cost one more.
func TestAllocGuardSequencerDeliver(t *testing.T) {
	for _, tc := range []struct {
		name   string
		peers  []ids.ProcessID
		leader ids.ProcessID // whose nulls carry the decisions; "" = this member's sends do
		budget float64
	}{
		{"leader", []ids.ProcessID{"c/q", "d/r"}, "", 0.15},      // measured 0.070, the arenas' chunk refills (1.0 with the frame detached, 2.0 with the decisions on the heap too)
		{"follower", []ids.ProcessID{"a/p", "c/q"}, "a/p", 0.15}, // measured 0.070, as the leader
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, g := allocGroup(t, OrderSequencer, tc.peers...)
			defer n.Close()
			members := ids.SortProcesses(append([]ids.ProcessID{"b/me"}, tc.peers...))
			const warm, runs = 64, 200
			total := warm + runs + 8
			frames := make([][]transport.Inbound, total)
			for i := range frames {
				seq := uint64(i) + 1
				for k, p := range tc.peers {
					m := &dataMsg{
						Group:         "alloc",
						ViewSeq:       2,
						ViewInstaller: "b/me",
						Sender:        p,
						Seq:           seq,
						Lamport:       10*seq + uint64(k) + 1,
						Null:          true,
						VC:            peerVC(slices.Index(members, p), seq),
						Acks:          peerAcks(seq),
					}
					if p == tc.leader {
						m.Assigns = []assign{{Sender: "b/me", Seq: seq, Global: seq}}
					}
					frames[i] = append(frames[i], transport.Inbound{From: p, Payload: encodeMessage(m)})
				}
			}
			payload := make([]byte, 64)
			decoded := make([]inFrame, 0, len(tc.peers))
			run := make([]any, 0, len(tc.peers))
			iter := 0
			cycle := func() {
				if err := g.Multicast(nil, payload); err != nil {
					t.Fatal(err)
				}
				decoded = decoded[:0]
				for _, in := range frames[iter] {
					f, ok := n.decodeFrame(in)
					if !ok {
						t.Fatal("peer frame did not decode")
					}
					decoded = append(decoded, f)
				}
				n.dispatch(decoded, &run)
				iter++
				if ev := <-g.Events(); ev.Type != EventDeliver {
					t.Fatalf("expected delivery, got %+v", ev)
				}
			}
			for i := 0; i < warm; i++ {
				cycle()
			}
			avg := allocs.PerOp(runs, cycle)
			t.Logf("multicast→deliver (sequencer, %s): %.3f allocs/op", tc.name, avg)
			if avg > tc.budget && !allocs.Race {
				t.Fatalf("multicast→deliver allocates %.3f/op, budget %.2f", avg, tc.budget)
			}
		})
	}
}
