package gcs

import (
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/transport"
)

// Allocation-budget guards for the protocol hot paths (run by ci.sh as a
// dedicated stage: go test -run AllocGuard). The budgets are deliberately
// a little above the measured steady state so incidental churn does not
// flake the build, but far below the pre-overhaul numbers: a regression
// back to per-message maps, per-attempt sorting or per-encode writers
// trips the guard immediately.
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
// testing.AllocsPerRun (which counts allocations process-wide).
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
	avg := testing.AllocsPerRun(runs, cycle)
	t.Logf("multicast→deliver (symmetric, 3 members): %.1f allocs/op", avg)
	const budget = 8 // measured 6.0 after the overhaul (29.0 on the seed)
	if avg > budget {
		t.Fatalf("multicast→deliver allocates %.1f/op, budget %d", avg, budget)
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
	avg := testing.AllocsPerRun(500, func() {
		_ = encodeMessage(m)
	})
	t.Logf("encode dataMsg: %.1f allocs/op", avg)
	const budget = 2 // measured 1.0 after the overhaul (3.0 on the seed)
	if avg > budget {
		t.Fatalf("encode allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardDecode budgets the wire decoding of a typical data
// message.
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
	})
	avg := testing.AllocsPerRun(500, func() {
		if _, err := decodeMessage(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decode dataMsg: %.1f allocs/op", avg)
	const budget = 7 // measured 5.0 after the overhaul (15.0 on the seed)
	if avg > budget {
		t.Fatalf("decode allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardMuxedBroadcast pins the headroom framing: over a Mux
// channel the encoded buffer is the wire frame, so a broadcast allocates
// that one buffer however many destinations it has. (Before, the channel
// copied the frame once per destination to prepend its protocol byte.)
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
	avg := testing.AllocsPerRun(200, broadcast)
	t.Logf("broadcast to %d destinations over a mux channel: %.1f allocs/op", len(peers), avg)
	const budget = 1 // the detached frame; 7 with the per-destination copy
	if avg > budget {
		t.Fatalf("muxed broadcast allocates %.1f/op, budget %d", avg, budget)
	}
}
