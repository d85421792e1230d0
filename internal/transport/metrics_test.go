package transport_test

import (
	"testing"
	"time"

	"newtop/internal/lint/allocs"
	"newtop/internal/obs"
	"newtop/internal/transport"
)

func TestMuxCountsTraffic(t *testing.T) {
	a, b := newPipe("a", "b")
	oa, ob := obs.New(), obs.New()
	ma, mb := transport.NewMuxObs(a, oa), transport.NewMuxObs(b, ob)
	defer ma.Close()
	defer mb.Close()

	ca, cb := ma.Channel(transport.ProtoGCS), mb.Channel(transport.ProtoGCS)
	payload := []byte("hello")
	if err := ca.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	recvOne(t, cb.Inbound())

	sa := oa.Reg.Snapshot()
	framed := uint64(1 + len(payload)) // proto byte + payload
	if sa.Counters["transport_a_msgs_sent"] != 1 || sa.Counters["transport_a_bytes_sent"] != framed {
		t.Fatalf("sender totals wrong: %+v", sa.Counters)
	}
	if sa.Gauges["transport_a_link_b_msgs_sent"] != 1 || sa.Gauges["transport_a_link_b_bytes_sent"] != int64(framed) {
		t.Fatalf("sender per-link wrong: %+v", sa.Gauges)
	}

	// Receive counting happens in the pump goroutine; it ran before the
	// message reached the sub-channel FIFO, but give the counter a moment
	// in case of reordering between Push and counter visibility.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sb := ob.Reg.Snapshot()
		if sb.Counters["transport_b_msgs_recv"] == 1 && sb.Counters["transport_b_bytes_recv"] == framed &&
			sb.Gauges["transport_b_link_a_msgs_recv"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("receiver totals wrong: %+v", sb)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMuxCountsDrops(t *testing.T) {
	a, _ := newPipe("a", "b")
	o := obs.New()
	m := transport.NewMuxObs(a, o)
	defer m.Close()
	ch := m.Channel(transport.ProtoGCS)

	if err := ch.Send("nobody", []byte("x")); err == nil {
		t.Fatal("expected error for unknown peer")
	}
	if got := o.Reg.Snapshot().Counters["transport_a_send_drops"]; got != 1 {
		t.Fatalf("send_drops = %d, want 1", got)
	}
	if got := o.Reg.Snapshot().Counters["transport_a_msgs_sent"]; got != 0 {
		t.Fatalf("failed send counted as sent: %d", got)
	}
}

// TestMuxSendAllocs pins the send-path allocation count: the test pipe's
// copy of the frame, and nothing from the mux or its metrics after the
// first contact with a peer.
func TestMuxSendAllocs(t *testing.T) {
	a, b := newPipe("a", "b")
	ma, mb := transport.NewMuxObs(a, obs.New()), transport.NewMuxObs(b, obs.New())
	defer ma.Close()
	defer mb.Close()

	ca := ma.Channel(transport.ProtoGCS)
	cb := mb.Channel(transport.ProtoGCS)
	go func() { // drain so FIFOs don't grow
		for range cb.Inbound() {
		}
	}()
	payload := []byte("steady-state")
	if err := ca.Send("b", payload); err != nil { // warm the link slot
		t.Fatal(err)
	}

	// The test's pipe endpoint keeps a copy of each frame (1 alloc); the
	// mux frames into a pooled writer and its metrics add nothing.
	avg := allocs.PerOp(200, func() {
		if err := ca.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1.1 && !allocs.Race { // measured 1.035
		t.Fatalf("send path allocates %.3f times per op, want <= 1.1 (the pipe's copy)", avg)
	}
}
