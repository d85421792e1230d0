package tcpnet_test

// Tests for the pipelined transport surface: writer serialization under
// concurrent senders, the advertised-address handshake contract, inbound
// connection dedup on redial, and the no-stall property a dead peer must
// not break.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"newtop/internal/lint/leakcheck"
	"newtop/internal/obs"
	"newtop/internal/transport"
	"newtop/internal/transport/tcpnet"
)

// TestConcurrentSendersFrameIntegrity is the regression test for the
// frame-interleaving bug: with the old transport, two goroutines sending
// to the same peer could interleave the separate header and payload
// writes and desynchronise the stream. The single writer per connection
// makes that impossible by construction; this test hammers one shared
// connection from many goroutines with varying-length frames and requires
// every frame to arrive intact, exactly once.
func TestConcurrentSendersFrameIntegrity(t *testing.T) {
	const senders, perSender = 8, 200
	total := senders * perSender

	a, err := tcpnet.ListenConfig("a", "127.0.0.1:0", tcpnet.Config{QueueLen: total + 16})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := listen(t, "b")
	a.AddPeer("b", b.Addr())

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				// Varying lengths so a desynchronised stream cannot parse.
				pad := strings.Repeat("x", (s*31+i)%257)
				msg := fmt.Sprintf("%02d|%04d|%s", s, i, pad)
				if err := a.Send("b", []byte(msg)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	seen := make(map[string]bool, total)
	for n := 0; n < total; n++ {
		in := recvOne(t, b)
		parts := strings.SplitN(string(in.Payload), "|", 3)
		if len(parts) != 3 {
			t.Fatalf("frame %d corrupt: %q", n, in.Payload)
		}
		s, err1 := strconv.Atoi(parts[0])
		i, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || s < 0 || s >= senders || i < 0 || i >= perSender {
			t.Fatalf("frame %d corrupt: %q", n, in.Payload)
		}
		if want := strings.Repeat("x", (s*31+i)%257); parts[2] != want {
			t.Fatalf("frame %d padding corrupt: %q", n, in.Payload)
		}
		key := parts[0] + "|" + parts[1]
		if seen[key] {
			t.Fatalf("frame %s delivered twice", key)
		}
		seen[key] = true
	}
	if len(seen) != total {
		t.Fatalf("got %d distinct frames, want %d", len(seen), total)
	}
}

// TestAdvertiseLearnedDialBack: a peer that only ever received from us
// must be able to dial back using the handshake's advertised address.
func TestAdvertiseLearnedDialBack(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	a.AddPeer("b", b.Addr()) // b does NOT know a

	if got := a.AdvertiseAddr(); got != a.Addr() {
		t.Fatalf("loopback listener must advertise its literal address, got %q want %q", got, a.Addr())
	}
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if addr, ok := b.PeerAddr("a"); !ok || addr != a.Addr() {
		t.Fatalf("b learned %q (ok=%v), want %q", addr, ok, a.Addr())
	}
	if err := b.Send("a", []byte("back")); err != nil {
		t.Fatalf("dial-back via learned address: %v", err)
	}
	if in := recvOne(t, a); string(in.Payload) != "back" {
		t.Fatalf("got %q", in.Payload)
	}
}

// TestWildcardListenerAdvertisesNothing is the regression test for the
// handshake return-address bug: a wildcard listener's literal address
// (":7001", "0.0.0.0:7001") is not dialable from a remote process, so it
// must not be advertised — the peer must learn nothing rather than
// learning garbage.
func TestWildcardListenerAdvertisesNothing(t *testing.T) {
	w, err := tcpnet.Listen("w", ":0")
	if err != nil {
		t.Skipf("wildcard listen: %v", err)
	}
	defer w.Close()
	if got := w.AdvertiseAddr(); got != "" {
		t.Fatalf("wildcard listener advertised %q, want nothing", got)
	}

	b := listen(t, "b")
	w.AddPeer("b", b.Addr())
	if err := w.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if addr, ok := b.PeerAddr("w"); ok {
		t.Fatalf("b learned unusable address %q from a wildcard listener", addr)
	}
	if err := b.Send("w", []byte("y")); !errors.Is(err, transport.ErrUnknownPeer) {
		t.Fatalf("send to unlearnable peer: got %v, want ErrUnknownPeer", err)
	}
}

// TestAdvertiseAddrOverride: an explicitly configured advertise address
// (the NAT / 0.0.0.0-deployment case) is what peers learn, verbatim.
func TestAdvertiseAddrOverride(t *testing.T) {
	const adv = "203.0.113.9:7001" // TEST-NET: never dialed by this test
	c, err := tcpnet.ListenConfig("c", "127.0.0.1:0", tcpnet.Config{AdvertiseAddr: adv})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.AdvertiseAddr(); got != adv {
		t.Fatalf("AdvertiseAddr() = %q, want %q", got, adv)
	}

	b := listen(t, "b")
	c.AddPeer("b", b.Addr())
	if err := c.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if addr, ok := b.PeerAddr("c"); !ok || addr != adv {
		t.Fatalf("b learned %q (ok=%v), want %q", addr, ok, adv)
	}
}

// TestInboundRedialClosesStaleConn covers the inbound-connection dedup
// gap: when a process redials (crash, dropped path), the receiver used to
// keep the stale connection and its read loop until a read error happened
// to surface. A fresh handshake from the same process must close the
// stale connection immediately; leakcheck proves the read loops are
// actually reaped.
func TestInboundRedialClosesStaleConn(t *testing.T) {
	leakcheck.Check(t)

	// A private obs domain: Stats counters live in the obs registry keyed
	// by endpoint ID, so exact-count assertions need isolation from other
	// tests that reuse the ID.
	a, err := tcpnet.ListenConfig("a", "127.0.0.1:0", tcpnet.Config{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b1, err := tcpnet.Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b1.AddPeer("a", a.Addr())
	if err := b1.Send("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, a); string(in.Payload) != "one" {
		t.Fatalf("got %q", in.Payload)
	}

	// The same process identity connects afresh (simulating a crash and
	// restart on a new port): its handshake must supersede — and close —
	// the stale inbound connection b1 left behind.
	b2, err := tcpnet.Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.AddPeer("a", a.Addr())
	if err := b2.Send("a", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, a); string(in.Payload) != "two" {
		t.Fatalf("got %q", in.Payload)
	}
	if st := a.Stats(); st.Accepted != 2 {
		t.Fatalf("accepted %d conns, want 2", st.Accepted)
	}

	// b1's outbound connection was closed out from under it by the dedup;
	// its writer must notice, redial in the background and deliver again
	// (frames racing the close may drop — best-effort — so send until one
	// lands).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := b1.Send("a", []byte("three")); err != nil {
			t.Fatal(err)
		}
		select {
		case in, ok := <-a.Inbound():
			if !ok {
				t.Fatal("inbound closed")
			}
			if string(in.Payload) == "three" {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("b1 never recovered from the dedup close")
		}
	}
}

// TestUnreachablePeerDoesNotStallLiveTraffic is the no-stall acceptance
// property: a dead address in the peer book must cost live traffic
// nothing. With the old transport every Send to the dead peer dialed
// synchronously inside the caller — one blackholed connect attempt
// stalled the event loop for the full kernel connect timeout. Here the
// dial happens in the dead peer's own writer goroutine, so interleaving
// hundreds of sends to a blackhole with live sends must still deliver all
// the live frames promptly.
func TestUnreachablePeerDoesNotStallLiveTraffic(t *testing.T) {
	a, err := tcpnet.ListenConfig("a", "127.0.0.1:0", tcpnet.Config{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := listen(t, "b")
	a.AddPeer("b", b.Addr())
	a.AddPeer("dead", "192.0.2.1:9") // TEST-NET blackhole: connects never complete

	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send("dead", []byte("void")); err != nil {
			t.Fatal(err)
		}
		if err := a.Send("b", []byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	for got < n {
		in := recvOne(t, b)
		if in.From == "a" && len(in.Payload) == 4 {
			got++
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("live traffic took %v behind a dead peer; the old transport's stall is back", elapsed)
	}
	if st := a.Stats(); st.DialFails == 0 && st.Redials == 0 {
		// Not a correctness condition, but if the blackhole never even
		// registered a failed attempt the test lost its premise.
		t.Logf("note: no dial failures recorded yet (slow blackhole); stats=%+v", st)
	}
}

// TestQueueFullDrops: a stalled pipe drops frames beyond QueueLen instead
// of blocking the caller — datagram semantics under backpressure.
func TestQueueFullDrops(t *testing.T) {
	a, err := tcpnet.ListenConfig("a", "127.0.0.1:0", tcpnet.Config{
		QueueLen: 8,
		Obs:      obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("dead", "192.0.2.1:9")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if err := a.Send("dead", []byte("x")); err != nil {
				t.Errorf("send must not error on a full queue: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full queue")
	}
	if st := a.Stats(); st.DropsFull == 0 {
		t.Fatalf("expected queue-full drops, stats=%+v", st)
	}
}
