package tcpnet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight/flighttest"
	"newtop/internal/transport"
	"newtop/internal/transport/tcpnet"
)

// dumpRegistered dedupes the per-test journal-dump registration: listen
// is called once per endpoint but the dump should register once per test.
var dumpRegistered sync.Map

func listen(t *testing.T, id ids.ProcessID) *tcpnet.Endpoint {
	t.Helper()
	if _, loaded := dumpRegistered.LoadOrStore(t, true); !loaded {
		flighttest.DumpOnFailure(t, obs.Default().Flight, 0)
		t.Cleanup(func() { dumpRegistered.Delete(t) })
	}
	ep, err := tcpnet.Listen(id, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen %s: %v", id, err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

func wire(eps ...*tcpnet.Endpoint) {
	for _, a := range eps {
		for _, b := range eps {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
}

func recvOne(t *testing.T, ep transport.Endpoint) transport.Inbound {
	t.Helper()
	select {
	case in, ok := <-ep.Inbound():
		if !ok {
			t.Fatal("inbound closed")
		}
		return in
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
		return transport.Inbound{}
	}
}

func TestRoundTrip(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	wire(a, b)

	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if in.From != "a" || string(in.Payload) != "ping" {
		t.Fatalf("got %q from %s", in.Payload, in.From)
	}
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	in = recvOne(t, a)
	if in.From != "b" || string(in.Payload) != "pong" {
		t.Fatalf("got %q from %s", in.Payload, in.From)
	}
}

func TestFIFOOrderOverTCP(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	wire(a, b)
	const n = 300
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte(fmt.Sprintf("%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		in := recvOne(t, b)
		if want := fmt.Sprintf("%05d", i); string(in.Payload) != want {
			t.Fatalf("out of order: got %q want %q", in.Payload, want)
		}
	}
}

func TestUnknownPeer(t *testing.T) {
	a := listen(t, "a")
	if err := a.Send("nobody", []byte("x")); err == nil {
		t.Fatal("expected ErrUnknownPeer")
	}
}

func TestUnreachablePeerDropsSilently(t *testing.T) {
	a := listen(t, "a")
	a.AddPeer("dead", "127.0.0.1:1") // nothing listens there
	if err := a.Send("dead", []byte("x")); err != nil {
		t.Fatalf("unreachable peer must drop, not error: %v", err)
	}
}

func TestPeerRestartRedials(t *testing.T) {
	a := listen(t, "a")
	b, err := tcpnet.Listen("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wire(a, b)
	if err := a.Send("b", []byte("1")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Sends to the dead peer drop; once it is back (same port), traffic
	// flows again after the stale connection is discarded.
	b2, err := tcpnet.Listen("b", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer b2.Close()
	b2.AddPeer("a", a.Addr())

	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := a.Send("b", []byte("2")); err != nil {
			t.Fatal(err)
		}
		select {
		case in := <-b2.Inbound():
			if string(in.Payload) == "2" {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never received traffic")
		}
	}
}

func TestLargeFrame(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	wire(a, b)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send("b", big); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, b)
	if len(in.Payload) != len(big) {
		t.Fatalf("got %d bytes, want %d", len(in.Payload), len(big))
	}
	for i := 0; i < len(big); i += 4093 {
		if in.Payload[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestCloseIsClean(t *testing.T) {
	a, b := listen(t, "a"), listen(t, "b")
	wire(a, b)
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
	if err := a.Send("b", []byte("y")); err == nil {
		t.Fatal("send after close must error")
	}
}
