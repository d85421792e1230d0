package transport_test

import (
	"encoding/binary"
	"testing"
	"time"

	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport"
	"newtop/internal/transport/memnet"
	"newtop/internal/transport/tcpnet"
)

// The batch-pull contract every transport must meet, run over each of
// them: memnet, tcpnet, a Mux channel, and a foreign decorator that only
// offers the Inbound channel.
//
//   - Recv returns between 1 and len(dst) messages, and a link's messages
//     come out in the order they were sent, across batch boundaries.
//   - Close wakes a blocked Recv, which reports ok=false.
//   - Messages still queued at Close are all dropped: once an endpoint is
//     closed, Recv never hands out another message (the channel adaptor
//     behaves the same way; a close is a socket close, not a drain).

// link builds a connected pair: frames sent on a to b's ID arrive at b.
type link func(t *testing.T) (a, b transport.Endpoint)

func memnetLink(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 7))
	a, err := net.Endpoint("a", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func tcpnetLink(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	a, err := tcpnet.Listen("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tcpnet.Listen("b", "127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func muxLink(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	pa, pb := newPipe("a", "b")
	ma, mb := transport.NewMuxObs(pa, obs.Default()), transport.NewMuxObs(pb, obs.Default())
	t.Cleanup(func() { _ = ma.Close(); _ = mb.Close() })
	return ma.Channel(transport.ProtoGCS), mb.Channel(transport.ProtoGCS)
}

// chanOnly hides all but Endpoint's four methods, as a decorator that
// embeds the interface does: transport.Recv must fall back to Inbound.
type chanOnly struct{ transport.Endpoint }

func decoratedLink(t *testing.T) (transport.Endpoint, transport.Endpoint) {
	pa, pb := newPipe("a", "b")
	t.Cleanup(func() { _ = pa.Close(); _ = pb.Close() })
	return chanOnly{pa}, chanOnly{pb}
}

func TestRecvConformance(t *testing.T) {
	links := map[string]link{"memnet": memnetLink, "tcpnet": tcpnetLink, "mux": muxLink, "decorated": decoratedLink}
	for name, mk := range links {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Run("order", func(t *testing.T) { testRecvOrder(t, mk) })
			t.Run("close-wakes", func(t *testing.T) { testRecvCloseWakes(t, mk) })
			t.Run("close-drops", func(t *testing.T) { testRecvCloseDrops(t, mk) })
		})
	}
}

// recvWithin runs one Recv and fails the test if it stays blocked.
func recvWithin(t *testing.T, ep transport.Endpoint, dst []transport.Inbound) (int, bool) {
	t.Helper()
	type result struct {
		n  int
		ok bool
	}
	done := make(chan result, 1)
	go func() {
		n, ok := transport.Recv(ep, dst)
		done <- result{n, ok}
	}()
	select {
	case r := <-done:
		return r.n, r.ok
	case <-time.After(10 * time.Second):
		t.Fatal("Recv stayed blocked")
		return 0, false
	}
}

func testRecvOrder(t *testing.T, mk link) {
	a, b := mk(t)
	const frames = 500
	go func() {
		for i := 0; i < frames; i++ {
			_ = a.Send(b.ID(), binary.BigEndian.AppendUint32(nil, uint32(i)))
		}
	}()
	dst := make([]transport.Inbound, 7) // does not divide frames: the last batch is short
	for next := 0; next < frames; {
		n, ok := recvWithin(t, b, dst)
		if !ok || n < 1 || n > len(dst) {
			t.Fatalf("Recv = %d, %v with %d of %d received", n, ok, next, frames)
		}
		for _, in := range dst[:n] {
			if in.From != a.ID() {
				t.Fatalf("frame from %q, want %q", in.From, a.ID())
			}
			if got := int(binary.BigEndian.Uint32(in.Payload)); got != next {
				t.Fatalf("frame %d arrived where %d was due", got, next)
			}
			next++
		}
	}
}

func testRecvCloseWakes(t *testing.T, mk link) {
	_, b := mk(t)
	done := make(chan bool, 1)
	go func() {
		_, ok := transport.Recv(b, make([]transport.Inbound, 4))
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let it park
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv reported ok after Close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close left Recv blocked")
	}
}

func testRecvCloseDrops(t *testing.T, mk link) {
	a, b := mk(t)
	for i := 0; i < 20; i++ {
		if err := a.Send(b.ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Take the first frame, so the link is known to be up, and give the
	// other nineteen time to queue behind it.
	if n, ok := recvWithin(t, b, make([]transport.Inbound, 1)); !ok || n != 1 {
		t.Fatalf("Recv = %d, %v; want the first frame", n, ok)
	}
	time.Sleep(50 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if n, ok := recvWithin(t, b, make([]transport.Inbound, 32)); ok || n != 0 {
			t.Fatalf("Recv after Close = %d, %v; queued frames must be dropped, not returned", n, ok)
		}
	}
}

// TestSendCopiesPayload pins the outbound ownership contract: Send, and
// SendFrame for a layer that frames its own buffers, copy what they keep
// before they return. The caller overwrites its one buffer right after
// every send, as a pooled writer's recycling would, and the receiver must
// still get the bytes that were sent.
func TestSendCopiesPayload(t *testing.T) {
	links := map[string]link{"memnet": memnetLink, "tcpnet": tcpnetLink, "mux": muxLink}
	for name, mk := range links {
		for _, viaFrame := range []bool{false, true} {
			mk, via := mk, "Send"
			if viaFrame {
				via = "SendFrame"
			}
			t.Run(name+"/"+via, func(t *testing.T) { testSendCopies(t, mk, viaFrame) })
		}
	}
}

func testSendCopies(t *testing.T, mk link, viaFrame bool) {
	a, b := mk(t)
	var hdr []byte
	send := func(buf []byte) error { return a.Send(b.ID(), buf) }
	if viaFrame {
		fs := transport.Framing(a)
		hdr = fs.FrameHeader()
		send = func(buf []byte) error { return fs.SendFrame(b.ID(), buf) }
	}
	const frames, size = 200, 64
	buf := append(append([]byte(nil), hdr...), make([]byte, size)...)
	body := buf[len(hdr):]
	for i := 0; i < frames; i++ {
		for j := range body {
			body[j] = byte(i)
		}
		if err := send(buf); err != nil {
			t.Fatal(err)
		}
		for j := range body {
			body[j] = 0xff // what the next encode into a recycled buffer would leave
		}
	}
	dst := make([]transport.Inbound, 16)
	for next := 0; next < frames; {
		n, ok := recvWithin(t, b, dst)
		if !ok {
			t.Fatalf("endpoint closed with %d of %d frames received", next, frames)
		}
		for _, in := range dst[:n] {
			if len(in.Payload) != size {
				t.Fatalf("frame %d: %d bytes, want %d", next, len(in.Payload), size)
			}
			for _, c := range in.Payload {
				if c != byte(next) {
					t.Fatalf("frame %d arrived holding byte %#x: the transport kept the caller's buffer instead of a copy", next, c)
				}
			}
			next++
		}
	}
}
