package transport_test

import (
	"sync"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/transport"
)

// pipeEndpoint is a minimal in-process Endpoint for mux testing: two
// endpoints joined back to back.
type pipeEndpoint struct {
	id   ids.ProcessID
	fifo *transport.FIFO

	mu     sync.Mutex
	peers  map[ids.ProcessID]*pipeEndpoint
	closed bool
}

var (
	_ transport.Endpoint      = (*pipeEndpoint)(nil)
	_ transport.BatchReceiver = (*pipeEndpoint)(nil)
)

func newPipe(idA, idB ids.ProcessID) (*pipeEndpoint, *pipeEndpoint) {
	a := &pipeEndpoint{id: idA, fifo: transport.NewFIFO(), peers: map[ids.ProcessID]*pipeEndpoint{}}
	b := &pipeEndpoint{id: idB, fifo: transport.NewFIFO(), peers: map[ids.ProcessID]*pipeEndpoint{}}
	a.peers[idB] = b
	b.peers[idA] = a
	return a, b
}

func (p *pipeEndpoint) ID() ids.ProcessID { return p.id }

func (p *pipeEndpoint) Send(to ids.ProcessID, payload []byte) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return transport.ErrClosed
	}
	peer := p.peers[to]
	p.mu.Unlock()
	if peer == nil {
		return transport.ErrUnknownPeer
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	peer.fifo.Push(transport.Inbound{From: p.id, Payload: cp})
	return nil
}

func (p *pipeEndpoint) Inbound() <-chan transport.Inbound { return p.fifo.Out() }

func (p *pipeEndpoint) Recv(dst []transport.Inbound) (int, bool) { return p.fifo.PopBatch(dst) }

func (p *pipeEndpoint) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		p.fifo.Close()
	}
	return nil
}

func recvOne(t *testing.T, ch <-chan transport.Inbound) transport.Inbound {
	t.Helper()
	select {
	case in, ok := <-ch:
		if !ok {
			t.Fatal("channel closed")
		}
		return in
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for message")
		return transport.Inbound{}
	}
}

func TestMuxRoutesByProtocol(t *testing.T) {
	a, b := newPipe("a", "b")
	ma, mb := transport.NewMuxObs(a, obs.Default()), transport.NewMuxObs(b, obs.Default())
	defer ma.Close()
	defer mb.Close()

	gcsA, orbA := ma.Channel(transport.ProtoGCS), ma.Channel(transport.ProtoORB)
	gcsB, orbB := mb.Channel(transport.ProtoGCS), mb.Channel(transport.ProtoORB)

	if err := gcsA.Send("b", []byte("to-gcs")); err != nil {
		t.Fatal(err)
	}
	if err := orbA.Send("b", []byte("to-orb")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, gcsB.Inbound()); string(got.Payload) != "to-gcs" || got.From != "a" {
		t.Fatalf("gcs got %q from %s", got.Payload, got.From)
	}
	if got := recvOne(t, orbB.Inbound()); string(got.Payload) != "to-orb" {
		t.Fatalf("orb got %q", got.Payload)
	}
	// Reply path.
	if err := gcsB.Send("a", []byte("back")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, gcsA.Inbound()); string(got.Payload) != "back" {
		t.Fatalf("reply got %q", got.Payload)
	}
}

func TestMuxChannelIdentity(t *testing.T) {
	a, _ := newPipe("a", "b")
	m := transport.NewMuxObs(a, obs.Default())
	defer m.Close()
	if m.Channel(1) != m.Channel(1) {
		t.Fatal("Channel must be idempotent")
	}
	if m.Channel(1) == m.Channel(2) {
		t.Fatal("distinct protocols must get distinct channels")
	}
	if m.ID() != "a" || m.Channel(1).ID() != "a" {
		t.Fatal("IDs must pass through")
	}
}

func TestMuxDropsUnknownProtocolAndEmpty(t *testing.T) {
	a, b := newPipe("a", "b")
	ma, mb := transport.NewMuxObs(a, obs.Default()), transport.NewMuxObs(b, obs.Default())
	defer ma.Close()
	defer mb.Close()

	known := mb.Channel(transport.ProtoGCS)
	// Raw sends bypassing the mux framing: empty and unregistered-proto.
	if err := a.Send("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte{99, 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := ma.Channel(transport.ProtoGCS).Send("b", []byte("real")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, known.Inbound()); string(got.Payload) != "real" {
		t.Fatalf("got %q", got.Payload)
	}
}

func TestMuxPreservesOrderPerChannel(t *testing.T) {
	a, b := newPipe("a", "b")
	ma, mb := transport.NewMuxObs(a, obs.Default()), transport.NewMuxObs(b, obs.Default())
	defer ma.Close()
	defer mb.Close()

	ca, cb := ma.Channel(5), mb.Channel(5)
	const n = 500
	for i := 0; i < n; i++ {
		if err := ca.Send("b", []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got := recvOne(t, cb.Inbound())
		if int(got.Payload[0])|int(got.Payload[1])<<8 != i {
			t.Fatalf("message %d out of order", i)
		}
	}
}

func TestMuxCloseIsClean(t *testing.T) {
	a, b := newPipe("a", "b")
	ma, mb := transport.NewMuxObs(a, obs.Default()), transport.NewMuxObs(b, obs.Default())
	ch := mb.Channel(transport.ProtoGCS)
	if err := ma.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ma.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	// Sub-channel inbound must close.
	select {
	case _, ok := <-ch.Inbound():
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sub-channel never closed")
	}
}
