package transport

import (
	"errors"
	"sync"

	"newtop/internal/ids"
	"newtop/internal/obs"
)

// Protocol channel identifiers carried in the first payload byte of every
// muxed message.
const (
	ProtoGCS byte = 1 // group communication service traffic
	ProtoORB byte = 2 // mini-ORB request/response traffic
)

// FrameSender sends frames its caller encoded behind FrameHeader. A Mux
// channel tags every payload with its protocol byte, and Send has to copy
// the payload to make room for it, once per destination; a layer that
// encodes its own frames starts each with FrameHeader() instead and hands
// the whole buffer to SendFrame, so one encoded buffer serves every
// destination of a multicast.
type FrameSender interface {
	FrameHeader() []byte
	SendFrame(to ids.ProcessID, frame []byte) error
}

var errUntagged = errors.New("transport: frame does not start with the channel's header")

// Framing returns how a protocol layer sends through ep: ep itself when
// it is a FrameSender, otherwise an empty header and ep's Send.
func Framing(ep Endpoint) FrameSender {
	if fs, ok := ep.(FrameSender); ok {
		return fs
	}
	return unframed{ep}
}

type unframed struct{ ep Endpoint }

func (u unframed) FrameHeader() []byte { return nil }

func (u unframed) SendFrame(to ids.ProcessID, frame []byte) error { return u.ep.Send(to, frame) }

// Mux shares one Endpoint between independent protocol layers. Each layer
// obtains its own sub-Endpoint via Channel; the first byte of every wire
// payload routes inbound messages. Messages for unregistered channels are
// dropped.
type Mux struct {
	ep      Endpoint
	metrics *netMetrics

	mu     sync.Mutex
	subs   map[byte]*muxChannel
	closed bool
	done   chan struct{}
}

// NewMux wraps ep and starts the demultiplexing pump. The caller must not
// use ep directly afterwards. Instruments register in the process-wide
// observability domain; use NewMuxObs to direct them elsewhere.
func NewMux(ep Endpoint) *Mux { return NewMuxObs(ep, obs.Default()) }

// NewMuxObs is NewMux with an explicit observability domain (the bench
// harness gives each experiment world its own).
func NewMuxObs(ep Endpoint, o *obs.Obs) *Mux {
	m := &Mux{
		ep:      ep,
		metrics: newNetMetrics(o, ep.ID()),
		subs:    make(map[byte]*muxChannel),
		done:    make(chan struct{}),
	}
	go m.pump()
	return m
}

// Channel returns the sub-endpoint for one protocol byte, creating it on
// first use. The same instance is returned for repeated calls.
func (m *Mux) Channel(proto byte) Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sub, ok := m.subs[proto]; ok {
		return sub
	}
	sub := &muxChannel{mux: m, proto: proto, fifo: NewFIFO()}
	m.subs[proto] = sub
	return sub
}

// ID returns the underlying endpoint's process identifier.
func (m *Mux) ID() ids.ProcessID { return m.ep.ID() }

// Close closes the underlying endpoint and every sub-channel.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return nil
	}
	m.closed = true
	subs := make([]*muxChannel, 0, len(m.subs))
	for _, s := range m.subs {
		subs = append(subs, s)
	}
	m.mu.Unlock()

	err := m.ep.Close()
	<-m.done
	for _, s := range subs {
		s.fifo.Close()
	}
	return err
}

func (m *Mux) pump() {
	defer close(m.done)
	batch := make([]Inbound, RecvBurst)
	for {
		n, ok := Recv(m.ep, batch)
		if !ok {
			return
		}
		for _, in := range batch[:n] {
			if len(in.Payload) == 0 {
				continue
			}
			proto := in.Payload[0]
			m.metrics.received(in.From, len(in.Payload))
			m.mu.Lock()
			sub := m.subs[proto]
			m.mu.Unlock()
			if sub == nil {
				continue
			}
			sub.fifo.Push(Inbound{From: in.From, Payload: in.Payload[1:]})
		}
		clear(batch[:n]) // an idle pump must not pin the last burst's frames
	}
}

// muxChannel is the per-protocol sub-endpoint.
type muxChannel struct {
	mux   *Mux
	proto byte
	fifo  *FIFO
}

var (
	_ Endpoint      = (*muxChannel)(nil)
	_ BatchReceiver = (*muxChannel)(nil)
	_ FrameSender   = (*muxChannel)(nil)
)

func (c *muxChannel) ID() ids.ProcessID { return c.mux.ep.ID() }

// Send copies payload behind the protocol byte. The protocol layers avoid
// the copy through SendFrame.
func (c *muxChannel) Send(to ids.ProcessID, payload []byte) error {
	framed := make([]byte, 1+len(payload))
	framed[0] = c.proto
	copy(framed[1:], payload)
	return c.SendFrame(to, framed)
}

func (c *muxChannel) FrameHeader() []byte { return []byte{c.proto} }

func (c *muxChannel) SendFrame(to ids.ProcessID, frame []byte) error {
	if len(frame) == 0 || frame[0] != c.proto {
		return errUntagged
	}
	err := c.mux.ep.Send(to, frame)
	if err != nil {
		c.mux.metrics.dropped()
		return err
	}
	c.mux.metrics.sent(to, len(frame))
	return nil
}

func (c *muxChannel) Inbound() <-chan Inbound { return c.fifo.Out() }

func (c *muxChannel) Recv(dst []Inbound) (int, bool) { return c.fifo.PopBatch(dst) }

// Close closes only this sub-channel; the underlying endpoint stays up for
// other protocols until Mux.Close.
func (c *muxChannel) Close() error {
	c.fifo.Close()
	return nil
}
