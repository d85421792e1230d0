// Package memnet is an in-memory implementation of transport.Endpoint
// driven by the netsim latency/CPU model. It gives every (sender,
// receiver) pair its own FIFO link whose deliveries are delayed by the
// simulated one-way latency, charges per-message CPU at both ends (the
// receiver's CPU is serialized, which is what makes servers and sequencers
// saturate exactly as in the paper's graphs), and honours the simulator's
// partition/crash/loss verdicts.
package memnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport"
)

// Net is a collection of in-memory endpoints sharing one simulated network.
type Net struct {
	sim *netsim.Network

	// Sends counts every Send call, for diagnostics and load assertions.
	Sends atomic.Int64

	mu  sync.Mutex
	eps map[ids.ProcessID]*Endpoint
}

// New returns an empty in-memory network backed by sim.
func New(sim *netsim.Network) *Net {
	return &Net{sim: sim, eps: make(map[ids.ProcessID]*Endpoint)}
}

// Sim exposes the underlying simulator for partition/crash injection.
func (n *Net) Sim() *netsim.Network { return n.sim }

// Endpoint creates (and places at site) the endpoint for process id.
func (n *Net) Endpoint(id ids.ProcessID, site string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[id]; ok {
		return nil, fmt.Errorf("memnet: endpoint %q already exists", id)
	}
	n.sim.Place(id, site)
	ep := &Endpoint{
		net:   n,
		id:    id,
		fifo:  transport.NewFIFO(),
		links: make(map[ids.ProcessID]*link),
	}
	n.eps[id] = ep
	return ep, nil
}

func (n *Net) lookup(id ids.ProcessID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[id]
}

func (n *Net) remove(id ids.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, id)
}

// Endpoint is one process's attachment to the in-memory network.
type Endpoint struct {
	net  *Net
	id   ids.ProcessID
	fifo *transport.FIFO

	// The simulated CPU is a single-server queue: each charge reserves a
	// slot after the previous reservation (busyUntil), so concurrent work
	// on one process serializes and the process saturates realistically.
	// Reservations are wall-clock anchored, so sleep overshoot does not
	// accumulate.
	cpuMu     sync.Mutex
	busyUntil time.Time

	mu     sync.Mutex
	links  map[ids.ProcessID]*link
	closed bool
}

// charge reserves cost on the endpoint's simulated CPU and returns how
// long the caller must wait for its work to complete.
func (e *Endpoint) charge(cost time.Duration) time.Duration {
	now := time.Now()
	e.cpuMu.Lock()
	defer e.cpuMu.Unlock()
	if e.busyUntil.Before(now) {
		e.busyUntil = now
	}
	e.busyUntil = e.busyUntil.Add(cost)
	return e.busyUntil.Sub(now)
}

var (
	_ transport.Endpoint      = (*Endpoint)(nil)
	_ transport.BatchReceiver = (*Endpoint)(nil)
)

// ID implements transport.Endpoint.
func (e *Endpoint) ID() ids.ProcessID { return e.id }

// Inbound implements transport.Endpoint.
func (e *Endpoint) Inbound() <-chan transport.Inbound { return e.fifo.Out() }

// Recv implements transport.BatchReceiver.
func (e *Endpoint) Recv(dst []transport.Inbound) (int, bool) { return e.fifo.PopBatch(dst) }

// Send implements transport.Endpoint. The sender is charged SendCPU
// synchronously; propagation and receiver-side cost happen asynchronously
// on the link.
func (e *Endpoint) Send(to ids.ProcessID, payload []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	lnk := e.links[to]
	if lnk == nil {
		lnk = newLink(e.net, to)
		e.links[to] = lnk
	}
	e.mu.Unlock()

	e.net.Sends.Add(1)
	if cost := e.net.sim.SendCost(); cost > 0 {
		time.Sleep(e.charge(cost))
	}

	v := e.net.sim.Judge(e.id, to)
	if !v.Deliver {
		// Dropped by partition, crash or loss: best-effort datagram
		// semantics, not an error.
		return nil
	}
	lnk.push(timedMsg{
		msg:       transport.Inbound{From: e.id, Payload: payload},
		deliverAt: time.Now().Add(v.Latency),
	})
	return nil
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	links := make([]*link, 0, len(e.links))
	for _, l := range e.links {
		links = append(links, l)
	}
	e.mu.Unlock()

	e.net.remove(e.id)
	for _, l := range links {
		l.close()
	}
	e.fifo.Close()
	return nil
}

// deliver charges the receiver CPU and hands the message to the app.
func (e *Endpoint) deliver(m transport.Inbound) {
	if cost := e.net.sim.RecvCost(); cost > 0 {
		time.Sleep(e.charge(cost))
	}
	e.fifo.Push(m)
}

type timedMsg struct {
	msg       transport.Inbound
	deliverAt time.Time
}

// link is the unidirectional FIFO pipe to one destination. A dedicated
// goroutine sleeps until each message's delivery time, preserving per-link
// order even under jitter.
type link struct {
	net *Net
	to  ids.ProcessID

	mu      sync.Mutex
	cond    *sync.Cond
	q       []timedMsg
	lastAt  time.Time
	closed  bool
	done    chan struct{}
	closeCh chan struct{}
}

func newLink(n *Net, to ids.ProcessID) *link {
	l := &link{net: n, to: to, done: make(chan struct{}), closeCh: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

func (l *link) push(m timedMsg) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	// Clamp to monotone delivery times so jitter cannot reorder a link.
	if m.deliverAt.Before(l.lastAt) {
		m.deliverAt = l.lastAt
	}
	l.lastAt = m.deliverAt
	l.q = append(l.q, m)
	l.cond.Signal()
}

func (l *link) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.closeCh)
		l.cond.Signal()
	}
	l.mu.Unlock()
	<-l.done
}

func (l *link) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.q) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		m := l.q[0]
		l.q = l.q[1:]
		l.mu.Unlock()

		if wait := time.Until(m.deliverAt); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-l.closeCh:
				timer.Stop()
				return
			}
		}
		if dst := l.net.lookup(l.to); dst != nil && !l.net.sim.Crashed(l.to) {
			dst.deliver(m.msg)
		}
	}
}
