package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
)

const (
	peerMembers = 4
	peerWindow  = 16      // own multicasts a member may have in flight (not yet delivered everywhere)
	peerRing    = 1 << 16 // per-sender delivery-count slots; far above any possible backlog
	peerGroup   = ids.GroupID("peer")
)

// peerEpoch is the time base of the send timestamps carried in payloads.
var peerEpoch = time.Now()

// peerMember is one member of the peer-participation group. Deliveries
// arrive through the group's handler (a dispatch worker, one at a time per
// group), so hash and rec have a single writer.
type peerMember struct {
	idx    int
	g      *gcs.Group
	filler []byte        // seeded payload body
	tokens chan struct{} // the send window: taken to multicast, returned when the last member delivered it
	seq    uint64        // own multicasts issued (generator-owned)
	errs   uint64        // failed Multicast calls (generator-owned)

	delivered atomic.Uint64
	hash      uint64 // running FNV-1a over every delivered payload, in delivery order
	rec       *recorder
}

// peerWorld is the peer_symmetric system under test: no core, no orb, a
// lively symmetric-order gcs group on bare nodes over the tcpnet mesh.
type peerWorld struct {
	net     *mesh
	nodes   []*gcs.Node
	members []*peerMember
	counts  [peerMembers][]atomic.Uint32 // deliveries so far of sender's message seq&(peerRing-1)
	setup   time.Duration
	bad     atomic.Uint64 // malformed or over-delivered messages
}

func buildPeerWorld(ctx context.Context, seed int64, traced bool) (w *peerWorld, err error) {
	start := time.Now()
	names := make([]string, peerMembers)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	net, err := listenMesh(names, traced)
	if err != nil {
		return nil, err
	}
	w = &peerWorld{net: net}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	for i := range names {
		w.nodes = append(w.nodes, gcs.NewNode(net.endpoint(i)))
		w.counts[i] = make([]atomic.Uint32, peerRing)
	}
	cfg := pinnedGCS(gcs.OrderSymmetric)
	cfg.Liveness = gcs.Lively
	rnd := rand.New(rand.NewSource(seed))
	for i, n := range w.nodes {
		var g *gcs.Group
		if i == 0 {
			g, err = n.Create(peerGroup, cfg)
		} else {
			g, err = n.Join(ctx, peerGroup, w.nodes[0].ID(), cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("peer member %d: %w", i, err)
		}
		m := &peerMember{idx: i, g: g, filler: make([]byte, valueBytes), tokens: make(chan struct{}, peerWindow), hash: 14695981039346656037}
		rnd.Read(m.filler)
		for t := 0; t < peerWindow; t++ {
			m.tokens <- struct{}{}
		}
		w.members = append(w.members, m)
	}
	for _, m := range w.members {
		for len(m.g.View().Members) != peerMembers {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("peer membership: %w", ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}
	// Recorders exist before the handlers do: the first delivery may come
	// at once. runPeerPass replaces them with the measured window's.
	for _, m := range w.members {
		m.rec = newRecorder(time.Now().Add(time.Hour), 0)
		m.g.SetHandler(w.handler(m))
	}
	<-w.members[0].tokens
	w.multicast(ctx, w.members[0])
	if err := w.drain(ctx); err != nil {
		return nil, err
	}
	w.setup = time.Since(start)
	return w, nil
}

func (w *peerWorld) close() {
	for _, n := range w.nodes {
		_ = n.Close() // a node owns (and closes) its endpoint
	}
}

// Payload layout: sender index, own sequence, send time, seeded filler.
const peerHeader = 1 + 8 + 8

func (w *peerWorld) multicast(ctx context.Context, m *peerMember) {
	m.seq++
	p := make([]byte, valueBytes) // the transport retains it: one fresh buffer per message
	copy(p, m.filler)
	p[0] = byte(m.idx)
	binary.LittleEndian.PutUint64(p[1:], m.seq)
	binary.LittleEndian.PutUint64(p[9:], uint64(time.Since(peerEpoch)))
	if err := m.g.Multicast(ctx, p); err != nil {
		m.errs++
		m.tokens <- struct{}{}
	}
}

// handler consumes one member's ordered delivery stream: fold the payload
// into the member's running hash and — at whichever member delivers a
// message last — account the multicast as complete, timed from its send to
// this last delivery, and hand its sender the window token back. The window
// is end to end on purpose: a member delivers its own message as soon as it
// has heard later stamps from the others, long before they received it, so a
// window on own deliveries does not bound what a sender has queued towards a
// lagging receiver. With such a window about one run in a hundred collapsed
// to one window's worth of multicasts per 500 ms resend and ended with
// multicasts undelivered (what tcpnet's drop-when-full send queue followed
// by go-back-N resends would look like).
func (w *peerWorld) handler(m *peerMember) func(gcs.Event) {
	return func(ev gcs.Event) {
		if ev.Type != gcs.EventDeliver {
			return
		}
		p := ev.Deliver.Payload
		if len(p) < peerHeader || int(p[0]) >= peerMembers {
			w.bad.Add(1)
			return
		}
		now := time.Now()
		for _, b := range p {
			m.hash = (m.hash ^ uint64(b)) * 1099511628211
		}
		m.delivered.Add(1)
		sender := int(p[0])
		slot := &w.counts[sender][binary.LittleEndian.Uint64(p[1:])&(peerRing-1)]
		switch n := slot.Add(1); {
		case n == peerMembers:
			slot.Store(0)
			sent := peerEpoch.Add(time.Duration(binary.LittleEndian.Uint64(p[9:])))
			m.rec.done(sent, now, false, true)
			w.members[sender].tokens <- struct{}{}
		case n > peerMembers:
			w.bad.Add(1)
		}
	}
}

// sent is the number of multicasts issued so far over all members.
func (w *peerWorld) sent() (n, errs uint64) {
	for _, m := range w.members {
		n += m.seq
		errs += m.errs
	}
	return n - errs, errs
}

// drain waits until every member has delivered every multicast issued.
func (w *peerWorld) drain(ctx context.Context) error {
	want, _ := w.sent()
	deadline := time.Now().Add(20 * time.Second)
	for _, m := range w.members {
		for m.delivered.Load() < want {
			if time.Now().After(deadline) || ctx.Err() != nil {
				return fmt.Errorf("peer drain: member %d delivered %d of %d multicasts", m.idx, m.delivered.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// verify checks that all members delivered byte-identical sequences.
func (w *peerWorld) verify() error {
	want, _ := w.sent()
	if n := w.bad.Load(); n > 0 {
		return fmt.Errorf("%d malformed or over-delivered messages", n)
	}
	for _, m := range w.members {
		if got := m.delivered.Load(); got != want {
			return fmt.Errorf("member %d delivered %d multicasts, %d were sent", m.idx, got, want)
		}
		if m.hash != w.members[0].hash {
			return fmt.Errorf("member %d's delivery sequence differs from member 0's (running hash %x vs %x)", m.idx, m.hash, w.members[0].hash)
		}
	}
	return nil
}

// generate drives two members from one goroutine: whichever has window to
// spare multicasts next, until the deadline.
func (w *peerWorld) generate(ctx context.Context, a, b *peerMember, end time.Time) {
	stop := time.NewTimer(time.Until(end))
	defer stop.Stop()
	for {
		select {
		case <-a.tokens:
			w.multicast(ctx, a)
		case <-b.tokens:
			w.multicast(ctx, b)
		case <-stop.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

// run starts the generators for one timed pass and waits for them.
func (w *peerWorld) run(ctx context.Context, p plan) {
	var wg sync.WaitGroup
	for i := 0; i+1 < len(w.members); i += 2 {
		a, b := w.members[i], w.members[i+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.generate(ctx, a, b, p.end())
		}()
	}
	wg.Wait()
}
