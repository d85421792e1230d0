package gcs

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport"
	"newtop/internal/transport/memnet"
)

// commitHoldEP reorders one member's inbound stream: the commit of view
// seq waits until a frame that until accepts has been passed on, then
// follows it. Everything else flows in arrival order. It hides the inner
// endpoint's batch pull, so the node consumes Inbound.
type commitHoldEP struct {
	transport.Endpoint
	seq      ids.ViewSeq
	until    func(msg any) bool
	out      chan transport.Inbound
	released atomic.Int64 // UnixNano when the held commit was passed on
}

func newCommitHoldEP(inner transport.Endpoint, seq ids.ViewSeq, until func(msg any) bool) *commitHoldEP {
	h := &commitHoldEP{Endpoint: inner, seq: seq, until: until, out: make(chan transport.Inbound, 64)}
	go h.pump()
	return h
}

func (h *commitHoldEP) Inbound() <-chan transport.Inbound { return h.out }

func (h *commitHoldEP) pump() {
	defer close(h.out)
	var held []transport.Inbound
	released := false
	for in := range h.Endpoint.Inbound() {
		msg, _ := decodeMessage(in.Payload)
		if m, ok := msg.(*commitMsg); ok && !released && m.NewSeq == h.seq {
			held = append(held, in)
			continue
		}
		h.out <- in
		if !released && h.until(msg) {
			if len(held) > 0 {
				h.released.Store(time.Now().UnixNano())
			}
			for _, c := range held {
				h.out <- c
			}
			held, released = nil, true
		}
	}
}

// releasedAt is when the held commit was passed on (zero before then).
func (h *commitHoldEP) releasedAt() time.Time {
	if ns := h.released.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return time.Time{}
}

// proposalOf matches the proposal of view seq.
func proposalOf(seq ids.ViewSeq) func(msg any) bool {
	return func(msg any) bool {
		p, ok := msg.(*proposeMsg)
		return ok && p.NewSeq == seq
	}
}

// TestProposalThatOvertakesTheCommitIsResent pins the coordinator's
// proposal resend. Member b is in view 2 [a b] while a commits view 3
// [a b z]; z, the configured leader, coordinates the next round as soon as
// it installs view 3, and its view-4 proposal reaches b before a's commit
// does. b holds a proposal from outside its view until that commit, and
// the coordinator resends it to the members whose ack is missing in case
// it was lost; without either, z waits out FlushTimeout and installs view
// 4 without the healthy b.
func TestProposalThatOvertakesTheCommitIsResent(t *testing.T) {
	overtakenProposal(t, 20*time.Millisecond)
}

// TestProposalThatOvertakesTheCommitIsHeld is the same race with the resend
// out of reach: b's hold alone must carry the proposal to its ack.
func TestProposalThatOvertakesTheCommitIsHeld(t *testing.T) {
	overtakenProposal(t, time.Minute)
}

func overtakenProposal(t *testing.T, resend time.Duration) {
	cfg := GroupConfig{
		Order:          OrderSymmetric,
		Liveness:       Lively,
		Leader:         "z",
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 5 * time.Second,
		Resend:         resend,
		FlushTimeout:   3 * time.Second,
		Tick:           2 * time.Millisecond,
	}
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	node := func(id ids.ProcessID, wrap func(transport.Endpoint) transport.Endpoint) *Node {
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(wrap(ep))
		t.Cleanup(func() { _ = n.Close() })
		return n
	}
	plain := func(ep transport.Endpoint) transport.Endpoint { return ep }
	a := node("a", plain)
	b := node("b", func(ep transport.Endpoint) transport.Endpoint { return newCommitHoldEP(ep, 3, proposalOf(4)) })
	z := node("z", plain)
	c := node("c", plain)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := a.Create("g", cfg); err != nil {
		t.Fatal(err)
	}
	gb, err := b.Join(ctx, "g", "a", cfg) // view 2 [a b]
	if err != nil {
		t.Fatal(err)
	}
	if _, err := z.Join(ctx, "g", "a", cfg); err != nil { // view 3 [a b z], its commit to b held
		t.Fatal(err)
	}
	start := time.Now()
	gc, err := c.Join(ctx, "g", "z", cfg) // view 4, proposed by z
	if err != nil {
		t.Fatal(err)
	}
	v := gc.View()
	if !v.Contains("b") {
		t.Fatalf("view %d %v installed after %v without the healthy member b (FlushTimeout %v): b neither held the proposal nor got it resent",
			v.Seq, v.Members, time.Since(start), cfg.FlushTimeout)
	}
	waitFor(t, 5*time.Second, func() bool { return gb.View().Seq == v.Seq })
}

// appIn matches a data-carrying frame with an application message that
// sender multicast in view seq.
func appIn(seq ids.ViewSeq, sender ids.ProcessID) func(msg any) bool {
	return func(msg any) bool {
		var msgs []*dataMsg
		switch m := msg.(type) {
		case *dataMsg:
			msgs = []*dataMsg{m}
		case *batchMsg:
			msgs = m.Msgs
		}
		for _, m := range msgs {
			if m.ViewSeq == seq && m.Sender == sender && !m.Null {
				return true
			}
		}
		return false
	}
}

// TestEarlyTrafficIsHeldUntilItsViewInstalls pins the hold of a view's
// early traffic. The coordinator a installs view 3 [a b c] and multicasts
// in it at once, while the commit of view 3 to one member is held until
// that multicast has reached it: the member is either the joiner c or b,
// installed in view 2 and flushing with its ack sent. The member must
// deliver the message right after the commit, with no resend — Resend is
// out of the test's reach, so a dropped message would never come back in
// time. The batch cases put the message in a batch envelope.
func TestEarlyTrafficIsHeldUntilItsViewInstalls(t *testing.T) {
	for _, tc := range []struct {
		name   string
		order  OrderMode
		batch  bool
		joiner bool // the held member is the joiner c, else the flushing b
	}{
		{"joiner", OrderSequencer, false, true},
		{"flushing", OrderSymmetric, false, false},
		{"batch-joiner", OrderSymmetric, true, true},
		{"batch-flushing", OrderSequencer, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := GroupConfig{
				Order:          tc.order,
				Liveness:       Lively,
				Batch:          tc.batch,
				TimeSilence:    5 * time.Millisecond,
				SuspectTimeout: 5 * time.Second,
				Resend:         time.Minute,
				FlushTimeout:   5 * time.Second,
				Tick:           2 * time.Millisecond,
			}
			net := memnet.New(netsim.New(netsim.FastProfile(), 1))
			var hold *commitHoldEP
			node := func(id ids.ProcessID, held bool) *Node {
				ep, err := net.Endpoint(id, netsim.SiteLAN)
				if err != nil {
					t.Fatal(err)
				}
				var tep transport.Endpoint = ep
				if held {
					hold = newCommitHoldEP(ep, 3, appIn(3, "a"))
					tep = hold
				}
				n := NewNode(tep)
				t.Cleanup(func() { _ = n.Close() })
				return n
			}
			a, b, c := node("a", false), node("b", !tc.joiner), node("c", tc.joiner)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ga, err := a.Create("g", cfg)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := b.Join(ctx, "g", "a", cfg) // view 2 [a b]
			if err != nil {
				t.Fatal(err)
			}
			type joined struct {
				g   *Group
				err error
			}
			cj := make(chan joined, 1)
			go func() {
				g, err := c.Join(ctx, "g", "a", cfg) // view 3 [a b c]
				cj <- joined{g, err}
			}()
			waitFor(t, 5*time.Second, func() bool { return ga.View().Seq == 3 })
			payloads := []string{"x"}
			if tc.batch {
				payloads = []string{"x", "y"}
			}
			// One lock hold, so the batch cases go out as one envelope.
			ga.mu.Lock()
			for _, p := range payloads {
				ga.sendDataLocked(false, []byte(p))
			}
			ga.flushBatchLocked()
			ga.mu.Unlock()

			r := <-cj
			if r.err != nil {
				t.Fatal(r.err)
			}
			held := gb
			if tc.joiner {
				held = r.g
			}
			deadline := time.After(2 * time.Second)
			for _, want := range payloads {
				var d *Delivery
				for d == nil {
					select {
					case ev := <-held.Events():
						if ev.Type == EventDeliver {
							d = ev.Deliver
						}
					case <-deadline:
						t.Fatalf("%s never delivered %q: the early message was dropped (Resend %v)", held.Me(), want, cfg.Resend)
					}
				}
				if string(d.Payload) != want || d.ViewSeq != 3 {
					t.Fatalf("%s delivered %q in view %d, want %q in view 3", held.Me(), d.Payload, d.ViewSeq, want)
				}
			}
			if lag, bound := time.Since(hold.releasedAt()), 25*cfg.Tick; lag > bound {
				t.Errorf("delivered %v after the commit, want within %v", lag, bound)
			}
			for _, g := range []*Group{ga, gb, r.g} {
				if n := g.Stats().Resent; n != 0 {
					t.Errorf("%s resent %d messages", g.Me(), n)
				}
			}
		})
	}
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before the deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
