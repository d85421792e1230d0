package gcs

import (
	"context"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport"
	"newtop/internal/transport/memnet"
)

// commitHoldEP reorders one member's inbound stream: the commit of view
// seq waits until the proposal of view seq+1 has been passed on, then
// follows it. Everything else flows in arrival order. It hides the inner
// endpoint's batch pull, so the node consumes Inbound.
type commitHoldEP struct {
	transport.Endpoint
	seq ids.ViewSeq
	out chan transport.Inbound
}

func newCommitHoldEP(inner transport.Endpoint, seq ids.ViewSeq) *commitHoldEP {
	h := &commitHoldEP{Endpoint: inner, seq: seq, out: make(chan transport.Inbound, 64)}
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
		switch m := msg.(type) {
		case *commitMsg:
			if !released && m.NewSeq == h.seq {
				held = append(held, in)
				continue
			}
		case *proposeMsg:
			if !released && m.NewSeq == h.seq+1 {
				h.out <- in
				for _, c := range held {
					h.out <- c
				}
				held, released = nil, true
				continue
			}
		}
		h.out <- in
	}
}

// TestProposalThatOvertakesTheCommitIsResent pins the coordinator's
// proposal resend. Member b is in view 2 [a b] while a commits view 3
// [a b z]; z, the configured leader, coordinates the next round as soon as
// it installs view 3, and its view-4 proposal reaches b before a's commit
// does. b drops a proposal from outside its view, so unless z resends it to
// the members whose ack is missing, z waits out FlushTimeout and installs
// view 4 without the healthy b.
func TestProposalThatOvertakesTheCommitIsResent(t *testing.T) {
	cfg := GroupConfig{
		Order:          OrderSymmetric,
		Liveness:       Lively,
		Leader:         "z",
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 5 * time.Second,
		Resend:         20 * time.Millisecond,
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
	b := node("b", func(ep transport.Endpoint) transport.Endpoint { return newCommitHoldEP(ep, 3) })
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
		t.Fatalf("view %d %v installed after %v without the healthy member b (FlushTimeout %v): the proposal b dropped was never resent",
			v.Seq, v.Members, time.Since(start), cfg.FlushTimeout)
	}
	waitFor(t, 5*time.Second, func() bool { return gb.View().Seq == v.Seq })
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
