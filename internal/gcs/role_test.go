package gcs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport"
	"newtop/internal/transport/memnet"
)

// joinDropEP drops every join request of joiner its member receives, and
// closes dropped at the first.
type joinDropEP struct {
	transport.Endpoint
	joiner  ids.ProcessID
	out     chan transport.Inbound
	dropped chan struct{}
}

func newJoinDropEP(inner transport.Endpoint, joiner ids.ProcessID) *joinDropEP {
	h := &joinDropEP{Endpoint: inner, joiner: joiner, out: make(chan transport.Inbound, 64), dropped: make(chan struct{})}
	go h.pump()
	return h
}

func (h *joinDropEP) Inbound() <-chan transport.Inbound { return h.out }

func (h *joinDropEP) pump() {
	defer close(h.out)
	var once sync.Once
	for in := range h.Endpoint.Inbound() {
		if msg, _ := decodeMessage(in.Payload); msg != nil {
			if j, ok := msg.(*joinMsg); ok && j.Joiner == h.joiner {
				once.Do(func() { close(h.dropped) })
				continue
			}
		}
		h.out <- in
	}
}

// TestClientRoleSurvivesACoordinatorChange joins z as a client through b
// while the coordinator a is lost: a drops the join b forwards to it, then
// crashes, and b, its successor, admits z from the join z resends. Every
// member's view lists z among its clients, and so does the view of the next
// membership change, which the new coordinator builds from its own view.
func TestClientRoleSurvivesACoordinatorChange(t *testing.T) {
	cfg := GroupConfig{
		Order:          OrderSequencer,
		Liveness:       Lively,
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 250 * time.Millisecond,
		Resend:         20 * time.Millisecond,
		FlushTimeout:   150 * time.Millisecond,
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
	var drop *joinDropEP
	a := node("a", func(ep transport.Endpoint) transport.Endpoint { drop = newJoinDropEP(ep, "z"); return drop })
	b, c, z := node("b", plain), node("c", plain), node("z", plain)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := a.Create("g", cfg); err != nil {
		t.Fatal(err)
	}
	gb, err := b.Join(ctx, "g", "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := c.Join(ctx, "g", "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan *Group, 1)
	go func() {
		g, err := z.JoinClient(ctx, "g", "b", cfg)
		if err != nil {
			t.Errorf("client join: %v", err)
		}
		joined <- g
	}()
	select {
	case <-drop.dropped:
	case <-ctx.Done():
		t.Fatal("the join never reached the coordinator")
	}
	net.Sim().Crash("a")
	gz := <-joined
	if gz == nil {
		return
	}

	roles := func(v View) string {
		return fmt.Sprintf("%v clients %v servers %v", v.Members, v.Clients, v.Servers(nil))
	}
	want := "[b c z] clients [z] servers [b c]"
	for _, g := range []*Group{gb, gc, gz} {
		waitView(t, g, 10*time.Second, func(v View) bool { return len(v.Members) == 3 })
		if got := roles(g.View()); got != want {
			t.Fatalf("%s: view %s, want %s", g.Me(), got, want)
		}
	}
	if err := gc.Leave(); err != nil {
		t.Fatal(err)
	}
	want = "[b z] clients [z] servers [b]"
	for _, g := range []*Group{gb, gz} {
		waitView(t, g, 10*time.Second, func(v View) bool { return len(v.Members) == 2 })
		if got := roles(g.View()); got != want {
			t.Fatalf("%s: view %s, want %s", g.Me(), got, want)
		}
	}
}

// waitView polls until g's view satisfies pred.
func waitView(t *testing.T, g *Group, timeout time.Duration, pred func(View) bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !pred(g.View()); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: view %v never came", g.Me(), g.View())
		}
	}
}
