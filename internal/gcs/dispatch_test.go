package gcs_test

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
)

// TestLateConsumerGetsBacklogInOrder pins the consumer contract of the
// dispatch stage, which SetHandler is the one way into: events produced
// before a group has a consumer wait in its dispatch queue and reach the
// consumer first, in order — the founding view, the view that admitted the
// peer, the deliveries that overtook the consumer — and live traffic
// follows. Events is an adaptor over it with the same contract, one channel
// per group, closed by Leave; and Leave waits out a running handler.
func TestLateConsumerGetsBacklogInOrder(t *testing.T) {
	const backlog, live = 20, 10
	h := newHarness(t, 2)
	cfg := testConfig(gcs.OrderSequencer)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// late runs one group through a late consumer and returns its stream.
	late := func(t *testing.T, gid ids.GroupID, consume func(*gcs.Group) <-chan gcs.Event) (*gcs.Group, <-chan gcs.Event) {
		t.Helper()
		groups := h.buildGroup(gid, cfg)
		g, peer := groups[0], groups[1]
		for i := 0; i < backlog; i++ {
			if err := peer.Multicast(ctx, []byte(fmt.Sprintf("b%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); g.Stats().AppDelivered < backlog; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d backlog deliveries ordered", g.Stats().AppDelivered, backlog)
			}
		}
		evs := consume(g)
		for i := 0; i < live; i++ {
			if err := peer.Multicast(ctx, []byte(fmt.Sprintf("l%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{fmt.Sprint([]ids.ProcessID{g.Me()}), fmt.Sprint([]ids.ProcessID{g.Me(), peer.Me()})}
		for i := 0; i < backlog; i++ {
			want = append(want, fmt.Sprintf("b%d", i))
		}
		for i := 0; i < live; i++ {
			want = append(want, fmt.Sprintf("l%d", i))
		}
		var got []string
		for len(got) < len(want) {
			select {
			case ev := <-evs:
				if ev.Type == gcs.EventView {
					got = append(got, fmt.Sprint(ev.View.Members))
				} else {
					got = append(got, string(ev.Deliver.Payload))
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("stream stalled after %v", got)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("late consumer saw\n%v\nwant\n%v", got, want)
		}
		return g, evs
	}

	t.Run("SetHandler", func(t *testing.T) {
		late(t, "late/handler", func(g *gcs.Group) <-chan gcs.Event {
			ch := make(chan gcs.Event, 2+backlog+live)
			g.SetHandler(func(ev gcs.Event) { ch <- ev })
			return ch
		})
	})

	t.Run("Events", func(t *testing.T) {
		g, evs := late(t, "late/events", func(g *gcs.Group) <-chan gcs.Event {
			ch := g.Events()
			if g.Events() != ch {
				t.Fatal("two Events calls returned two channels")
			}
			return ch
		})
		if err := g.Leave(); err != nil {
			t.Fatal(err)
		}
		for range evs { // closed by Leave: the range ends
		}
		idle, err := h.nodes[0].Create("late/left", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := idle.Leave(); err != nil {
			t.Fatal(err)
		}
		select {
		case _, ok := <-idle.Events():
			if ok {
				t.Fatal("Events after Leave delivered an event")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Events after Leave returned an open channel")
		}
	})

	t.Run("LeaveWaitsOutHandler", func(t *testing.T) {
		groups := h.buildGroup("late/busy", cfg)
		g, peer := groups[0], groups[1]
		entered, release := make(chan struct{}), make(chan struct{})
		var left atomic.Bool
		var after atomic.Int32
		blocked := false
		g.SetHandler(func(ev gcs.Event) {
			if left.Load() {
				after.Add(1)
			}
			if ev.Type == gcs.EventDeliver && !blocked {
				blocked = true // handler calls are serialised: no lock needed
				close(entered)
				<-release
			}
		})
		if err := peer.Multicast(ctx, []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("handler never ran")
		}
		done := make(chan struct{})
		go func() {
			_ = g.Leave()
			left.Store(true)
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("Leave returned while the handler was running")
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Leave never returned after the handler did")
		}
		for i := 0; i < 5; i++ {
			_ = peer.Multicast(ctx, []byte("y")) // the left member must see none of these
		}
		time.Sleep(50 * time.Millisecond)
		if n := after.Load(); n != 0 {
			t.Fatalf("%d handler calls after Leave returned", n)
		}
	})
}
