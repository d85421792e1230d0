package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/transport"
)

// frameHold holds back group-communication frames to one member and, on
// release, sends them in their order, before any later one: the member sees
// its peers' traffic late, never lost. Until release it may also drop the
// senders' ORB one-ways to one process (dropAnswersTo).
type frameHold struct {
	mu     sync.Mutex
	active bool
	queue  []heldFrame
	dropTo ids.ProcessID
}

type heldFrame struct {
	from  *tap
	to    ids.ProcessID
	frame []byte
}

// holdGroupTraffic holds every group-communication frame each of senders
// sends to the member to, until release.
func (w *world) holdGroupTraffic(to ids.ProcessID, senders ...ids.ProcessID) *frameHold {
	h := &frameHold{active: true}
	for _, id := range senders {
		from := w.taps[id]
		from.set(func(dst ids.ProcessID, frame []byte) bool {
			h.mu.Lock()
			defer h.mu.Unlock()
			if dst == h.dropTo && orbFrame(frame, orbOneWay) {
				return true
			}
			if dst != to || len(frame) == 0 || frame[0] != transport.ProtoGCS {
				return false
			}
			if !h.active && len(h.queue) == 0 {
				return false
			}
			h.queue = append(h.queue, heldFrame{from, dst, append([]byte(nil), frame...)})
			return true
		})
	}
	w.t.Cleanup(func() {
		for _, id := range senders {
			w.taps[id].set(nil)
		}
	})
	return h
}

// dropAnswersTo drops the senders' ORB one-ways to client until release:
// a request manager's answers never reach it.
func (h *frameHold) dropAnswersTo(client ids.ProcessID) {
	h.mu.Lock()
	h.dropTo = client
	h.mu.Unlock()
}

// release sends the held frames and lets later ones through.
func (h *frameHold) release() {
	h.mu.Lock()
	h.dropTo = ""
	h.mu.Unlock()
	for {
		h.mu.Lock()
		batch := h.queue
		h.queue = nil
		if len(batch) == 0 {
			h.active = false
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
		for _, f := range batch {
			_ = f.from.Endpoint.Send(f.to, f.frame)
		}
	}
}

// expectExecs fails unless every server ran its handler exactly n times.
func (w *world) expectExecs(n int64) {
	w.t.Helper()
	for id, c := range w.calls {
		if got := c.Load(); got != n {
			w.t.Errorf("%s ran %d executions, want %d: each call exactly once", id, got, n)
		}
	}
}

// An async-forward primary relays a call into the server group and executes
// it at once, outside the order; when its own relay comes back in order, it
// must find the call already executed and run nothing. Here its relays come
// back only after more than 4,096 further calls — a server that retains
// replies by count has forgotten them by then and runs every one of them
// again. The primary (the sequencer, restricted binding) delivers a
// server-group message only once it has heard every other member past it,
// so holding the backups' group traffic to it holds all its deliveries.
func TestPrimaryRunsNothingWhenItsRelaysComeBackLate(t *testing.T) {
	timers := testTimers()
	timers.SuspectTimeout = time.Minute // the backups, held, must not be suspected
	timers.Order = gcs.OrderSequencer
	w := newWorldTimers(t, 3, 1, timers)
	cfg := w.bindCfg(core.Open)
	cfg.Restricted, cfg.AsyncForward, cfg.Window = true, true, 64
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	hold := w.holdGroupTraffic("s00", "s01", "s02")

	const calls = 4096 + 256
	ctx := ctxT(t, 60*time.Second)
	futures := make([]*core.Call, 0, calls)
	for i := 0; i < calls; i++ {
		c, err := b.InvokeAsync(ctx, "put", []byte("k=v"), core.WithMode(core.First))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		futures = append(futures, c)
	}
	for i, c := range futures {
		if _, err := c.Await(ctx); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := w.calls["s00"].Load(); n != calls {
		t.Fatalf("the primary ran %d executions before its relays were delivered, want %d", n, calls)
	}
	hold.release()

	// A wait-for-all call through the same manager is ordered behind every
	// relay, and it needs the primary's own execution: once it is answered,
	// the primary has delivered them all.
	cfg.Restricted, cfg.AsyncForward = false, false
	barrier, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer barrier.Close()
	if _, err := barrier.Call(ctx, "put", []byte("k=v"), core.WithMode(core.All)); err != nil {
		t.Fatalf("barrier call: %v", err)
	}
	w.expectExecs(calls + 1)
}

// A client reaching one server group by two paths must not let a later
// call's floor overtake an earlier call's async-forward relay. The primary
// s00, the server group's sequencer, relays call N into the order before it
// answers, so the client's floor passes N at N's answer, and the client's
// next call, N+1 through s02, carries that floor. s02 hears nothing from s00
// meanwhile — neither N's relay nor the slot N+1 takes — and still N is
// ordered ahead of N+1 everywhere, so no backup refuses N's relay.
func TestAsyncForwardFloorWaitsForTheRelay(t *testing.T) {
	timers := testTimers()
	timers.SuspectTimeout = time.Minute // s02 hears nothing from the sequencer for a while
	timers.Order = gcs.OrderSequencer
	w := newWorldTimers(t, 3, 1, timers)
	cfgA := w.bindCfg(core.Open)
	cfgA.Contact, cfgA.AsyncForward = "s00", true
	a, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfgB := w.bindCfg(core.Open)
	cfgB.Contact = "s02"
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	hold := w.holdGroupTraffic("s02", "s00")
	ctx := ctxT(t, 20*time.Second)
	first, err := a.InvokeAsync(ctx, "put", []byte("k=1"), core.WithMode(core.First))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Await(ctx); err != nil {
		t.Fatalf("async-forward call: %v", err)
	}
	if floor, _ := w.clients[0].DebugFloor(); floor <= first.ID().Number {
		t.Fatalf("floor %d once call %d was answered; its relay is ordered, so want it past the call", floor, first.ID().Number)
	}
	later, err := b.InvokeAsync(ctx, "put", []byte("k=2"), core.WithMode(core.Majority))
	if err != nil {
		t.Fatal(err)
	}
	w.awaitExecs(2, "s01") // N, then N+1
	if n := w.calls["s02"].Load(); n != 0 {
		t.Fatalf("s02 ran %d executions while it heard nothing from the sequencer", n)
	}
	hold.release()
	if _, err := later.Await(ctx); err != nil {
		t.Fatalf("the later call: %v", err)
	}
	if _, err := b.Call(ctx, "put", []byte("k=3"), core.WithMode(core.All)); err != nil {
		t.Fatalf("barrier call: %v", err)
	}
	w.expectExecs(3)
}

// The same two paths, but the client gives up on call N before the
// primary's answer reaches it: the call ends knowing nothing of whether the
// primary relayed it, which it has. Its number must stay held — were it
// released before N's relay was sent, N+1's floor could pass N ahead of the
// relay, and the backups would refuse the relay that the primary ran —
// until an answer to a later call through the same primary shows the relay
// went out before it.
func TestAsyncForwardFloorWaitsForAnAbandonedCallsRelay(t *testing.T) {
	timers := testTimers()
	timers.SuspectTimeout = time.Minute // s02 hears nothing from the sequencer for a while
	timers.Order = gcs.OrderSequencer
	w := newWorldTimers(t, 3, 1, timers)
	cfgA := w.bindCfg(core.Open)
	cfgA.Contact, cfgA.AsyncForward = "s00", true
	cfgA.GCS.SuspectTimeout = time.Minute // the call waits out its context on s00's silence
	a, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfgB := w.bindCfg(core.Open)
	cfgB.Contact = "s02"
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	hold := w.holdGroupTraffic("s02", "s00")
	hold.dropAnswersTo(w.clients[0].ID())
	short, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, err = a.Call(short, "put", []byte("k=1"), core.WithMode(core.First))
	cancel()
	if err == nil {
		t.Fatal("a call whose answer was dropped completed")
	}
	w.awaitExecs(1, "s00") // the primary relayed N and ran it
	floor, next := w.clients[0].DebugFloor()
	if floor != next {
		t.Fatalf("floor %d once call %d was abandoned; want it held at the call", floor, next)
	}
	abandoned := next
	ctx := ctxT(t, 20*time.Second)
	later, err := b.InvokeAsync(ctx, "put", []byte("k=2"), core.WithMode(core.Majority))
	if err != nil {
		t.Fatal(err)
	}
	w.awaitExecs(2, "s01")
	hold.release()
	if _, err := later.Await(ctx); err != nil {
		t.Fatalf("the later call: %v", err)
	}
	if _, err := b.Call(ctx, "put", []byte("k=3"), core.WithMode(core.All)); err != nil {
		t.Fatalf("barrier call: %v", err)
	}
	w.expectExecs(3)

	// An answer through the same primary shows N's relay went out.
	if _, err := a.Call(ctx, "put", []byte("k=4"), core.WithMode(core.First)); err != nil {
		t.Fatal(err)
	}
	if floor, _ = w.clients[0].DebugFloor(); floor <= abandoned {
		t.Fatalf("floor %d: the abandoned call %d is still held after a later answer", floor, abandoned)
	}
}

// A caller that names, with WithCallID, one of its own call numbers whose
// call is over is refused before anything is sent. The servers retain a
// call only until its client's floor passes it, and the floor the request
// would carry is past its own call: a primary that had not seen the call
// would run it, and relay it under a floor every backup refuses it by.
func TestStaleRetryThroughAnotherPrimarySendsNothing(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Contact, cfg.AsyncForward = "s01", true
	a, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfg.Contact = "s02"
	c, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxT(t, 20*time.Second)
	first, err := a.InvokeAsync(ctx, "put", []byte("k=1"), core.WithMode(core.First))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Await(ctx); err != nil {
		t.Fatal(err)
	}
	calls := int64(1)
	deadline := time.Now().Add(10 * time.Second)
	for floor, _ := w.clients[0].DebugFloor(); floor <= first.ID().Number; floor, _ = w.clients[0].DebugFloor() {
		if time.Now().After(deadline) {
			t.Fatalf("floor %d: call %d is still held", floor, first.ID().Number)
		}
		if _, err := a.Call(ctx, "put", []byte("k=2"), core.WithMode(core.First)); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	// A wait-for-first call returns at its first reply: the other replicas
	// may still be running the calls made so far, and a count that is
	// still moving is not an execution of the stale retry.
	for w.totalCalls() != 3*calls {
		if time.Now().After(deadline) {
			t.Fatalf("%d executions of %d calls at 3 replicas, want %d", w.totalCalls(), calls, 3*calls)
		}
		time.Sleep(time.Millisecond)
	}
	before := w.totalCalls()
	_, err = c.Call(ctx, "put", []byte("k=1"), core.WithCallID(first.ID()), core.WithMode(core.First))
	if !errors.Is(err, core.ErrStaleRetry) {
		t.Fatalf("a retry of call %d, which is over, returned %v; want ErrStaleRetry", first.ID().Number, err)
	}
	if after := w.totalCalls(); after != before {
		t.Fatalf("the stale retry ran %d executions", after-before)
	}
	if _, err := c.Call(ctx, "put", []byte("k=3"), core.WithMode(core.All)); err != nil {
		t.Fatalf("barrier call: %v", err)
	}
	w.expectExecs(calls + 1)
}

// A retry of a call its client's floor has passed finds nothing retained.
// The client refuses it before anything is sent, so no handler runs; a
// stale request that reaches a server all the same — a late copy — is
// refused there (TestStaleRequestIsRefusedWhereItIsServed).
func TestStaleRetryIsRefused(t *testing.T) {
	for _, style := range []core.Style{core.Open, core.Closed} {
		t.Run(style.String(), func(t *testing.T) {
			w := newWorld(t, 3, 1)
			b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(style))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			ctx := ctxT(t, 10*time.Second)
			first, err := b.InvokeAsync(ctx, "echo", []byte("x"), core.WithMode(core.All))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := first.Await(ctx); err != nil {
				t.Fatal(err)
			}
			// The next call carries a floor past the first, and every replica
			// executes it, so every replica has applied that floor.
			if _, err := b.Call(ctx, "echo", []byte("y"), core.WithMode(core.All)); err != nil {
				t.Fatal(err)
			}
			before := w.totalCalls()
			replies, err := b.Call(ctx, "echo", []byte("x"), core.WithCallID(first.ID()), core.WithMode(core.All))
			for _, r := range replies {
				if err == nil {
					err = r.Err
				}
			}
			if !errors.Is(err, core.ErrStaleRetry) {
				t.Fatalf("retry below the floor answered with %d replies, err %v; want ErrStaleRetry", len(replies), err)
			}
			if after := w.totalCalls(); after != before {
				t.Fatalf("the stale retry ran %d executions", after-before)
			}
		})
	}
}

// A call its caller gives up on is done: its number is released, so a
// client whose calls time out keeps its floor moving and its servers'
// windows short.
func TestAbandonedCallReleasesTheFloor(t *testing.T) {
	w := newWorld(t, 3, 1)
	b := w.bindOpen("s00")
	w.taps["s00"].set(dropReplies) // the request manager's answers never arrive
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	_, err := b.Call(ctx, "echo", []byte("lost"), core.WithMode(core.All))
	cancel()
	if err == nil {
		t.Fatal("a call whose answer was dropped completed")
	}
	w.taps["s00"].set(nil)
	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("next"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}
	if floor, next := w.clients[0].DebugFloor(); floor != next+1 {
		t.Fatalf("floor %d with every call up to %d over, want %d", floor, next, next+1)
	}
}

// A client that crashes is forgotten at every replica: its request manager
// sees it leave the binding group, finds it no longer answers a ping, and
// relays a forget in the server group's order. Each replica keeps only a
// tombstone, whose floor is past every call of the client it delivered.
func TestCrashedClientIsForgottenEverywhere(t *testing.T) {
	w := newWorld(t, 3, 1)
	b := w.bindOpen("s00")
	ctx := ctxT(t, 10*time.Second)
	// A number nothing releases holds the client's floor, so the servers
	// retain every call from it on.
	held := w.clients[0].DebugNewCall()
	if _, err := b.Call(ctx, "echo", []byte("x"), core.WithCallID(held), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(ctx, "echo", []byte("y"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}
	client := w.clients[0].ID()
	for _, s := range w.servers {
		if floor, n := s.DebugRetained("sg", client); floor > held.Number || n < 2 {
			t.Fatalf("%s retains %d calls of %s from %d; want both calls, from %d", s.ID(), n, client, floor, held.Number)
		}
	}
	w.net.Sim().Crash(client)
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range w.servers {
		for {
			floor, n := s.DebugRetained("sg", client)
			if n == 0 && floor > held.Number+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still retains %d calls of the crashed client from floor %d", s.ID(), n, floor)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
