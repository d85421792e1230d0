package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"newtop/internal/ids"
)

// hookCtx is a cancellable context that counts the callbacks registered on
// its end: it hides the context it wraps from the context package (Value
// answers nil), so context.AfterFunc registers through its AfterFunc.
type hookCtx struct {
	context.Context
	mu         sync.Mutex
	registered int // ever
	live       int // neither stopped nor fired
}

func newHookCtx(t *testing.T) (*hookCtx, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &hookCtx{Context: ctx}, cancel
}

func (h *hookCtx) Value(any) any { return nil }

func (h *hookCtx) AfterFunc(f func()) func() bool {
	h.mu.Lock()
	h.registered++
	h.live++
	h.mu.Unlock()
	stop := context.AfterFunc(h.Context, func() {
		h.mu.Lock()
		h.live--
		h.mu.Unlock()
		f()
	})
	return func() bool {
		stopped := stop()
		if stopped {
			h.mu.Lock()
			h.live--
			h.mu.Unlock()
		}
		return stopped
	}
}

func (h *hookCtx) counts() (registered, live int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.registered, h.live
}

// answerFrame is the request manager's answer to call id, one reply from
// s00.
func answerFrame(e *engine, id ids.CallID, payload string) []byte {
	set := &invReplySet{Call: id, Replies: []invReply{{Call: id, Server: "s00", Payload: []byte(payload)}}}
	return encodeReplyMsg(replyMsg{To: toOpen, Group: []byte(e.group.ID()), Set: set})
}

// The detached calls launched under one context share one hook on its end,
// however their launches interleave with another context's: when one
// context ends, exactly its calls complete, with its error, and the other's
// are answered as usual.
func TestContextHookEndsExactlyItsContextsCalls(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	a, cancelA := newHookCtx(t)
	b, _ := newHookCtx(t)
	var ofA, ofB []*Call
	for i := 0; i < 6; i++ {
		ctx, calls := context.Context(a), &ofA
		if i%2 == 1 {
			ctx, calls = b, &ofB
		}
		c, err := e.InvokeAsync(ctx, "put", nil, WithMode(First))
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		*calls = append(*calls, c)
	}
	if ra, _ := a.counts(); ra != 1 {
		t.Fatalf("%d hooks registered on context A for 3 calls, want 1", ra)
	}
	if rb, _ := b.counts(); rb != 1 {
		t.Fatalf("%d hooks registered on context B for 3 calls, want 1", rb)
	}

	cancelA()
	for i, c := range ofA {
		if _, err := c.Await(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("A's call %d ended with %v, want context.Canceled", i, err)
		}
	}
	for i, c := range ofB {
		if c.ended() {
			t.Fatalf("B's call %d ended with A's context: %v", i, c.Err())
		}
		e.svc.routeReply(answerFrame(e, c.ID(), "b"))
		if replies, err := c.Await(context.Background()); err != nil || len(replies) != 1 || string(replies[0].Payload) != "b" {
			t.Fatalf("B's call %d: replies %v, err %v; want its answer", i, replies, err)
		}
	}
	// B's hook is the most recent and survives its last call; A's fired.
	if _, live := a.counts(); live != 0 {
		t.Fatalf("%d hooks still live on the ended context A", live)
	}
	if _, live := b.counts(); live != 1 {
		t.Fatalf("%d hooks live on context B, want its one", live)
	}
	if live, _ := e.hookCounts(); live != 1 {
		t.Fatalf("engine holds %d live hooks, want 1", live)
	}
}

// A caller that launches every call under a context of its own leaves at
// most one live hook once its calls are over — the most recent context's —
// and never holds more than one per context with calls outstanding, plus
// one; the stopped hooks are reused, not piled up.
func TestContextHookPerCallContextsAreBounded(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	const rounds, width = 125, 8
	var ctxs []*hookCtx
	for r := 0; r < rounds; r++ {
		calls := make([]*Call, 0, width)
		for i := 0; i < width; i++ {
			ctx, _ := newHookCtx(t)
			ctxs = append(ctxs, ctx)
			c, err := e.InvokeAsync(ctx, "put", nil, WithMode(First))
			if err != nil {
				t.Fatalf("launch: %v", err)
			}
			calls = append(calls, c)
		}
		if live, _ := e.hookCounts(); live > width+1 {
			t.Fatalf("%d live hooks for %d contexts with calls outstanding", live, width)
		}
		for _, c := range calls {
			e.svc.routeReply(answerFrame(e, c.ID(), "ok"))
			if _, err := c.Await(context.Background()); err != nil {
				t.Fatalf("call %v: %v", c.ID(), err)
			}
		}
		if live, spare := e.hookCounts(); live > 1 || spare > width+1 {
			t.Fatalf("after round %d: %d live hooks, %d spare; want at most 1 and %d", r, live, spare, width+1)
		}
	}
	registered, live := 0, 0
	for _, ctx := range ctxs {
		r, l := ctx.counts()
		registered += r
		live += l
	}
	if registered != len(ctxs) || live > 1 {
		t.Fatalf("%d calls under their own contexts: %d hooks registered, %d live; want %d and at most 1",
			len(ctxs), registered, live, len(ctxs))
	}
}

// Close stops every hook — the outstanding call's and the most recent
// context's, which survives its last call — so ending the contexts
// afterwards touches nothing: the broken call keeps its error.
func TestContextHookCloseStopsEveryHook(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	a, cancelA := newHookCtx(t)
	b, cancelB := newHookCtx(t)
	pending, err := e.InvokeAsync(a, "put", nil, WithMode(First))
	if err != nil {
		t.Fatal(err)
	}
	answered, err := e.InvokeAsync(b, "put", nil, WithMode(First))
	if err != nil {
		t.Fatal(err)
	}
	e.svc.routeReply(answerFrame(e, answered.ID(), "ok"))
	if _, err := answered.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, live := b.counts(); live != 1 {
		t.Fatalf("%d hooks live on the most recent context, want 1", live)
	}

	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := pending.Await(context.Background()); !errors.Is(err, ErrBindingBroken) {
		t.Fatalf("outstanding call ended with %v, want ErrBindingBroken", err)
	}
	_, liveA := a.counts()
	_, liveB := b.counts()
	if live, _ := e.hookCounts(); liveA != 0 || liveB != 0 || live != 0 {
		t.Fatalf("after Close: %d and %d hooks live on the contexts, %d in the engine; want none", liveA, liveB, live)
	}
	cancelA()
	cancelB()
	if !errors.Is(pending.Err(), ErrBindingBroken) {
		t.Fatalf("ending the context after Close changed the call's result to %v", pending.Err())
	}
}

// pooledSignalIsEmpty reports whether the signal the pool hands out next
// is unsent. The pool's private slot serves the goroutine's own Put back
// first, so this sees the signal an Await on this goroutine just returned.
func pooledSignalIsEmpty() bool {
	sig := signals.Get().(chan struct{})
	defer signals.Put(sig)
	return len(sig) == 0
}

// Await parks on a pooled signal that finish sends; a second waiter on the
// same call waits on Done, and both see the result.
func TestAwaitParksOnAPooledSignal(t *testing.T) {
	c := newCallFuture(ids.CallID{Client: "z00", Number: 1}, First)
	errs := make(chan error, 2)
	await := func() {
		replies, err := c.Await(context.Background())
		if err == nil && len(replies) != 1 {
			err = errors.New("no replies")
		}
		errs <- err
	}
	go await()
	for !parked(c) {
		runtime.Gosched()
	}
	go await()
	for {
		c.mu.Lock()
		second := c.done != nil
		c.mu.Unlock()
		if second {
			break
		}
		runtime.Gosched()
	}
	c.finish([]Reply{{Server: "s00"}}, nil)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("waiter: %v", err)
		}
	}
	if parked(c) {
		t.Fatal("the call still holds its waiter's signal")
	}
	if replies, err := c.Await(context.Background()); err != nil || len(replies) != 1 {
		t.Fatalf("Await after completion: %v, %v", replies, err)
	}
}

// finishingCtx ends the moment Await asks for its Done channel, after
// finishing the call: the completion and the waiter giving up race, and
// either may win Await's select.
type finishingCtx struct {
	context.Context
	c *Call
}

func (f finishingCtx) Done() <-chan struct{} {
	f.c.finish(nil, errFinished)
	return closedDone
}

func (f finishingCtx) Err() error { return context.Canceled }

var errFinished = errors.New("finished")

// A waiter that gives up on its context after finish took its signal
// drains the signal before it goes back to the pool, so the next Await
// parks until its own call completes.
func TestAwaitThatGivesUpDrainsItsSignal(t *testing.T) {
	gaveUp := 0
	for i := 0; i < 200; i++ {
		c := newCallFuture(ids.CallID{Client: "z00", Number: uint64(i + 1)}, First)
		_, err := c.Await(finishingCtx{context.Background(), c})
		switch {
		case errors.Is(err, context.Canceled):
			gaveUp++
		case !errors.Is(err, errFinished):
			t.Fatalf("Await returned %v", err)
		}
		if !pooledSignalIsEmpty() {
			t.Fatalf("round %d (%v): the signal went back to the pool still sent", i, err)
		}
	}
	if gaveUp == 0 {
		t.Fatal("no waiter gave up after its call finished: the drain was never exercised")
	}
}

// A waiter that gives up before its call completes takes its signal back
// unsent, and the completion that follows sends to nobody.
func TestAwaitThatGivesUpFirstLeavesNoSignal(t *testing.T) {
	c := newCallFuture(ids.CallID{Client: "z00", Number: 1}, First)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for !parked(c) {
			runtime.Gosched()
		}
		cancel()
	}()
	if _, err := c.Await(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Await returned %v, want context.Canceled", err)
	}
	if parked(c) {
		t.Fatal("the waiter left its signal with the call")
	}
	if !pooledSignalIsEmpty() {
		t.Fatal("the signal went back to the pool sent")
	}
	c.finish(nil, errFinished)
	if !errors.Is(c.Err(), errFinished) {
		t.Fatalf("call ended with %v", c.Err())
	}
}
