package core_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"newtop/internal/core"
)

// allStacks returns every goroutine's stack, one block per goroutine.
func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// stackLines counts the lines of every goroutine's stack that match.
func stackLines(match func(line string) bool) int {
	lines := 0
	for _, line := range strings.Split(allStacks(), "\n") {
		if match(line) {
			lines++
		}
	}
	return lines
}

// fifoPumps counts the goroutines running a queue.FIFO channel pump.
func fifoPumps() int {
	return stackLines(func(line string) bool {
		return strings.Contains(line, "internal/queue.(*FIFO") && strings.Contains(line, ").pump(")
	})
}

// TestBoundServicesRunNoFIFOPumps pins the batch-pull receive path: every
// product loop between the socket and the group consumes its FIFO through
// PopBatch, so a served, bound, idle world runs no channel pump at all —
// and every server, a replica that joined with state transfer included,
// consumes its group off the dispatch stage.
// With the channel path each service paid one pump for its endpoint, two
// for its Mux channels and one per channel-consumed group (a client's
// binding group, a request manager's client/server group): 15 here.
func TestBoundServicesRunNoFIFOPumps(t *testing.T) {
	w := newWorld(t, 2, 2)
	bo, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	defer bo.Close()
	bc, err := w.clients[1].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Closed))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	for _, b := range []*core.Binding{bo, bc} {
		if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.All)); err != nil {
			t.Fatal(err)
		}
	}
	if n := fifoPumps(); n != 0 {
		t.Fatalf("%d FIFO pump goroutines in a bound, idle world; product code must consume through PopBatch", n)
	}

	// A replica that joined with state transfer runs off the dispatch stage
	// like every server: once caught up it adds no goroutine of its own, as
	// an idle plain server adds none — and, serving no binding, it starts no
	// client prober either.
	jw := newJoinWorld(t, 36)
	// The lowest of a series of samples, the first a moment after the
	// caller's last step (a prober just started may not show yet): the first
	// world's prober runs a round every 200ms, and a round's frames come and
	// go.
	serverFrames := func() int {
		low := -1
		for i := 0; i < 20; i++ {
			time.Sleep(10 * time.Millisecond)
			n := stackLines(func(line string) bool {
				return strings.Contains(line, "internal/core.(*Server)") || strings.Contains(line, "internal/core.(*Service).probeClients(")
			})
			if low < 0 || n < low {
				low = n
			}
		}
		return low
	}
	before := serverFrames()
	if _, err := jw.r9.svc.ServeReplica(ctxT(t, 10*time.Second), jw.r9.config("r1")); err != nil {
		t.Fatal(err)
	}
	if n := serverFrames() - before; n != 0 {
		t.Fatalf("a caught-up replica runs %d more server stack frames than before it joined; want none", n)
	}
	if n := fifoPumps(); n != 0 {
		t.Fatalf("%d FIFO pump goroutines with a caught-up replica", n)
	}
}

// settledGoroutines counts the process's goroutines once it is idle: the
// lowest of a series of samples, less the in-memory network's link pumps.
// memnet runs one pump per directed link a frame has crossed, so those grow
// with who has talked to whom; and a client probe's ping briefly runs an
// ORB request goroutine, which a low sample misses.
func settledGoroutines() int {
	time.Sleep(200 * time.Millisecond)
	low := -1
	for i := 0; i < 20; i++ {
		n := 0
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if !strings.Contains(g, "memnet.(*link).run") {
				n++
			}
		}
		if low < 0 || n < low {
			low = n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return low
}

// TestBindingsCostNoGoroutine pins what an attachment costs in goroutines:
// none, at either end. Every group a binding forms — the client's, the
// request manager's client/server group, a closed client's membership of
// the server group — is consumed off the dispatch stage, and one client
// prober per service serves every binding group. So an idle world with
// every call answered runs as many goroutines with 8 open and 8 closed
// bindings as with one of each. With a consumer goroutine per group, each
// open binding cost 3 (the client's loop, the request manager's loop and
// its prober) and each closed binding 1.
func TestBindingsCostNoGoroutine(t *testing.T) {
	const each = 8
	w := newWorld(t, 2, 2*each)
	bind := func(i int) {
		t.Helper()
		style := core.Open
		if i%2 == 1 {
			style = core.Closed
		}
		b, err := w.clients[i].Bind(ctxT(t, 10*time.Second), w.bindCfg(style))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.All)); err != nil {
			t.Fatal(err)
		}
	}
	bind(0)
	bind(1)
	one := settledGoroutines()
	for i := 2; i < 2*each; i++ {
		bind(i)
	}
	if many := settledGoroutines(); many != one {
		t.Fatalf("%d goroutines with %d open + %d closed bindings, %d with one of each; a binding must cost none",
			many, each, each, one)
	}
}

// TestOutstandingCallsParkNoGoroutines pins the future as the waiter: an
// outstanding call is an entry in its binding's table, completed wherever
// its answer is received — the ORB's receive loop for a reply set or a
// closed call's direct replies — so a full
// window of un-awaited calls leaves no goroutine parked in, or started by,
// a launch. With a waiter beside the future each call parked one.
func TestOutstandingCallsParkNoGoroutines(t *testing.T) {
	w := newWorld(t, 3, 2)
	for i, style := range []core.Style{core.Open, core.Closed} {
		cfg := w.bindCfg(style)
		cfg.Contact = "s01"
		b, err := w.clients[i].Bind(ctxT(t, 10*time.Second), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		w.taps["s02"].set(dropReplies) // no wait-for-all call can complete
		const n = 8
		calls := make([]*core.Call, n)
		for j := range calls {
			if calls[j], err = b.InvokeAsync(ctxT(t, 20*time.Second), "echo", []byte("x"), core.WithMode(core.All)); err != nil {
				t.Fatal(err)
			}
		}
		parked := stackLines(func(line string) bool {
			return strings.Contains(line, "internal/core.") && (strings.Contains(line, ").InvokeAsync") || strings.Contains(line, ").launch"))
		})
		if parked != 0 {
			t.Fatalf("%v: %d stack frames in a launch with %d calls outstanding; a call must not hold a goroutine", style, parked, n)
		}
		w.taps["s02"].set(nil)
		for _, c := range calls {
			c.Cancel()
		}
	}
}
