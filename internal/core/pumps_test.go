package core_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"newtop/internal/core"
)

// stackLines counts the lines of every goroutine's stack that match.
func stackLines(match func(line string) bool) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	lines := 0
	for _, line := range strings.Split(string(buf), "\n") {
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
	// an idle plain server adds none.
	jw := newJoinWorld(t, 36)
	serverFrames := func() int {
		return stackLines(func(line string) bool { return strings.Contains(line, "internal/core.(*Server)") })
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

// TestOutstandingCallsParkNoGoroutines pins the future as the waiter: an
// outstanding call is an entry in its binding's table, completed by
// whichever loop receives its answer — the binding's group loop for a reply
// set, the ORB's receive loop for a closed call's direct replies — so a full
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
