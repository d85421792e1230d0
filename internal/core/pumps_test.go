package core_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"newtop/internal/core"
)

// fifoPumps counts the goroutines running a queue.FIFO channel pump.
func fifoPumps() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	pumps := 0
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.Contains(line, "internal/queue.(*FIFO") && strings.Contains(line, ").pump(") {
			pumps++
		}
	}
	return pumps
}

// TestBoundServicesRunNoFIFOPumps pins the batch-pull receive path: every
// product loop between the socket and the group consumes its FIFO through
// PopBatch, so a served, bound, idle world runs no channel pump at all.
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
}
