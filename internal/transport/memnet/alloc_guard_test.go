package memnet_test

import (
	"testing"

	"newtop/internal/lint/allocs"
	"newtop/internal/netsim"
	"newtop/internal/transport"
	"newtop/internal/transport/memnet"
)

// TestAllocGuardIdleLinkSend budgets one frame over an idle link: the Send,
// the link's copy and hand-off, and the receiver's batch pull. The link's
// queue and the receiver's FIFO recycle their backing arrays, and the
// payload copies are carved from the link's arena, so the frame costs
// nothing — which is what lets the memnet-based AllocGuards of the layers
// above measure the product and not the simulator. (Re-slicing the link's
// queue past each popped frame cost one allocation per frame: a drained
// queue had no capacity left.)
func TestAllocGuardIdleLinkSend(t *testing.T) {
	n := memnet.New(netsim.New(netsim.FastProfile(), 1))
	a := mustEndpoint(t, n, "a", netsim.SiteLAN)
	b := mustEndpoint(t, n, "b", netsim.SiteLAN)
	defer a.Close()
	defer b.Close()

	payload := make([]byte, 100)
	var batch [transport.RecvBurst]transport.Inbound
	frame := func() {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
		if n, ok := b.Recv(batch[:]); !ok || n != 1 || len(batch[0].Payload) != len(payload) {
			t.Fatalf("received %d frames (ok %v), want the one sent", n, ok)
		}
	}
	for i := 0; i < 64; i++ {
		frame()
	}
	avg := allocs.PerOp(1000, frame)
	t.Logf("idle link send→recv: %.3f allocs/frame", avg)
	const budget = 0.05 // measured 0.006 (1.0 with the queue re-sliced past each frame)
	if avg > budget {
		t.Fatalf("a frame over an idle link allocates %.3f, budget %.2f", avg, budget)
	}
}
