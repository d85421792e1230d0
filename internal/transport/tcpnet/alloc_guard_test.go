package tcpnet_test

// Allocation guards for the transport hot paths, run by ci.sh's
// "alloc budgets" stage (go test -run AllocGuard). Budgets are
// whole-run heap deltas divided by frames moved, measured with GC
// quiesced, and sit a little above observed steady state so a real
// regression (per-frame buffer copies, header allocations, lost pooling)
// trips them while noise does not.
//
// What the budgets encode:
//   - send path (enqueue + coalesced flush): Send copies the frame, behind
//     its length header, onto the end of the peer's queue buffer, and the
//     writer swaps that buffer with its spare at every flush, so once both
//     have grown to the burst size the steady state allocates nothing.
//   - read path: payloads are carved from 64KiB arena chunks (one
//     allocation amortised over many frames) and handed to the FIFO; the
//     bufio.Reader is pooled. The dominant per-frame cost is the Inbound
//     queue slot, so the budget is a few allocations per frame, not zero.

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"newtop/internal/obs"
	"newtop/internal/transport/tcpnet"
)

// guardFrames is enough traffic to amortise warmup (dial, pool fills,
// FIFO growth) into the noise.
const guardFrames = 4000

// allocsPerFrame runs fn (which must move guardFrames frames) between two
// quiesced heap readings and returns the per-frame allocation count.
func allocsPerFrame(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(guardFrames)
}

// TestAllocGuardSendPath budgets the enqueue+flush path in isolation: the
// peer is a raw TCP sink owned by the test (reads the handshake, discards
// everything after), so no tcpnet read-side allocations pollute the
// measurement.
func TestAllocGuardSendPath(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn); conn.Close() }()
		}
	}()

	// Private obs domain: drop/sent counters must start at zero for this
	// endpoint, not inherit the process-wide totals of earlier tests.
	a, err := tcpnet.ListenConfig("a", "127.0.0.1:0", tcpnet.Config{QueueLen: 8192, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("sink", lis.Addr().String())

	payload := make([]byte, 100)
	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Send("sink", payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	sent := func(want uint64) {
		deadline := time.Now().Add(10 * time.Second)
		for a.Stats().FramesSent < want {
			if time.Now().After(deadline) {
				t.Fatalf("writer stalled: %+v", a.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Warm: dial, scratch buffers, ring.
	send(500)
	sent(500)

	got := allocsPerFrame(func() {
		send(guardFrames)
		sent(500 + guardFrames)
	})
	const budget = 0.05 // measured 0.004 (0.001 with the payload kept by reference, before Send copied it)
	if got > budget {
		t.Fatalf("send path allocates %.2f/frame, budget %.2f", got, budget)
	}
	t.Logf("send path: %.3f allocs/frame (budget %.2f)", got, budget)
	if st := a.Stats(); st.DropsFull != 0 || st.DropsConn != 0 {
		t.Fatalf("drops during guard run invalidate the count: %+v", st)
	}
}

// TestAllocGuardReadPath budgets the full loopback round trip — enqueue,
// flush, pooled read, arena carve, FIFO hand-off — which bounds the read
// side given the send side passes its own tighter budget above.
func TestAllocGuardReadPath(t *testing.T) {
	a, err := tcpnet.ListenConfig("a", "127.0.0.1:0", tcpnet.Config{QueueLen: 8192, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.ListenConfig("b", "127.0.0.1:0", tcpnet.Config{QueueLen: 8192, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())

	payload := make([]byte, 100)
	move := func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Send("b", payload); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			select {
			case _, ok := <-b.Inbound():
				if !ok {
					t.Fatal("inbound closed")
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("receive stalled at %d/%d: %+v", i, n, a.Stats())
			}
		}
	}

	move(500) // warm both sides

	got := allocsPerFrame(func() { move(guardFrames) })
	// Steady state observed ≈1–2 allocs/frame (Inbound slot + amortised
	// arena chunk + occasional FIFO ring growth); 4 leaves headroom for
	// scheduler-dependent batching without masking a lost pool.
	const budget = 4.0
	if got > budget {
		t.Fatalf("round trip allocates %.2f/frame, budget %.2f", got, budget)
	}
	t.Logf("round trip: %.3f allocs/frame (budget %.2f)", got, budget)
	if st := a.Stats(); st.DropsFull != 0 || st.DropsConn != 0 {
		t.Fatalf("drops during guard run invalidate the count: %+v", st)
	}
}
