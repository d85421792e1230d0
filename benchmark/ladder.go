package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/orb"
	"newtop/internal/shard"
	"newtop/internal/transport"
	"newtop/internal/wire"
)

// The layer ladder drives each layer's public API in isolation with the
// workloads' payload, every networked rung over the same loopback TCP, so
// that each rung adds exactly one layer to the rung below and the
// difference between two rungs is that layer's own cost.

// sink keeps the compiler from discarding a measured call's result.
var sink int

// timed runs op back to back for d and returns the iteration count, the
// elapsed time, every iteration's latency (sorted) when sample is set, and
// the process-wide heap allocations made meanwhile.
func timed(d time.Duration, sample bool, op func() error) (n int, elapsed time.Duration, lat []int64, allocs uint64, err error) {
	before := sampleProc()
	start := time.Now()
	prev := start
	for {
		if err = op(); err != nil {
			return n, time.Since(start), nil, 0, err
		}
		n++
		if sample {
			now := time.Now()
			lat = append(lat, int64(now.Sub(prev)))
			prev = now
			if now.Sub(start) >= d {
				break
			}
		} else if n%256 == 0 && time.Since(start) >= d {
			break
		}
	}
	elapsed = time.Since(start)
	allocs = sampleProc().allocObjs - before.allocObjs
	return n, elapsed, sortedCopy(lat), allocs, nil
}

func perOp(total float64, n int) float64 { return ratio(total, float64(n)) }

// runLadder measures every rung for about rung each.
func runLadder(ctx context.Context, seed int64, rung time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	arg := newClient(0, nil, seed).puts[0] // a put argument exactly as the workloads send it
	for _, step := range []func(context.Context, map[string]float64, []byte, int64, time.Duration) error{
		ladderWire, ladderTCP, ladderORB, ladderGCS, ladderShard, ladderCore,
	} {
		if err := step(ctx, m, arg, seed, rung); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ladderWire: a request-shaped envelope through a pooled Writer and back
// out of a Reader — the codec every layer above pays per message.
func ladderWire(_ context.Context, m map[string]float64, arg []byte, _ int64, rung time.Duration) error {
	var id uint64
	n, elapsed, _, allocs, err := timed(rung, false, func() error {
		id++
		w := wire.GetWriter()
		w.Byte(1)
		w.Uvarint(id)
		w.String("newtop")
		w.String("put")
		w.Blob(arg)
		frame := w.Detach()
		wire.PutWriter(w)
		r := wire.NewReader(frame)
		sink += int(r.Byte()) + int(r.Uvarint()) + len(r.String()) + len(r.String()) + len(r.BlobRef())
		return r.Done()
	})
	m["wire.roundtrip_ns"] = perOp(float64(elapsed), n)
	m["wire.allocs_per_msg"] = perOp(float64(allocs), n)
	return err
}

const (
	streamBurst   = 256 // frames per credit
	streamCredits = 2   // bursts in flight: stays inside tcpnet's default send queue
)

// ladderTCP: one frame there and back over two tcpnet endpoints (the
// latency a blocking hop pays), then one-way streaming under a credit
// window (the rate the writer pipeline sustains when frames coalesce).
func ladderTCP(ctx context.Context, m map[string]float64, arg []byte, _ int64, rung time.Duration) error {
	net, err := listenMesh([]string{"la", "lb"}, false)
	if err != nil {
		return err
	}
	a, b := net.eps[0], net.eps[1]
	var streamed atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // b: echo pings, count streamed frames and grant a credit per burst
		defer wg.Done()
		for in := range b.Inbound() {
			if in.Payload[0] == 'p' {
				_ = b.Send(in.From, in.Payload) // only fails once the rung is over and b is closed
				continue
			}
			if streamed.Add(1)%streamBurst == 0 {
				_ = b.Send(in.From, []byte{'c'}) // as above
			}
		}
	}()
	defer func() {
		_ = a.Close()
		_ = b.Close()
		wg.Wait()
	}()

	// recv takes the next frame b sent back (an echo or a credit).
	recv := func() error {
		select {
		case _, ok := <-a.Inbound():
			if !ok {
				return io.ErrClosedPipe
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ping := append([]byte{'p'}, arg...)
	n, _, lat, allocs, err := timed(rung, true, func() error {
		if err := a.Send(b.ID(), ping); err != nil {
			return err
		}
		return recv()
	})
	if err != nil {
		return fmt.Errorf("tcpnet ping: %w", err)
	}
	m["tcpnet.rtt_us_p50"] = us(percentile(lat, 50))
	m["tcpnet.allocs_per_frame"] = perOp(float64(allocs), 2*n)

	frame := append([]byte{'s'}, arg...)
	credits := streamCredits
	_, elapsed, _, _, err := timed(rung, false, func() error {
		if credits == 0 {
			if err := recv(); err != nil {
				return err
			}
			credits++
		}
		credits--
		for i := 0; i < streamBurst; i++ {
			if err := a.Send(b.ID(), frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("tcpnet stream: %w", err)
	}
	m["tcpnet.stream_frames_per_s"] = float64(streamed.Load()) / elapsed.Seconds()
	return nil
}

// ladderORB: a synchronous invocation of an echo servant — tcpnet plus the
// orb's correlation, goroutine-per-request dispatch and reply.
func ladderORB(ctx context.Context, m map[string]float64, arg []byte, _ int64, rung time.Duration) error {
	net, err := listenMesh([]string{"la", "lb"}, false)
	if err != nil {
		return err
	}
	oa, ob := orb.New(net.eps[0]), orb.New(net.eps[1])
	defer func() {
		_ = oa.Close()
		_ = ob.Close()
	}()
	ob.Register("echo", func(_ string, args []byte) ([]byte, error) { return args, nil })
	ref := orb.Ref{Target: ob.ID(), Object: "echo"}
	n, _, lat, allocs, err := timed(rung, true, func() error {
		out, err := oa.Invoke(ctx, ref, "put", arg)
		sink += len(out)
		return err
	})
	if err != nil {
		return fmt.Errorf("orb invoke: %w", err)
	}
	m["orb.invoke_us_p50"] = us(percentile(lat, 50))
	m["orb.allocs_per_call"] = perOp(float64(allocs), n)
	return nil
}

// ladderGroup is a three-member group on bare gcs nodes; member 1 (never
// the sequencer) multicasts and waits for its own ordered delivery.
type ladderGroup struct {
	nodes  []*gcs.Node
	groups []*gcs.Group
	own    chan struct{}
}

func newLadderGroup(ctx context.Context, cfg gcs.GroupConfig) (*ladderGroup, error) {
	net, err := listenMesh([]string{"la", "lb", "lc"}, false)
	if err != nil {
		return nil, err
	}
	lg := &ladderGroup{own: make(chan struct{}, 1)}
	for i := range net.eps {
		lg.nodes = append(lg.nodes, gcs.NewNode(transport.Endpoint(net.eps[i])))
	}
	for i, n := range lg.nodes {
		var g *gcs.Group
		if i == 0 {
			g, err = n.Create("ladder", cfg)
		} else {
			g, err = n.Join(ctx, "ladder", lg.nodes[0].ID(), cfg)
		}
		if err != nil {
			lg.close()
			return nil, err
		}
		lg.groups = append(lg.groups, g)
	}
	for _, g := range lg.groups {
		for len(g.View().Members) != len(lg.nodes) {
			select {
			case <-ctx.Done():
				lg.close()
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	for i, g := range lg.groups {
		me := g.Me()
		signal := i == 1
		g.SetHandler(func(ev gcs.Event) {
			if signal && ev.Type == gcs.EventDeliver && ev.Deliver.Sender == me {
				lg.own <- struct{}{}
			}
		})
	}
	return lg, nil
}

func (lg *ladderGroup) close() {
	for _, n := range lg.nodes {
		_ = n.Close()
	}
}

// deliver times Multicast to own ordered delivery at member 1.
func (lg *ladderGroup) deliver(ctx context.Context, arg []byte, rung time.Duration) (p50, allocs float64, err error) {
	n, _, lat, a, err := timed(rung, true, func() error {
		p := append([]byte(nil), arg...) // the transport retains the payload
		if err := lg.groups[1].Multicast(ctx, p); err != nil {
			return err
		}
		select {
		case <-lg.own:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	return us(percentile(lat, 50)), perOp(float64(a), n), err
}

// ladderGCS: ordered multicast under both total-order protocols, then the
// two read-path primitives on the sequencer group.
func ladderGCS(ctx context.Context, m map[string]float64, arg []byte, _ int64, rung time.Duration) error {
	sym := pinnedGCS(gcs.OrderSymmetric)
	sym.Liveness = gcs.Lively
	lg, err := newLadderGroup(ctx, sym)
	if err != nil {
		return fmt.Errorf("symmetric ladder group: %w", err)
	}
	m["gcs.sym_deliver_us_p50"], m["gcs.sym_allocs_per_msg"], err = lg.deliver(ctx, arg, rung)
	lg.close()
	if err != nil {
		return fmt.Errorf("symmetric deliver: %w", err)
	}

	seq := serverGCS()
	seq.Liveness = gcs.Lively
	if lg, err = newLadderGroup(ctx, seq); err != nil {
		return fmt.Errorf("sequencer ladder group: %w", err)
	}
	defer lg.close()
	if m["gcs.seq_deliver_us_p50"], m["gcs.seq_allocs_per_msg"], err = lg.deliver(ctx, arg, rung); err != nil {
		return fmt.Errorf("sequencer deliver: %w", err)
	}
	// The linearizable-read barrier runs at the ordering authority.
	_, _, lat, _, err := timed(rung/2, true, func() error {
		_, err := lg.groups[0].ReadIndex(ctx)
		return err
	})
	if err != nil {
		return fmt.Errorf("read index: %w", err)
	}
	m["gcs.read_index_us_p50"] = us(percentile(lat, 50))
	// The leased-read check runs at any member holding a lease; member 1
	// was just granted one by the traffic above.
	n, elapsed, _, _, err := timed(rung/2, false, func() error {
		_, _, err := lg.groups[1].LeaseRead(0)
		return err
	})
	if err != nil {
		return fmt.Errorf("lease read: %w", err)
	}
	m["gcs.lease_read_ns"] = perOp(float64(elapsed), n)
	return nil
}

// ladderShard: the servant and the router's ring lookup, no network.
func ladderShard(_ context.Context, m map[string]float64, _ []byte, seed int64, rung time.Duration) error {
	cl := newClient(0, nil, seed)
	st := shard.NewStore("")
	n, elapsed, _, _, err := timed(rung/2, false, func() error {
		out, err := st.Handle("put", cl.nextWrite())
		sink += len(out)
		return err
	})
	if err != nil {
		return err
	}
	m["shard.store_put_ns"] = perOp(float64(elapsed), n)
	ring := shard.NewRing(uint64(seed), 0, "s0", "s1", "s2", "s3")
	i := 0
	n, elapsed, _, _, _ = timed(rung/2, false, func() error {
		sink += len(ring.Owner(cl.keys[i%len(cl.keys)]))
		i++
		return nil
	})
	m["shard.ring_owner_ns"] = perOp(float64(elapsed), n)
	return nil
}

// ladderCore: the whole invocation path at its cheapest — one client, one
// open binding, Call with wait-for-first against the three-replica group.
func ladderCore(ctx context.Context, m map[string]float64, _ []byte, seed int64, rung time.Duration) error {
	spec := withMode(workload{Name: "ladder", style: core.Open, mode: core.First})
	w, err := buildWorld(ctx, spec, 1, seed, false)
	if err != nil {
		return fmt.Errorf("core ladder world: %w", err)
	}
	defer w.close()
	cl := w.clients[0]
	n, _, lat, allocs, err := timed(rung, true, func() error { return cl.warm(ctx, spec, 1) })
	if err != nil {
		return err
	}
	m["core.call_first_us_p50"] = us(percentile(lat, 50))
	m["core.allocs_per_call_first"] = perOp(float64(allocs), n)
	return nil
}

// ladderChain is the rung order of the added-cost column.
var ladderChain = []string{"wire.roundtrip_ns", "tcpnet.rtt_us_p50", "orb.invoke_us_p50", "gcs.seq_deliver_us_p50", "core.call_first_us_p50"}

// printLadder renders the latency rungs with each one's cost over the rung
// below it.
func printLadder(w io.Writer, m map[string]float64) {
	fmt.Fprintf(w, "# ladder %-26s %12s %12s\n", "rung", "us", "added_us")
	prev := 0.0
	for _, name := range ladderChain {
		v := m[name]
		if name == "wire.roundtrip_ns" {
			v /= 1e3
		}
		fmt.Fprintf(w, "# ladder %-26s %12.2f %12.2f\n", name, v, v-prev)
		prev = v
	}
}
