package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/allocs"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// soloServer founds the single-member server group "alloc" the AllocGuard
// tests measure on; its servant returns one preallocated value. See
// TestAllocGuardLeasedRead for why one member and hour-long timers.
func soloServer(t *testing.T, id ids.ProcessID) (*Service, *Server) {
	t.Helper()
	return soloServerOn(t, memnet.New(netsim.New(netsim.FastProfile(), 1)), id)
}

// soloServerOn is soloServer on a network the test can put stub peers on.
func soloServerOn(t *testing.T, net *memnet.Net, id ids.ProcessID) (*Service, *Server) {
	t.Helper()
	svc := soloService(t, net, id)
	value := []byte("42")
	return svc, soloServe(t, svc, func(method string, args []byte) ([]byte, error) {
		return value, nil
	})
}

// soloServe founds the single-member server group "alloc" on svc, with
// handler as its servant.
func soloServe(t *testing.T, svc *Service, handler Handler) *Server {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv, err := svc.Serve(ctx, ServeConfig{
		Group:   "alloc",
		Handler: handler,
		GCS: gcs.GroupConfig{
			Order:          gcs.OrderSequencer,
			TimeSilence:    time.Hour,
			SuspectTimeout: time.Hour,
			Resend:         time.Hour,
			FlushTimeout:   time.Hour,
			Tick:           time.Hour,
			LeaseTicks:     100,
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The founding view and the member's own hello reach the server off the
	// dispatch stage, after Serve returns: wait them out, so a test's own
	// view or roster entries are not overwritten behind its back.
	for applied := false; !applied; runtime.Gosched() {
		srv.execMu.Lock()
		_, applied = srv.applied[svc.ID()]
		srv.execMu.Unlock()
	}
	return srv
}

// TestAllocGuardLeasedRead budgets the leased-read hot path (run by ci.sh's
// AllocGuard stage): lease check, session-floor fast path, handler run and
// reply construction. The request is pre-built and the handler returns a
// preallocated value, so the measurement covers serveReadLocal itself.
//
// A single-member group keeps the measurement deterministic: the lone
// member is its own sequencer with a majority-of-one, so the lease is
// permanently valid with every protocol timer parked on hour-long
// quiescent values (no background ticks to pollute allocs.PerOp, which
// counts process-wide).
func TestAllocGuardLeasedRead(t *testing.T) {
	_, srv := soloServer(t, "solo")

	req := &readRequest{Group: "alloc", Method: "get", Consistency: Leased}
	var rep readReply
	// Warm the path (lazy metric state, reply pooling) before measuring.
	for i := 0; i < 64; i++ {
		if srv.serveRead(req, &rep); rep.Code != readOK {
			t.Fatalf("warmup read refused: %+v", rep)
		}
	}
	avg := allocs.PerOp(500, func() {
		if srv.serveRead(req, &rep); rep.Code != readOK {
			t.Fatalf("read refused: %+v", rep)
		}
	})
	t.Logf("leased read: %.3f allocs/op", avg)
	const budget = 0.05 // measured 0.000 (1.0 with the reply on the heap)
	if avg > budget {
		t.Fatalf("leased read allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// TestAllocGuardReadTargets is the leased read's client-side twin: ordering
// the replicas for one read, the rotation included, fills the caller's
// stack buffer and allocates nothing. (A fresh pool per read and a rotated
// copy of it cost read_mix about 1.5 allocations per operation.)
func TestAllocGuardReadTargets(t *testing.T) {
	for _, style := range []Style{Open, Closed} {
		e := soloEngine(t, style, "s00", "s01", "s02")
		e.readRenew = 0 // advance the favourite on every read
		firsts := make(map[ids.ProcessID]bool)
		avg := allocs.PerOp(500, func() {
			var buf [readTargetsInline]ids.ProcessID
			targets := e.readTargets(Leased, buf[:0])
			if len(targets) != 3 {
				t.Fatalf("%v: %d targets", style, len(targets)) // not targets itself: that would move buf to the heap
			}
			firsts[targets[0]] = true
		})
		t.Logf("%v read targets: %.3f allocs/op", style, avg)
		if len(firsts) != 3 {
			t.Fatalf("%v: the rotation led with %v only", style, firsts)
		}
		const budget = 0.05 // measured 0.000
		if avg > budget {
			t.Fatalf("%v: ordering a read's replicas allocates %.3f/op, budget %.2f", style, avg, budget)
		}
	}
}

// TestAllocGuardReadRoundTrip budgets a whole leased read over memnet, the
// client's Read to the payload in its hands: options, replica order,
// request encoding, the ORB call from a reused pending slot, the inline
// serve on the replica's receive loop with the reply written into the
// reply frame, and the reply's decoding. The servant returns a
// preallocated value, and memnet recycles its queues (its own AllocGuard),
// so what is counted is the product's. With a reply channel per call, a
// goroutine, its closure and the names' strings per request, the reply
// detached from its writer, the options resolved on the heap and memnet
// re-slicing its link queues per frame, it measured 9.0 allocs/op.
func TestAllocGuardReadRoundTrip(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	srvSvc, _ := soloServerOn(t, net, "solo")
	e := soloEngineOn(t, net, Open, "solo")
	e.serverGroup = "alloc"
	spawned := srvSvc.obs.Reg.Counter("orb_requests_offloop")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	read := func() {
		if v, err := e.Read(ctx, "get", nil); err != nil || string(v) != "42" {
			t.Fatalf("read: %q, %v", v, err)
		}
	}
	for i := 0; i < 64; i++ {
		read()
	}
	before := spawned.Value()
	avg := allocs.PerOp(500, read)
	t.Logf("leased read round trip: %.3f allocs/op", avg)
	if n := spawned.Value() - before; n != 0 {
		t.Fatalf("%d of 501 leased reads were served off the receive loop", n)
	}
	const budget = 0.05 // measured 0.002–0.004 (9.0 before the inline serve)
	if avg > budget && !raceEnabled {
		t.Fatalf("a leased read round trip allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// TestAllocGuardResolveCallOpts: options fold by value, so resolving them
// leaves nothing on the heap, with no option as with several. (Through
// a pointer the resolved set escaped: 1 allocation per Call, InvokeAsync
// and Read.)
func TestAllocGuardResolveCallOpts(t *testing.T) {
	four := []CallOption{WithMode(All), WithCallID(ids.CallID{Client: "z00", Number: 7}), WithConsistency(Stale), WithKey("k")}
	for _, tc := range []struct {
		name string
		opts []CallOption
		want callOpts
	}{
		{"no", nil, callOpts{mode: First}},
		{"four", four, callOpts{mode: All, call: ids.CallID{Client: "z00", Number: 7}, hasCall: true, consistency: Stale, key: "k", hasKey: true}},
	} {
		var got callOpts
		avg := allocs.PerOp(500, func() { got = resolveCallOpts(tc.opts) })
		t.Logf("%s options: %.3f allocs/op", tc.name, avg)
		if got != tc.want {
			t.Fatalf("%s options resolved to %+v, want %+v", tc.name, got, tc.want)
		}
		const budget = 0.05 // measured 0.000 (1.0 folded through a pointer)
		if avg > budget {
			t.Fatalf("resolving %s options allocates %.3f/op, budget %.2f", tc.name, avg, budget)
		}
	}
}
