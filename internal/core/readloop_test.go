package core

import (
	"context"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/orb"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// soloServerObs is soloServerOn with the server in an observability domain
// of its own, so the ORB counters a test reads are the server's alone.
func soloServerObs(t *testing.T, net *memnet.Net, handler Handler) (*Service, *Server, *obs.Counter) {
	t.Helper()
	ep, err := net.Endpoint("solo", netsim.SiteLAN)
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	ob := obs.New()
	svc := NewServiceObs(ep, ob)
	t.Cleanup(func() { _ = svc.Close() })
	return svc, soloServe(t, svc, handler), ob.Reg.Counter("orb_requests_offloop")
}

// A leased read that can be answered at once is answered on the ORB's
// receive loop: a thousand of them start no goroutine at the replica. The
// control calls that may wait — bind, state, info, a linearizable read —
// keep the servant's goroutine, one each.
func TestLeasedReadsSpawnNoGoroutine(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	value := []byte("42")
	_, _, spawned := soloServerObs(t, net, func(string, []byte) ([]byte, error) { return value, nil })
	cl := soloService(t, net, "z00")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 1000; i++ {
		if v, err := cl.ReadAt(ctx, "solo", "alloc", "get", nil, Leased, vclock.Stamp{}); err != nil || string(v) != "42" {
			t.Fatalf("leased read %d: %q, %v", i, v, err)
		}
	}
	if n := spawned.Value(); n != 0 {
		t.Fatalf("1000 leased reads started %d goroutines, want 0", n)
	}

	for _, tc := range []struct {
		name    string
		call    func() error
		wantErr bool
	}{
		{"info", func() error { _, err := cl.ServerGroupMembers(ctx, "solo", "alloc"); return err }, false},
		{"state", func() error { _, err := cl.invokeControl(ctx, "solo", "state", []byte("alloc")); return err }, false},
		{"bind", func() error {
			// A group this replica does not serve: refused, by the servant.
			_, err := cl.invokeControl(ctx, "solo", "bind", encodeBindRequest(&bindRequest{Group: "cs", ServerGroup: "other", Contact: "z00"}))
			return err
		}, true},
		{"linearizable read", func() error {
			_, err := cl.ReadAt(ctx, "solo", "alloc", "get", nil, Linearizable, vclock.Stamp{})
			return err
		}, false},
	} {
		before := spawned.Value()
		if err := tc.call(); (err != nil) != tc.wantErr {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := spawned.Value() - before; n != 1 {
			t.Fatalf("%s started %d goroutines, want 1", tc.name, n)
		}
	}
}

// A leased read that finds the execution mutex held — here by a write whose
// servant is blocked on a channel — leaves the receive loop rather than
// parking it: a "reply" one-way reaching the same ORB meanwhile still runs
// its sink, and the read is answered once the write lets the mutex go.
func TestReadFallsOffTheLoopWhileExecMuIsHeld(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	value := []byte("42")
	gate := make(chan struct{})
	svc, srv, spawned := soloServerObs(t, net, func(method string, _ []byte) ([]byte, error) {
		if method == "put" {
			<-gate
		}
		return value, nil
	})
	cl := soloService(t, net, "z00")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		srv.executeDelivered(&invRequest{Call: ids.CallID{Client: "z00", Number: 1}, Method: "put"}, vclock.Stamp{Time: 1 << 40, Sender: "solo"})
	}()
	for srv.execMu.TryLock() { // until the write holds the mutex
		srv.execMu.Unlock()
		time.Sleep(time.Millisecond)
	}

	type result struct {
		v   []byte
		err error
	}
	read := make(chan result, 1)
	go func() {
		v, err := cl.ReadAt(ctx, "solo", "alloc", "get", nil, Leased, vclock.Stamp{})
		read <- result{v, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); spawned.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read never left the receive loop")
		}
	}

	sunk := make(chan struct{}, 1)
	svc.orb.HandleOneWay(controlObject, "reply", func(args []byte) {
		sunk <- struct{}{}
		svc.routeReply(args)
	})
	if err := cl.orb.InvokeOneWay(orb.Ref{Target: "solo", Object: controlObject}, "reply", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sunk:
	case <-time.After(10 * time.Second):
		t.Fatal("the reply sink did not run: the receive loop is parked")
	}
	select {
	case r := <-read:
		t.Fatalf("read answered while the write held the execution mutex: %q, %v", r.v, r.err)
	default:
	}

	close(gate)
	select {
	case r := <-read:
		if r.err != nil || string(r.v) != "42" {
			t.Fatalf("read after the write: %q, %v", r.v, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read not answered after the write released the mutex")
	}
	<-wrote
	if n := spawned.Value(); n != 1 {
		t.Fatalf("%d requests served off the loop, want the one read", n)
	}
}
