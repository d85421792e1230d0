package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/lint/allocs"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// A request manager's collection is reused once its client's floor passes
// its call. A direct reply for the old call that reaches it after that —
// collectReply found the collection under mu, and files it after releasing
// mu — must not land in the new call's set, and a settle listed for the old
// call must not end the new one.
//
// Each collection is given the view of three servers — a majority is two —
// before the manager runs its call: the manager's own execution waits at a
// gate until then.
func TestReusedCollectionRefusesTheOldCallsReplies(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	svc := soloService(t, net, "rm")
	gate := make(chan struct{})
	srv := soloServe(t, svc, func(string, []byte) ([]byte, error) {
		<-gate
		return []byte("ok"), nil
	})
	answered := answerSink(t, net, "z00")
	cs, err := svc.node.Create("cs", srv.group.Config())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	bind := &bindRequest{Group: "cs", Style: Open}
	call := func(n uint64) ids.CallID { return ids.CallID{Client: "z00", Number: n} }
	serve := func(n uint64) *collection {
		srv.serveAsRM(cs, bind, &invRequest{Call: call(n), Floor: n, Mode: Majority, Method: "put", Client: "z00", Style: Open})
		srv.mu.Lock()
		c := srv.findLocked(call(n)).coll
		srv.mu.Unlock()
		c.mu.Lock()
		c.base, c.live = []ids.ProcessID{"rm", "s01", "s02"}, 3
		c.mu.Unlock()
		gate <- struct{}{}
		return c
	}
	// Calls 1 and 2 complete on the manager's own reply and s01's; call 2's
	// forward carries floor 2, which passes call 1 where it is delivered.
	first := serve(1)
	srv.collectReply(invReply{Call: call(1), Server: "s01"})
	awaitAnswers(answered, 1)
	serve(2)
	srv.collectReply(invReply{Call: call(2), Server: "s01"})
	awaitAnswers(answered, 2)

	third := serve(3)
	if third != first {
		t.Fatal("call 3 did not reuse call 1's collection, which the floor had passed")
	}
	if first.add(invReply{Call: call(1), Server: "s02"}) {
		t.Fatal("call 1's late reply completed call 3")
	}
	if first.settle(call(1), nil, true) {
		t.Fatal("a settle listed for call 1 ended call 3")
	}
	srv.collectReply(invReply{Call: call(3), Server: "s01"})
	awaitAnswers(answered, 3)
	if got := third.set.Replies; len(got) != 2 || got[0].Call != call(3) || got[1].Call != call(3) {
		t.Fatalf("call 3 answered with %+v; want the manager's and s01's replies to call 3", got)
	}
}

// An async-forward call that ends without an answer — given up, or failed —
// may have been run by the primary all the same, so its number stays held
// until its relay is known to be ordered. The request manager relays each
// call before it answers, and serves the binding's requests in order: an
// answer to a call launched after it ended releases it, one to a call
// launched before does not, and a late answer to the call itself does.
func TestEngineHoldsAnAbandonedAsyncCall(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	e.asyncFwd = true
	floor := func() uint64 { f, _ := e.svc.DebugFloor(); return f }
	launch := func() *Call {
		c, err := e.launch(context.Background(), "m", nil, callOpts{mode: First}, true)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	answer := func(c ids.CallID) {
		e.onAnswer(asAnswer(&invReplySet{Call: c, Replies: []invReply{{Call: c, Server: "s00"}}}))
	}
	earlier := launch()
	abandoned := launch()
	n := abandoned.ID().Number
	abandoned.Cancel()
	answer(earlier.ID()) // launched before the abandoned call ended
	if f := floor(); f != n {
		t.Fatalf("floor %d once call %d was abandoned; want it held at %d", f, n, n)
	}
	next := launch()
	answer(next.ID())
	if f := floor(); f != next.ID().Number+1 {
		t.Fatalf("floor %d once a later call was answered; want %d", f, next.ID().Number+1)
	}

	late := launch()
	late.Cancel()
	if f := floor(); f != late.ID().Number {
		t.Fatalf("floor %d once call %d was abandoned; want it held at it", f, late.ID().Number)
	}
	answer(late.ID()) // its own answer, after the call ended
	if f := floor(); f != late.ID().Number+1 {
		t.Fatalf("floor %d once the abandoned call's own answer arrived; want %d", f, late.ID().Number+1)
	}
}

// seenOf is the highest call of client this member has delivered in order.
func (srv *Server) seenOf(client ids.ProcessID) uint64 {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.logLocked(client).seen
}

// A request never carries a floor past its own call — a client refuses
// to send one — and a server caps one that does, so no request refuses
// itself: a replica executes it, and a primary that runs it first finds it
// run when its own relay comes back, where the relay's floor applies.
func TestRequestFloorNeverPassesItsOwnCall(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	var runs atomic.Int64
	count := func(string, []byte) ([]byte, error) { runs.Add(1); return nil, nil }
	replica := soloServe(t, soloService(t, net, "replica"), count)
	req := &invRequest{Call: ids.CallID{Client: "z00", Number: 5}, Floor: 9, Mode: First, Method: "put", Forwarded: true, Style: Open}
	if rep := replica.executeDelivered(req, vclock.Stamp{Time: 1, Sender: "rm"}); rep.Err != "" || runs.Load() != 1 {
		t.Fatalf("a replica answered %+v after %d runs; want call 5 run once", rep, runs.Load())
	}
	if floor, _ := replica.svc.DebugRetained("alloc", "z00"); floor != 5 {
		t.Fatalf("floor %d after call 5 carried floor 9; want 5", floor)
	}

	runs.Store(0)
	svc := soloService(t, net, "rm")
	primary := soloServe(t, svc, count)
	answerSink(t, net, "z00")
	cs, err := svc.node.Create("cs", primary.group.Config())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	req.Forwarded = false
	primary.serveAsRM(cs, &bindRequest{Group: "cs", Style: Open, AsyncFwd: true}, req)
	for primary.seenOf("z00") < 5 {
		time.Sleep(time.Millisecond)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("the primary ran call 5 %d times; want once", got)
	}
}

// A stale request — below its client's floor, nothing of it retained —
// that reaches a server is refused wherever it is served, and runs nothing:
// at a replica, at a request manager gathering replies, at a primary.
func TestStaleRequestIsRefusedWhereItIsServed(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	var runs atomic.Int64
	svc := soloService(t, net, "rm")
	srv := soloServe(t, svc, func(string, []byte) ([]byte, error) { runs.Add(1); return nil, nil })
	answered := answerSink(t, net, "z00")
	cs, err := svc.node.Create("cs", srv.group.Config())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	call := func(n uint64) ids.CallID { return ids.CallID{Client: "z00", Number: n} }
	// Call 5, delivered in order with floor 5, passes calls 1 to 4.
	srv.executeDelivered(&invRequest{Call: call(5), Floor: 5, Mode: Majority, Method: "put", Forwarded: true, Style: Open}, vclock.Stamp{Time: 1, Sender: "rm"})
	runs.Store(0)

	stale := &invRequest{Call: call(3), Floor: 3, Mode: Majority, Method: "put", Client: "z00", Style: Open}
	srv.serveAsRM(cs, &bindRequest{Group: "cs", Style: Open}, stale)
	awaitAnswers(answered, 1)
	stale.Mode = First
	srv.serveAsRM(cs, &bindRequest{Group: "cs", Style: Open, AsyncFwd: true}, stale)
	awaitAnswers(answered, 2)
	stale.Forwarded = true
	if rep := srv.executeDelivered(stale, vclock.Stamp{Time: 2, Sender: "rm"}); rep.Err != staleErr {
		t.Fatalf("a replica answered the stale call with %+v; want it refused", rep)
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("the stale call ran %d times", got)
	}
}

// A forgotten client's log keeps one integer: a floor past everything it
// delivered, so a late copy of any of those calls is refused, never run, and
// the collections it held go back to the free list.
func TestForgetLeavesATombstone(t *testing.T) {
	_, srv := soloServer(t, "replica")
	req := &invRequest{Mode: Majority, Method: "put", Forwarded: true, Style: Open, Floor: 1}
	for n := uint64(1); n <= 5; n++ {
		req.Call = ids.CallID{Client: "z00", Number: n}
		srv.executeDelivered(req, vclock.Stamp{Time: n, Sender: "rm"})
	}
	srv.mu.Lock()
	e, _ := srv.entryLocked(ids.CallID{Client: "z00", Number: 3}, 1)
	e.coll = srv.newCollectionLocked(ids.CallID{Client: "z00", Number: 3}, Majority)
	srv.closeLocked(e.coll)
	srv.unpinLocked(e.coll)
	srv.mu.Unlock()

	srv.forget("z00")
	srv.mu.Lock()
	l := srv.clients["z00"]
	floor, span, freed := l.win.Floor()+1, l.win.Span(), len(srv.free)
	srv.mu.Unlock()
	if floor != 6 || span != 0 || freed != 1 {
		t.Fatalf("after forget: floor %d, %d calls retained, %d collections freed; want 6, 0, 1", floor, span, freed)
	}
	req.Call = ids.CallID{Client: "z00", Number: 2}
	if rep := srv.executeDelivered(req, vclock.Stamp{Time: 9, Sender: "rm"}); rep.Err != staleErr {
		t.Fatalf("a late copy of call 2 was answered %+v; want it refused as stale", rep)
	}
}

// TestAllocGuardBoundedPut: a full bounded map evicts in place — its order
// is a fixed circular buffer, so puts reallocate nothing (the order used to
// drain its slice's capacity one slot per put and copy the whole key slice
// about once every cap/4 puts). One operation is a thousand puts, so that a
// reallocation now and then cannot round away.
func TestAllocGuardBoundedPut(t *testing.T) {
	b := newBounded[uint64, int](64)
	next := uint64(0)
	puts := func() {
		for i := 0; i < 1000; i++ {
			next++
			b.put(next, int(next))
		}
	}
	puts()
	avg := allocs.PerOp(20, puts)
	t.Logf("a thousand puts into a full bounded map: %.3f allocs", avg)
	if len(b.m) != 64 {
		t.Fatalf("%d keys retained, cap 64", len(b.m))
	}
	if _, ok := b.get(next - 64); ok {
		t.Fatal("the key 64 puts back is still retained")
	}
	if _, ok := b.get(next - 63); !ok {
		t.Fatal("the oldest of the last 64 keys was evicted")
	}
	if avg > 0.5 && !raceEnabled { // measured 0.000, once 0.100: the runtime's own, not the map's
		t.Fatalf("a thousand puts into a full bounded map allocate %.3f times, budget 0.5", avg)
	}
}
