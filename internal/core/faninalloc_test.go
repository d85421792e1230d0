package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/lint/allocs"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// TestAllocGuardForwardedReply budgets a replica's half of the reply fan-in
// (run by ci.sh's AllocGuard stage): execute a forwarded request once, retain the
// reply in its client's log, whose floor drops the one before, answer the
// request manager with one ORB one-way, whose frame is written and sent from
// a pooled writer. Nothing is left to allocate.
func TestAllocGuardForwardedReply(t *testing.T) {
	_, srv := soloServer(t, "replica")
	req := &invRequest{Mode: Majority, Method: "put", Args: []byte("k=v"), Forwarded: true, Style: Open}
	next := uint64(0)
	serve := func() {
		next++
		req.Call, req.Floor = ids.CallID{Client: "z00", Number: next}, next
		srv.execute(req, "rm", vclock.Stamp{Time: next, Sender: "rm"})
	}
	for i := 0; i < 64; i++ {
		serve()
	}
	avg := allocs.PerOp(500, serve)
	t.Logf("forwarded request → direct reply: %.3f allocs/op", avg)
	const budget = 0.05 // measured 0.008–0.010, the arenas' chunk refills (1.0 with the reply's frame detached)
	if avg > budget && !raceEnabled {
		t.Fatalf("executing and answering a forwarded request allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// answerSink puts a stub client on net whose "reply" sink counts the
// one-ways it receives and decodes nothing: what a request manager's answer
// costs the client is TestAllocGuardInvoke's business.
func answerSink(t *testing.T, net *memnet.Net, id ids.ProcessID) *atomic.Uint64 {
	t.Helper()
	var answered atomic.Uint64
	soloService(t, net, id).orb.HandleOneWay(controlObject, "reply", func([]byte) { answered.Add(1) })
	return &answered
}

// awaitAnswers spins until n answers have arrived, so the sink's half of
// every operation falls inside the measurement, not at the scheduler's whim.
func awaitAnswers(answered *atomic.Uint64, n uint64) {
	for answered.Load() < n {
		runtime.Gosched()
	}
}

// TestAllocGuardExecuteRetains budgets a replica's execution of delivered
// requests with its client's window sliding along: each request carries a
// floor 32 calls behind it, as a pipelining client's does, so every
// execution retains its reply in the client's log and drops one the floor
// has passed. The log's capacity is reused; nothing is hashed per call.
func TestAllocGuardExecuteRetains(t *testing.T) {
	_, srv := soloServer(t, "replica")
	req := &invRequest{Mode: Majority, Method: "put", Args: []byte("k=v"), Forwarded: true, Style: Open}
	next := uint64(0)
	exec := func() {
		next++
		req.Call = ids.CallID{Client: "z00", Number: next}
		req.Floor = max(next, 33) - 32
		srv.executeDelivered(req, vclock.Stamp{Time: next, Sender: "rm"})
	}
	for i := 0; i < 64; i++ {
		exec()
	}
	avg := allocs.PerOp(1000, exec)
	t.Logf("execute and retain, floor 32 behind: %.3f allocs/op", avg)
	srv.mu.Lock()
	l := srv.clients["z00"]
	held, floor := l.win.Span(), l.win.Floor()+1
	srv.mu.Unlock()
	if held != 33 || floor != next-32 {
		t.Fatalf("log holds %d calls from %d after call %d; want the 33 from %d", held, floor, next, next-32)
	}
	const budget = 0.05 // measured 0.000 (1.0 with a 4096-entry map keyed by CallID that forgot by count)
	if avg > budget && !raceEnabled {
		t.Fatalf("executing and retaining a delivered request allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// TestAllocGuardCollectReply budgets the request manager's half: filing one
// direct reply, and — for the reply that completes the quorum — concluding
// the collection, whose reply set stays in the call's entry for retries, and
// answering the client with one ORB one-way, all on the arrival path. No
// goroutine, no timer, no map and no sort per call, and the set is part of
// the collection; the one-way's frame is sent from a pooled writer, and the
// in-memory link carries it from a queue that recycles its array. The
// operation ends when the stub client's sink has the answer.
func TestAllocGuardCollectReply(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	svc, srv := soloServerOn(t, net, "rm")
	answered := answerSink(t, net, "z00")
	cs, err := svc.node.Create("cs", srv.group.Config()) // the same parked timers
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const runs = 500
	srv.mu.Lock()
	for n := uint64(1); n <= runs+65; n++ {
		call := ids.CallID{Client: "z00", Number: n}
		e, _ := srv.entryLocked(call, 1)
		e.coll = srv.newCollectionLocked(call, Majority)
		e.coll.b, e.coll.client, e.coll.start = cs, "z00", time.Now()
		srv.group.Attend() // conclude releases the server group and the client group
		cs.Attend()
	}
	srv.roster["s01"], srv.roster["s02"] = true, true
	srv.mu.Unlock()

	payload := make([]byte, 100)
	next := uint64(0)
	collect := func() {
		next++
		call := ids.CallID{Client: "z00", Number: next}
		srv.collectReply(invReply{Call: call, Server: "s01", Payload: payload})
		srv.collectReply(invReply{Call: call, Server: "rm", Payload: payload})
		srv.collectReply(invReply{Call: call, Server: "s02", Payload: payload}) // late: dropped
		awaitAnswers(answered, next)
	}
	for i := 0; i < 64; i++ {
		collect()
	}
	avg := allocs.PerOp(runs, collect)
	t.Logf("three direct replies → one reply set: %.3f allocs/op", avg)
	srv.mu.Lock()
	open, kept := len(srv.open), 0
	srv.clients["z00"].win.Each(func(_ uint64, e *retained) {
		if e.coll != nil && e.coll.answered {
			kept++
		}
	})
	srv.mu.Unlock()
	if open != 0 || kept != runs+65 {
		t.Fatalf("%d collections still open, %d reply sets retained; want 0 and %d", open, kept, runs+65)
	}
	const budget = 0.05 // measured 0.016–0.018, the arenas' chunk refills (1.0 with memnet's link queue re-sliced per frame, 2.0 with the answer's frame detached too, 3.0 with the reply set a separate allocation as well)
	if avg > budget && !raceEnabled {
		t.Fatalf("collecting a call's replies allocates %.3f/op, budget %.2f", avg, budget)
	}
}

// TestAllocGuardRequestManager budgets the request manager's whole part in
// an open wait-for-majority call (run by ci.sh's AllocGuard stage): receive the
// request, forward it into the server group, execute it there as one of
// the replicas, file that and a stub replica's direct reply, answer the
// stub client with one ORB one-way. The operation waits for the answer's
// arrival at the client's sink, so the asynchronous half — the forward's
// delivery, decoding and execution on a dispatch worker — falls inside the
// measurement.
//
// Each request carries its client's floor, which passes the call before it
// once that call's forward is delivered: its collection goes back to the free
// list, and the next call reuses it.
//
// With the forward decoded into a heap request with fresh identifier strings,
// and the collection, its replies, its deadline timer and closure and its
// reply set allocated one by one, it measured 14.0; with the collection
// allocated per call, because a count-bounded cache kept it for retries, 1.0.
func TestAllocGuardRequestManager(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	svc, srv := soloServerOn(t, net, "rm")
	answered := answerSink(t, net, "z00")
	cs, err := svc.node.Create("cs", srv.group.Config()) // the same parked timers
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	srv.mu.Lock()
	srv.roster["s01"] = true // the stub; the manager's own execution is the majority's other half
	srv.mu.Unlock()

	bind := &bindRequest{Group: "cs", Style: Open}
	req := &invRequest{Mode: Majority, Method: "put", Args: []byte("k=v"), Client: "z00", Style: Open, Trace: 7}
	payload := make([]byte, 100)
	next := uint64(0)
	call := func() {
		next++
		req.Call, req.Floor = ids.CallID{Client: "z00", Number: next}, next
		srv.serveAsRM(cs, bind, req)
		srv.collectReply(invReply{Call: req.Call, Server: "s01", Payload: payload})
		awaitAnswers(answered, next)
	}
	for i := 0; i < 64; i++ {
		call()
	}
	avg := allocs.PerOp(500, call)
	t.Logf("open majority call at the request manager: %.3f allocs/op", avg)
	srv.mu.Lock()
	e := srv.findLocked(req.Call)
	srv.mu.Unlock()
	if e == nil || e.coll == nil || len(e.coll.set.Replies) != 2 {
		t.Fatalf("last call's entry %+v; want its reply set with the manager's and the stub's replies", e)
	}
	const budget = 0.1 // measured 0.040–0.042, the arenas' chunk refills (1.0 with a collection per call, 2.0 with memnet's link queue re-sliced per frame, 5.0 with the relayed request and the frames detached too)
	if avg > budget && !raceEnabled {
		t.Fatalf("an open majority call allocates %.3f/op at the request manager, budget %.2f", avg, budget)
	}
}

// TestAllocGuardPrimary is TestAllocGuardRequestManager's twin for an
// async-forward wait-for-first call (rmPrimary, pipeline_async's path):
// relay into the server group, execute at once, answer the stub client with
// the reply set built on the stack, and — the operation ends there —
// deliver the relay back in order, where the call's entry makes it run
// nothing. The floor each request carries drops the call before.
func TestAllocGuardPrimary(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	svc := soloService(t, net, "rm")
	var execs atomic.Uint64
	value := []byte("ok")
	srv := soloServe(t, svc, func(string, []byte) ([]byte, error) {
		execs.Add(1)
		return value, nil
	})
	answered := answerSink(t, net, "z00")
	cs, err := svc.node.Create("cs", srv.group.Config())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	bind := &bindRequest{Group: "cs", Style: Open, AsyncFwd: true}
	req := &invRequest{Mode: First, Method: "put", Args: []byte("k=v"), Client: "z00", Style: Open, Trace: 7}
	next := uint64(0)
	call := func() {
		next++
		req.Call, req.Floor = ids.CallID{Client: "z00", Number: next}, next
		srv.serveAsRM(cs, bind, req)
		awaitAnswers(answered, next)
		for srv.seenOf("z00") < next {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	avg := allocs.PerOp(500, call)
	t.Logf("async-forward first call at the primary: %.3f allocs/op", avg)
	if execs.Load() != next {
		t.Fatalf("%d executions for %d calls: the primary ran its own relay again", execs.Load(), next)
	}
	const budget = 0.1 // measured 0.032–0.034, the arenas' chunk refills (1.0 with the answer's reply set on the heap)
	if avg > budget && !raceEnabled {
		t.Fatalf("an async-forward call allocates %.3f/op at the primary, budget %.2f", avg, budget)
	}
}
