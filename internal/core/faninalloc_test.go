package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// TestAllocGuardForwardedReply budgets a replica's half of the reply fan-in
// (run by ci.sh's AllocGuard stage; internal/lint/allocbudget.go pins the
// same entry point statically): execute a forwarded request once, retain the
// reply, answer the request manager with one ORB one-way, whose frame is
// written and sent from a pooled writer. Nothing is left to allocate.
func TestAllocGuardForwardedReply(t *testing.T) {
	_, srv := soloServer(t, "replica")
	req := &invRequest{Mode: Majority, Method: "put", Args: []byte("k=v"), Forwarded: true, Style: Open}
	next := uint64(0)
	serve := func() {
		next++
		req.Call = ids.CallID{Client: "z00", Number: next}
		srv.execute(req, "rm", vclock.Stamp{Time: next, Sender: "rm"})
	}
	for i := 0; i < 64; i++ {
		serve()
	}
	avg := testing.AllocsPerRun(500, serve)
	t.Logf("forwarded request → direct reply: %.1f allocs/op", avg)
	const budget = 0 // measured 0.0 (1.0 with the reply's frame detached)
	if avg > budget && !raceEnabled {
		t.Fatalf("executing and answering a forwarded request allocates %.1f/op, budget %d", avg, budget)
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

// TestAllocGuardCollectReply budgets the request manager's half: filing one
// direct reply, and — for the reply that completes the quorum — concluding
// the collection, retaining its reply set and answering the client with one
// ORB one-way, all on the arrival path. No goroutine, no timer, no map and no
// sort per call, and the set is part of the collection; the one-way's frame
// is sent from a pooled writer, and the in-memory link carries it from a
// queue that recycles its array. The operation ends when the stub client's
// sink has the answer.
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
		c := &collection{b: cs, client: "z00", start: time.Now()}
		c.set.Call, c.mode = ids.CallID{Client: "z00", Number: n}, Majority
		c.replies = c.inline[:0]
		srv.collectors[c.set.Call] = c
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
	avg := testing.AllocsPerRun(runs, collect)
	t.Logf("three direct replies → one reply set: %.1f allocs/op", avg)
	srv.mu.Lock()
	open, kept := len(srv.collectors), len(srv.sets.m)
	srv.mu.Unlock()
	if open != 0 || kept != runs+65 {
		t.Fatalf("%d collections still open, %d reply sets retained; want 0 and %d", open, kept, runs+65)
	}
	const budget = 0 // measured 0.0 (1.0 with memnet's link queue re-sliced per frame, 2.0 with the answer's frame detached too, 3.0 with the reply set a separate allocation as well)
	if avg > budget && !raceEnabled {
		t.Fatalf("collecting a call's replies allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardRequestManager budgets the request manager's whole part in
// an open wait-for-majority call (run by ci.sh's AllocGuard stage;
// internal/lint/allocbudget.go pins serveAsRM statically): receive the
// request, forward it into the server group, execute it there as one of
// the replicas, file that and a stub replica's direct reply, answer the
// stub client with one ORB one-way. The operation waits for the answer's
// arrival at the client's sink, so the asynchronous half — the forward's
// delivery, decoding and execution on a dispatch worker — falls inside the
// measurement.
//
// With the forward decoded into a heap request with fresh identifier strings,
// and the collection, its replies, its deadline timer and closure and its
// reply set allocated one by one, it measured 14.0.
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
		req.Call = ids.CallID{Client: "z00", Number: next}
		srv.serveAsRM(cs, bind, req)
		srv.collectReply(invReply{Call: req.Call, Server: "s01", Payload: payload})
		awaitAnswers(answered, next)
	}
	for i := 0; i < 64; i++ {
		call()
	}
	avg := testing.AllocsPerRun(500, call)
	t.Logf("open majority call at the request manager: %.1f allocs/op", avg)
	if set, ok := srv.sets.get(req.Call); !ok || len(set.Replies) != 2 {
		t.Fatalf("last call's reply set %+v retained %v; want the manager's and the stub's replies", set, ok)
	}
	const budget = 1 // measured 1.0 (2.0 with memnet's link queue re-sliced per frame, 5.0 with the relayed request and the frames detached too)
	if avg > budget && !raceEnabled {
		t.Fatalf("an open majority call allocates %.1f/op at the request manager, budget %d", avg, budget)
	}
}
