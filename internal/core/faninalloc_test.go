package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/vclock"
)

// TestAllocGuardForwardedReply budgets a replica's half of the reply fan-in
// (run by ci.sh's AllocGuard stage; internal/lint/allocbudget.go pins the
// same entry point statically): execute a forwarded request once, retain the
// reply, answer the request manager with one ORB one-way. What is left is
// the execution span's note, the reply envelope and the ORB frame around it.
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
	const budget = 3 // measured 2.0
	if avg > budget && !raceEnabled {
		t.Fatalf("executing and answering a forwarded request allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardCollectReply budgets the request manager's half: filing one
// direct reply, and — for the reply that completes the quorum — building the
// reply set, retaining it and multicasting it in the client group, all on
// the arrival path. No goroutine, no timer, no map and no sort per call: the
// set, its envelope and the multicast are what remains. A second
// single-member group stands in for the client group: the set's delivery in
// it is part of the count, a client's decoding of it is not — answered in
// the server group itself, the member's own group loop decoded each set it
// delivered, on its own goroutine, and whether that fell inside the
// measurement was the scheduler's choice (4.0 allocs/op, now and then 7.0).
func TestAllocGuardCollectReply(t *testing.T) {
	svc, srv := soloServer(t, "rm")
	cs, err := svc.node.Create("cs", srv.group.Config()) // the same parked timers
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	go consumeEvents(cs, func(gcs.Event) bool { return true })
	const runs = 500
	srv.mu.Lock()
	for n := uint64(1); n <= runs+65; n++ {
		c := &collection{call: ids.CallID{Client: "z00", Number: n}, b: cs, start: time.Now()}
		c.mode = Majority
		c.replies = make([]invReply, 0, 3)
		c.deadline = time.NewTimer(time.Hour)
		srv.collectors[c.call] = c
		srv.group.Attend() // answer releases the server group and the client group
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
	const budget = 5 // measured 4.0
	if avg > budget && !raceEnabled {
		t.Fatalf("collecting a call's replies allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestAllocGuardRequestManager budgets the request manager's whole part in
// an open wait-for-majority call (run by ci.sh's AllocGuard stage;
// internal/lint/allocbudget.go pins serveAsRM statically): receive the
// request, forward it into the server group, execute it there as one of
// the replicas, file that and a stub replica's direct reply, answer in the
// client group. The operation waits for the answer's delivery, so the
// asynchronous half — the forward's delivery and execution on a dispatch
// worker — falls inside the measurement.
func TestAllocGuardRequestManager(t *testing.T) {
	svc, srv := soloServer(t, "rm")
	cs, err := svc.node.Create("cs", srv.group.Config()) // the same parked timers
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var answered atomic.Uint64
	go consumeEvents(cs, func(ev gcs.Event) bool {
		if ev.Type == gcs.EventDeliver {
			answered.Add(1)
		}
		return true
	})
	// The stub joins the roster once the founding view, which would prune
	// it, has been handled: the member's own hello follows it in the stream.
	for applied := false; !applied; runtime.Gosched() {
		srv.execMu.Lock()
		_, applied = srv.applied["rm"]
		srv.execMu.Unlock()
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
		for answered.Load() < next {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		call()
	}
	avg := testing.AllocsPerRun(500, call)
	t.Logf("open majority call at the request manager: %.1f allocs/op", avg)
	if set, ok := srv.sets.get(req.Call); !ok || len(set.Replies) != 2 {
		t.Fatalf("last call's reply set %+v retained %v; want the manager's and the stub's replies", set, ok)
	}
	const budget = 15 // measured 15.0, the same with one function per policy
	if avg > budget && !raceEnabled {
		t.Fatalf("an open majority call allocates %.1f/op at the request manager, budget %d", avg, budget)
	}
}
