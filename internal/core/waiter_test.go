package core

import (
	"testing"

	"newtop/internal/ids"
)

// A completed call's goroutine drops its reply sink after its caller has
// been released, so an immediate retry under the same call identifier can
// install its own sink first. The late drop must leave that one in place,
// or the retry's answer finds no waiter and the call hangs until the
// binding is declared broken (TestCallOptionSurface, ~1 in 10 under -race).
func TestDropWaiterLeavesRetrySink(t *testing.T) {
	s := &Service{waiters: make(map[ids.CallID]*callWaiter)}
	call := ids.CallID{Client: "z00", Number: 1}
	first := s.registerWaiter(call, First, nil)
	retry := s.registerWaiter(call, First, nil)
	s.dropWaiter(call, first)

	s.routeReplySet(&invReplySet{Call: call})
	select {
	case <-retry.set:
	default:
		t.Fatal("the first call's late drop removed the retry's reply sink")
	}
	s.dropWaiter(call, retry)
	if len(s.waiters) != 0 {
		t.Fatalf("%d sinks left after both calls dropped theirs", len(s.waiters))
	}
}

// Every member of a client group issues the same call and the request
// manager answers the first copy, so the answer can arrive before a slower
// member has launched its own — whose copy is then filtered as a duplicate.
// The early answer must be kept for that launch, not dropped
// (TestGroupToGroupFiltersDuplicates, 8–15 in 100 red before).
func TestG2GRetainsReplySetThatOvertakesTheCall(t *testing.T) {
	g := &G2G{svc: &Service{waiters: make(map[ids.CallID]*callWaiter)}}
	call := ids.CallID{Client: "g2g/gz", Number: 1}
	set := &invReplySet{Call: call}

	g.routeOrRetain(set) // no waiter yet
	w := g.svc.registerWaiter(call, First, nil)
	g.claimEarly(call, w)
	select {
	case got := <-w.set:
		if got != set {
			t.Fatal("claimed a different reply set")
		}
	default:
		t.Fatal("the reply set that arrived before the call was issued is lost")
	}
	if len(g.early) != 0 {
		t.Fatalf("%d sets still retained after the claim", len(g.early))
	}

	// The usual order — call first, answer second — routes directly.
	g.routeOrRetain(set)
	if len(w.set) != 1 || len(g.early) != 0 {
		t.Fatalf("routed=%d retained=%d, want 1 and 0", len(w.set), len(g.early))
	}

	// Retention is bounded.
	g.svc.dropWaiter(call, w)
	for n := uint64(10); n < 10+2*earlyCap; n++ {
		g.routeOrRetain(&invReplySet{Call: ids.CallID{Client: "g2g/gz", Number: n}})
	}
	if len(g.early) > earlyCap {
		t.Fatalf("%d sets retained, cap %d", len(g.early), earlyCap)
	}
}
