package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs/flight"
	"newtop/internal/transport/memnet"
)

// soloEngine builds an engine whose group has this process as its only
// member, with every protocol timer parked (see TestAllocGuardLeasedRead),
// and whose peers are the test: it plays the request manager by handing
// reply sets to onReplySet and the servers by handing replies to the
// service's routeReply. The group's events are drained, not handed to the
// engine — the founding view holds no server, which it would call broken.
func soloEngine(t *testing.T, style Style, servers ...ids.ProcessID) *engine {
	t.Helper()
	return soloEngineOn(t, memnet.New(netsim.New(netsim.FastProfile(), 1)), style, servers...)
}

// soloEngineOn is soloEngine on a network the test can put scripted peers on.
func soloEngineOn(t *testing.T, net *memnet.Net, style Style, servers ...ids.ProcessID) *engine {
	t.Helper()
	svc := soloService(t, net, "z00")
	group, err := svc.node.Create("cs", requestReplyDefaults(gcs.GroupConfig{
		TimeSilence:    time.Hour,
		SuspectTimeout: time.Hour,
		Resend:         time.Hour,
		FlushTimeout:   time.Hour,
		Tick:           time.Hour,
	}))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	group.SetHandler(func(gcs.Event) {})
	e := svc.newEngine(group, BindConfig{ServerGroup: "sg"}, style, servers[0], servers)
	e.setViewLocked(gcs.View{Seq: 1, Members: append([]ids.ProcessID{"z00"}, servers...)})
	svc.attached[group.ID()] = e
	return e
}

func soloService(t *testing.T, net *memnet.Net, id ids.ProcessID) *Service {
	t.Helper()
	ep, err := net.Endpoint(id, netsim.SiteLAN)
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	svc := NewService(ep)
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// A request off the wire may carry no trace identifier (zero = untraced): its
// stages are not journalled, or every such call would merge into one trace.
func TestSpanDropsZeroTrace(t *testing.T) {
	svc := soloService(t, memnet.New(netsim.New(netsim.FastProfile(), 1)), "z00")
	cursor := svc.fr.Cursor()
	svc.span(0, flight.StReplicaExecute, 0, time.Millisecond)
	svc.span(9, flight.StReplicaExecute, 0, time.Millisecond)
	events, _ := svc.fr.Since(cursor)
	var traces []uint64
	for _, ev := range events {
		if ev.Type == flight.EvStage {
			traces = append(traces, ev.MsgSeq)
		}
	}
	if len(traces) != 1 || traces[0] != 9 {
		t.Fatalf("stage events journalled under traces %v, want only trace 9", traces)
	}
}

// A completed call's epilogue must leave the table entry of a retry under
// the same call identifier alone: the retry may have been filed before the
// first call's completion got round to its epilogue (a Cancel racing the
// retry; with the waiter table beside the future this was
// TestCallOptionSurface hanging ~1 in 10 under -race).
func TestRetireLeavesTheRetrysTableEntry(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	o := callOpts{mode: First, call: ids.CallID{Client: "z00", Number: 1}, hasCall: true}
	first, err := e.launch(context.Background(), "m", nil, o, true)
	if err != nil {
		t.Fatal(err)
	}
	retry, err := e.launch(context.Background(), "m", nil, o, true)
	if err != nil {
		t.Fatal(err)
	}
	first.Cancel()
	if _, err := first.Replies(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first call ended with %v, want context.Canceled", err)
	}

	e.onReplySet(asAnswer(&invReplySet{Call: o.call, Replies: []invReply{{Call: o.call, Server: "s00"}}}))
	select {
	case <-retry.Done():
	default:
		t.Fatal("the first call's epilogue removed the retry's table entry")
	}
	if replies, err := retry.Replies(); err != nil || len(replies) != 1 {
		t.Fatalf("retry: %d replies, err %v", len(replies), err)
	}
	if len(e.calls) != 0 || len(e.window) != 0 {
		t.Fatalf("%d calls outstanding, %d window slots held after both completed", len(e.calls), len(e.window))
	}
}

// Every member of a client group issues the same call and the request
// manager answers the first copy, so the answer can arrive before a slower
// member has launched its own — whose copy is then filtered as a duplicate.
// The early answer must be kept for that launch, not dropped
// (TestGroupToGroupFiltersDuplicates, 8–15 in 100 red before).
func TestEngineRetainsReplySetThatOvertakesTheLaunch(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	e.groupClient = "g2g/gz"
	e.early = newBounded[ids.CallID, answer](earlyCap)
	id := ids.CallID{Client: "g2g/gz", Number: 1}
	set := &invReplySet{Call: id, Replies: []invReply{{Call: id, Server: "s00", Payload: []byte("early")}}}
	o := callOpts{mode: First, call: ids.CallID{Number: 1}, hasCall: true}

	e.onReplySet(asAnswer(set)) // nobody has launched the call yet
	c, err := e.launch(context.Background(), "m", nil, o, true)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("the reply set that arrived before the call was issued is lost")
	}
	if replies, err := c.Replies(); err != nil || len(replies) != 1 || string(replies[0].Payload) != "early" {
		t.Fatalf("claimed %v, err %v", replies, err)
	}
	if len(e.early.m) != 0 || len(e.calls) != 0 {
		t.Fatalf("%d sets retained, %d calls outstanding after the claim", len(e.early.m), len(e.calls))
	}

	// The usual order — call first, answer second — completes directly.
	o.call.Number = 2
	c, err = e.launch(context.Background(), "m", nil, o, true)
	if err != nil {
		t.Fatal(err)
	}
	id.Number = 2
	e.onReplySet(asAnswer(&invReplySet{Call: id, Replies: set.Replies}))
	if _, err := c.Replies(); err != nil || len(e.early.m) != 0 {
		t.Fatalf("err %v, %d sets retained; want nil and 0", err, len(e.early.m))
	}

	// Retention is bounded.
	for n := uint64(10); n < 10+2*earlyCap; n++ {
		e.onReplySet(answer{Call: ids.CallID{Client: "g2g/gz", Number: n}})
	}
	if len(e.early.m) > earlyCap {
		t.Fatalf("%d sets retained, cap %d", len(e.early.m), earlyCap)
	}
}

// TestAllocGuardInvoke budgets the client's half of an invocation, launch
// to completion, against stub peers (run by ci.sh's AllocGuard stage;
// internal/lint/allocbudget.go pins launch and finish statically): an open
// wait-for-first call as Call runs it — launched, answered by one reply set
// through the ORB sink, awaited — and a closed wait-for-all call as
// InvokeAsync runs it under a cancellable context, answered by three direct
// replies through the ORB sink. The call identifier is pinned so the peers'
// frames are built once; what is counted is the engine's own: the future and
// its done channel, the request's encoding and multicast, the answer's
// decoding (its identifiers interned, its replies straight into the Reply
// values the call hands out) or the reply conversion and, for the detached
// call, the hook on its context. The two stage records (EvCallStart, the
// client.invoke stage event) allocate nothing.
//
// With the waiter table beside the future (callWaiter and its channel, a
// goroutine per call, the record/release closures, a child context per
// future) the same two sequences measured 19.0 and 27.0 allocs/op; with the
// span tracer's store and note strings beside the journal, 9.0 and 20.0;
// decoding into a heap reply set and fresh identifier strings, then copying
// into the Reply values, 11.0 and 17.0; with the request and its frame each
// detached from their pooled writers, 5.0 and 10.0; with InvokeAsync's
// options folded through a pointer, 3.0 and 8.0.
func TestAllocGuardInvoke(t *testing.T) {
	payload := make([]byte, 100)
	args := []byte("k=v")
	id := ids.CallID{Client: "z00", Number: 7}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	check := func(t *testing.T, what string, budget float64, invoke func()) {
		for i := 0; i < 64; i++ {
			invoke()
		}
		avg := testing.AllocsPerRun(500, invoke)
		t.Logf("%s, launch→completion: %.1f allocs/op", what, avg)
		if avg > budget && !raceEnabled {
			t.Fatalf("%s allocates %.1f/op, budget %.0f", what, avg, budget)
		}
	}

	t.Run("open-first", func(t *testing.T) {
		e := soloEngine(t, Open, "s00")
		set := &invReplySet{Call: id, Replies: []invReply{{Call: id, Server: "s00", Payload: payload}}}
		frame := encodeReplyMsg(replyMsg{To: toOpen, Group: []byte(e.group.ID()), Set: set})
		o := resolveCallOpts([]CallOption{WithMode(First), WithCallID(id)})
		check(t, "open First", 3, func() { // measured 3.0
			c, err := e.launch(ctx, "put", args, o, false)
			if err != nil {
				t.Fatal(err)
			}
			e.svc.routeReply(frame)
			if _, err := c.Await(ctx); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("closed-all", func(t *testing.T) {
		e := soloEngine(t, Closed, "s00", "s01", "s02")
		var frames [][]byte
		for _, s := range e.servers {
			frames = append(frames, encodeReplyMsg(replyMsg{To: toClosed, Group: []byte(e.group.ID()), Reply: invReply{Call: id, Server: s, Payload: payload}}))
		}
		opts := []CallOption{WithMode(All), WithCallID(id)}
		check(t, "closed All", 7, func() { // measured 7.0 (8.0 with the options resolved on the heap)
			c, err := e.InvokeAsync(ctx, "put", args, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				e.svc.routeReply(f)
			}
			if _, err := c.Replies(); err != nil || len(c.replies) != 3 {
				t.Fatalf("%d replies, err %v", len(c.replies), err)
			}
		})
	})
}

// A read escalates from Leased to Linearizable on every refusal a stronger
// read can get past — a lapsed lease, a replica that is not the ordering
// authority, a session floor out of reach, a replica between views — and on
// no other answer, whatever the attachment: a group-to-group one used to
// escalate on the lapsed lease alone. The replica here is a script.
func TestReadEscalatesOnEveryImprovableRefusal(t *testing.T) {
	for _, tc := range []struct {
		code      byte
		escalates bool
		is        error // what the error wraps when the escalated read is refused too
	}{
		{readErrLease, true, ErrLeaseExpired},
		{readErrNotSeq, true, ErrNotLinearizable},
		{readErrMinStamp, true, nil},
		{readErrRetry, true, nil},
		{readErrApp, false, nil},
		{readErrDisabled, false, ErrReadDisabled},
	} {
		for shape, groupClient := range map[string]ids.ProcessID{"binding": "", "g2g": "g2g/gz"} {
			t.Run(fmt.Sprintf("code%d/%s", tc.code, shape), func(t *testing.T) {
				net := memnet.New(netsim.New(netsim.FastProfile(), 1))
				e := soloEngineOn(t, net, Open, "s00")
				e.groupClient = groupClient
				var mu sync.Mutex
				var asked []Consistency
				refuseAll := false
				soloService(t, net, "s00").orb.Register(controlObject, func(method string, args []byte) ([]byte, error) {
					var req readRequest
					if err := decodeReadRequest(args, nil, &req); method != "read" || err != nil {
						return nil, fmt.Errorf("unexpected %q: %v", method, err)
					}
					mu.Lock()
					defer mu.Unlock()
					asked = append(asked, req.Consistency)
					if req.Consistency == Linearizable && !refuseAll {
						return encodeReadReply(&readReply{Code: readOK, Payload: []byte("fresh")}), nil
					}
					return encodeReadReply(&readReply{Code: tc.code, Err: "scripted"}), nil
				})

				got, err := e.Read(context.Background(), "get", nil)
				want := []Consistency{Leased}
				if tc.escalates {
					want = append(want, Linearizable)
				}
				if fmt.Sprint(asked) != fmt.Sprint(want) {
					t.Fatalf("the replica was asked %v, want %v", asked, want)
				}
				if tc.escalates != (err == nil && string(got) == "fresh") {
					t.Fatalf("read returned %q, %v", got, err)
				}

				mu.Lock()
				refuseAll = true
				mu.Unlock()
				if _, err = e.Read(context.Background(), "get", nil); err == nil || tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("refused at every consistency: %v, want an error wrapping %v", err, tc.is)
				}
			})
		}
	}
}
