package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/allocs"
	"newtop/internal/netsim"
	"newtop/internal/obs/flight"
	"newtop/internal/transport/memnet"
)

// soloEngine builds an engine whose group has this process as its only
// member, with every protocol timer parked (see TestAllocGuardLeasedRead),
// and whose peers are the test: it plays the request manager by handing
// reply sets to onAnswer and the servers by handing replies to the
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
	// z00 is a member as a closed client would be: a client among servers.
	e.onView(&gcs.View{Seq: 1, Members: ids.SortProcesses(append([]ids.ProcessID{"z00"}, servers...)), Clients: []ids.ProcessID{"z00"}})
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
	svc.span(0, flight.StReplicaExecute, 0, time.Now(), time.Millisecond)
	svc.span(9, flight.StReplicaExecute, 0, time.Now(), time.Millisecond)
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

	e.onAnswer(asAnswer(&invReplySet{Call: o.call, Replies: []invReply{{Call: o.call, Server: "s00"}}}))
	select {
	case <-retry.Done():
	default:
		t.Fatal("the first call's epilogue removed the retry's table entry")
	}
	if replies, err := retry.Replies(); err != nil || len(replies) != 1 {
		t.Fatalf("retry: %d replies, err %v", len(replies), err)
	}
	if held := cap(e.window) - len(e.window); len(e.calls) != 0 || held != 0 {
		t.Fatalf("%d calls outstanding, %d window slots held after both completed", len(e.calls), held)
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
	e.early = newBounded[ids.CallID, decodedSet](earlyCap)
	id := ids.CallID{Client: "g2g/gz", Number: 1}
	set := &invReplySet{Call: id, Replies: []invReply{{Call: id, Server: "s00", Payload: []byte("early")}}}
	o := callOpts{mode: First, call: ids.CallID{Number: 1}, hasCall: true}

	e.onAnswer(asAnswer(set)) // nobody has launched the call yet
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
	e.onAnswer(asAnswer(&invReplySet{Call: id, Replies: set.Replies}))
	if _, err := c.Replies(); err != nil || len(e.early.m) != 0 {
		t.Fatalf("err %v, %d sets retained; want nil and 0", err, len(e.early.m))
	}

	// Retention is bounded.
	for n := uint64(10); n < 10+2*earlyCap; n++ {
		e.onAnswer(asAnswer(&invReplySet{Call: ids.CallID{Client: "g2g/gz", Number: n}}))
	}
	if len(e.early.m) > earlyCap {
		t.Fatalf("%d sets retained, cap %d", len(e.early.m), earlyCap)
	}
}

// TestAllocGuardInvoke budgets the client's half of an invocation, launch
// to completion, against stub peers (run by ci.sh's AllocGuard stage): an open
// wait-for-first call launched by InvokeAsync under a cancellable context,
// as a pipelining client launches it, and awaited while it is in flight,
// answered by one reply set through the ORB sink once its Await is parked;
// the same call through Call, answered when the group delivers its request;
// and a closed wait-for-all call as InvokeAsync runs it under a cancellable
// context, answered by three direct replies through the ORB sink. The call
// identifier is pinned so the peers' frames are built once; what is counted
// is the engine's own: the future (its replies inline), the request's
// encoding and multicast, the answer's decoding (its identifiers interned,
// its replies straight into the call) or the reply conversion. The hook on
// the launching context is the binding's one for that context, made by the
// warm-up; an Await parks on a pooled signal, a synchronous call on its
// window slot's, and a closed call gathers into its window slot's storage,
// none of which costs a call anything.
// The two stage records (EvCallStart, the client.invoke stage event)
// allocate nothing.
//
// With the waiter table beside the future (callWaiter and its channel, a
// goroutine per call, the record/release closures, a child context per
// future) the open and closed sequences measured 19.0 and 27.0 allocs/op;
// with the span tracer's store and note strings beside the journal, 9.0 and
// 20.0; decoding into a heap reply set and fresh identifier strings, then
// copying into the Reply values, 11.0 and 17.0; with the request and its
// frame each detached from their pooled writers, 5.0 and 10.0; with
// InvokeAsync's options folded through a pointer, 3.0 and 8.0;
// with the replies in a slice of their own and a done channel made for
// every future, 3.0 (also through Call) and 7.0; with a context.AfterFunc
// per detached call, a done channel per awaited future and a gather slice
// per closed call, 5.0 (awaited) and 5.0.
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
		avg := allocs.PerOp(500, invoke)
		t.Logf("%s, launch→completion: %.3f allocs/op", what, avg)
		if avg > budget && !raceEnabled {
			t.Fatalf("%s allocates %.3f/op, budget %.2f", what, avg, budget)
		}
	}

	t.Run("open-first", func(t *testing.T) {
		e := soloEngine(t, Open, "s00")
		set := &invReplySet{Call: id, Replies: []invReply{{Call: id, Server: "s00", Payload: payload}}}
		frame := encodeReplyMsg(replyMsg{To: toOpen, Group: []byte(e.group.ID()), Set: set})
		opts := []CallOption{WithMode(First), WithCallID(id)}
		// The answerer routes the reply set once the call's Await is parked.
		inFlight := make(chan *Call)
		defer close(inFlight)
		go func() {
			for c := range inFlight {
				for !parked(c) {
					runtime.Gosched()
				}
				e.svc.routeReply(frame)
			}
		}()
		check(t, "open First, awaited", 1.1, func() { // measured 1.042: the future alone, and the arenas' chunk refills
			c, err := e.InvokeAsync(ctx, "put", args, opts...)
			if err != nil {
				t.Fatal(err)
			}
			inFlight <- c
			if replies, err := c.Await(ctx); err != nil || len(replies) != 1 {
				t.Fatalf("%d replies, err %v", len(replies), err)
			}
		})
		e.group.SetHandler(func(ev gcs.Event) {
			if ev.Type == gcs.EventDeliver {
				e.svc.routeReply(frame)
			}
		})
		o := resolveCallOpts(opts)
		check(t, "open First, Call", 1.1, func() { // measured 1.036: the future alone, and the arenas' chunk refills
			if replies, err := e.call(ctx, "put", args, o); err != nil || len(replies) != 1 {
				t.Fatalf("%d replies, err %v", len(replies), err)
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
		check(t, "closed All", 1.1, func() { // measured 1.042, the arenas' chunk refills included
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

// A closed call gathers its direct replies in its window slot's storage,
// which the next call on the slot reuses. A reply to a call that is over —
// one the reply fan-in looked up before the call ended — must reach
// nothing, or it would land in the next call's replies. With a window of
// one, both calls here take the same slot.
func TestClosedCallSlotTakesNoLateReply(t *testing.T) {
	e := soloEngine(t, Closed, "s00", "s01", "s02")
	e.window = newWindow(1)
	reply := func(c *Call, s ids.ProcessID) invReply {
		return invReply{Call: c.ID(), Server: s, Payload: []byte(fmt.Sprint(c.ID().Number))}
	}
	first, err := e.InvokeAsync(context.Background(), "put", nil, WithMode(All))
	if err != nil {
		t.Fatal(err)
	}
	first.Cancel()
	second, err := e.InvokeAsync(context.Background(), "put", nil, WithMode(All))
	if err != nil {
		t.Fatal(err)
	}
	e.onDirectReply(reply(second, "s02"))
	if first.gather.add(reply(first, "s00")) {
		t.Fatal("a reply to the cancelled call completed its collection")
	}
	e.onDirectReply(reply(second, "s00"))
	e.onDirectReply(reply(second, "s01"))
	if !second.ended() {
		t.Fatal("the second call's three replies did not complete it")
	}
	replies, err := second.Replies()
	if err != nil || len(replies) != 3 {
		t.Fatalf("second call: %d replies, err %v; want 3", len(replies), err)
	}
	for _, r := range replies {
		if string(r.Payload) != fmt.Sprint(second.ID().Number) {
			t.Fatalf("second call got %s's reply %q", r.Server, r.Payload)
		}
	}
}

// parked reports whether an Await is parked on c's signal.
func parked(c *Call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wake != nil
}

// A synchronous call waits on a signal of the window slot it holds, and the
// slot is reused by the next call. A caller that gives up on its context
// must leave the slot with no signal pending — neither its own finish's nor
// a late completion's — or the next call on the slot would return at once,
// with no result. With a window of one, every call here takes the same slot.
func TestSyncCallSlotCarriesNoStaleSignal(t *testing.T) {
	e := soloEngine(t, Open, "s00")
	e.window = newWindow(1)
	answer := func(n uint64, payload string) []byte {
		id := ids.CallID{Client: "z00", Number: n}
		set := &invReplySet{Call: id, Replies: []invReply{{Call: id, Server: "s00", Payload: []byte(payload)}}}
		return encodeReplyMsg(replyMsg{To: toOpen, Group: []byte(e.group.ID()), Set: set})
	}
	opts := func(n uint64) callOpts {
		return resolveCallOpts([]CallOption{WithMode(First), WithCallID(ids.CallID{Client: "z00", Number: n})})
	}

	// Call 1's request reaches the group and its caller gives up.
	gaveUp, cancel := context.WithCancel(context.Background())
	delivered := make(chan struct{}, 4)
	e.group.SetHandler(func(ev gcs.Event) {
		if ev.Type == gcs.EventDeliver {
			delivered <- struct{}{}
		}
	})
	go func() {
		<-delivered
		cancel()
	}()
	if _, err := e.call(gaveUp, "put", nil, opts(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call returned %v, want context.Canceled", err)
	}
	slot := <-e.window
	if n := len(slot.sig); n != 0 {
		t.Fatalf("the abandoned call returned its slot with %d signal(s) pending", n)
	}
	e.window <- slot

	// Its answer arrives late, while call 2 holds the slot: it completes
	// nothing, and call 2 returns its own reply.
	late, second := answer(1, "late"), answer(2, "second")
	e.group.SetHandler(func(ev gcs.Event) {
		if ev.Type == gcs.EventDeliver {
			e.svc.routeReply(late)
			e.svc.routeReply(second)
		}
	})
	replies, err := e.call(context.Background(), "put", nil, opts(2))
	if err != nil || len(replies) != 1 || string(replies[0].Payload) != "second" {
		t.Fatalf("call 2 returned %v, err %v; want its own reply", replies, err)
	}
	if held := cap(e.window) - len(e.window); held != 0 || len(e.calls) != 0 {
		t.Fatalf("%d slots held, %d calls outstanding after both returned", held, len(e.calls))
	}
	slot = <-e.window
	if n := len(slot.sig); n != 0 {
		t.Fatalf("call 2 returned its slot with %d signal(s) pending", n)
	}
	e.window <- slot
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
