package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/leakcheck"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// confWorld is the conformance fixture: three services, each a replica of
// the server group "sg" and of the two shard groups "sh0" and "sh1", all
// with the read path on, and as many client services as a shape asks for,
// sharing one private observability domain. The servant is a key-value
// store; its "block" method parks every replica on the gate, which is how
// the suite holds calls outstanding without losing a frame.
type confWorld struct {
	t       *testing.T
	net     *memnet.Net
	timers  gcs.GroupConfig
	contact ids.ProcessID // whom the shapes bind through
	servers []*core.Service
	obs     *obs.Obs // the clients' registry and journal
	clients int

	gate    atomic.Pointer[chan struct{}]
	started atomic.Int64 // "block" executions begun
	execs   sync.Map     // "<server>/<args>" → *atomic.Int64, "block" executions
}

var confGroups = []ids.GroupID{"sg", "sh0", "sh1"}

// newConfWorld builds the fixture. The shapes bind through contact: s00,
// the groups' leader and so the one replica that serves a group-to-group
// attachment's linearizable reads, or s01, whose crash leaves the survivors
// their coordinator. suspect is the groups' SuspectTimeout: long where
// calls are held outstanding on a healthy world, short where a crash must
// be noticed.
func newConfWorld(t *testing.T, contact ids.ProcessID, suspect time.Duration) *confWorld {
	t.Helper()
	leakcheck.Check(t)
	w := &confWorld{t: t, net: memnet.New(netsim.New(netsim.FastProfile(), 23)), timers: leaseTimers(), contact: contact, obs: obs.New()}
	w.timers.SuspectTimeout = suspect
	ctx := ctxT(t, 20*time.Second)
	var srvs []*core.Server
	var through ids.ProcessID // founds the groups, then joins through s00
	for i := 0; i < 3; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		svc := core.NewService(ep)
		w.servers = append(w.servers, svc)
		for _, g := range confGroups {
			srv, err := svc.Serve(ctx, core.ServeConfig{Group: g, Contact: through, Handler: w.servant(id), GCS: w.timers})
			if err != nil {
				t.Fatalf("serve %s/%s: %v", id, g, err)
			}
			if g == "sg" {
				srvs = append(srvs, srv)
			}
		}
		through = "s00"
	}
	awaitRosters(t, srvs)
	t.Cleanup(func() {
		w.release()
		for _, s := range w.servers {
			_ = s.Close()
		}
	})
	return w
}

// servant is one replica's key-value store of one group.
func (w *confWorld) servant(id ids.ProcessID) core.Handler {
	store := make(map[string]string)
	return func(method string, args []byte) ([]byte, error) {
		switch method {
		case "put": // "k=v"
			k, v, _ := strings.Cut(string(args), "=")
			store[k] = v
			return []byte("ok"), nil
		case "get":
			return []byte(store[string(args)]), nil
		case "block":
			n, _ := w.execs.LoadOrStore(string(id)+"/"+string(args), new(atomic.Int64))
			n.(*atomic.Int64).Add(1)
			w.started.Add(1)
			if gate := w.gate.Load(); gate != nil {
				<-*gate
			}
			return args, nil
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	}
}

// hold parks every "block" execution from now until release.
func (w *confWorld) hold() {
	gate := make(chan struct{})
	w.gate.Store(&gate)
}

func (w *confWorld) release() {
	if gate := w.gate.Swap(nil); gate != nil {
		close(*gate)
	}
}

// client starts one more client service.
func (w *confWorld) client() *core.Service {
	w.t.Helper()
	ep, err := w.net.Endpoint(ids.ProcessID(fmt.Sprintf("z%02d", w.clients)), netsim.SiteLAN)
	if err != nil {
		w.t.Fatalf("endpoint: %v", err)
	}
	w.clients++
	svc := core.NewServiceObs(ep, w.obs)
	w.t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// confWindow is the window every shape binds with.
const confWindow = 2

func (w *confWorld) bindCfg(group ids.GroupID, style core.Style) core.BindConfig {
	return core.BindConfig{ServerGroup: group, Contact: w.contact, Style: style, GCS: w.timers, Window: confWindow}
}

// subject is one Invoker under test, with what the suite has to know of
// its shape.
type subject struct {
	inv core.Invoker
	// opts are the options every call of this shape must carry (a
	// group-to-group call's shared number).
	opts  func() []core.CallOption
	stamp func() vclock.Stamp
	// masked: no request manager to lose — a server's crash is masked
	// (closed). rebinds: a broken binding is replaced under the call (proxy).
	masked, rebinds bool
}

func (s subject) with(opts ...core.CallOption) []core.CallOption {
	if s.opts != nil {
		opts = append(opts, s.opts()...)
	}
	return opts
}

var confShapes = []struct {
	name  string
	build func(t *testing.T, w *confWorld) subject
}{
	{"open", func(t *testing.T, w *confWorld) subject {
		b, err := w.client().Bind(ctxT(t, 10*time.Second), w.bindCfg("sg", core.Open))
		if err != nil {
			t.Fatal(err)
		}
		return subject{inv: b, stamp: b.SessionStamp}
	}},
	{"closed", func(t *testing.T, w *confWorld) subject {
		b, err := w.client().Bind(ctxT(t, 10*time.Second), w.bindCfg("sg", core.Closed))
		if err != nil {
			t.Fatal(err)
		}
		return subject{inv: b, stamp: b.SessionStamp, masked: true}
	}},
	{"g2g", func(t *testing.T, w *confWorld) subject {
		// A client group of two; the suite drives the first member, and the
		// second, which issues nothing, receives every answer early.
		ctx := ctxT(t, 10*time.Second)
		svcs := []*core.Service{w.client(), w.client()}
		var gx [2]*gcs.Group
		var err error
		if gx[0], err = svcs[0].Node().Create("gx", testTimers()); err != nil {
			t.Fatal(err)
		}
		if gx[1], err = svcs[1].Node().Join(ctx, "gx", svcs[0].ID(), testTimers()); err != nil {
			t.Fatal(err)
		}
		for len(gx[0].View().Members) != 2 {
			time.Sleep(time.Millisecond)
		}
		var members [2]*core.G2G
		var wg sync.WaitGroup
		for i, svc := range svcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := svc.BindGroupToGroup(ctx, gx[i], w.bindCfg("sg", core.Open))
				if err != nil {
					t.Errorf("member %d: %v", i, err)
				}
				members[i] = g
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		t.Cleanup(func() { _ = members[1].Close() })
		var number atomic.Uint64
		return subject{inv: members[0], stamp: members[0].SessionStamp, opts: func() []core.CallOption {
			return []core.CallOption{core.WithCallID(ids.CallID{Number: number.Add(1)})}
		}}
	}},
	{"proxy", func(t *testing.T, w *confWorld) subject {
		p, err := w.client().NewProxy(ctxT(t, 10*time.Second), w.bindCfg("sg", core.Open))
		if err != nil {
			t.Fatal(err)
		}
		return subject{inv: p, stamp: p.SessionStamp, rebinds: true}
	}},
	{"sharded", func(t *testing.T, w *confWorld) subject {
		// Every call of the suite is keyed "k" (the arguments up to '='),
		// so they all meet in one shard's binding.
		sb, err := w.client().BindSharded(ctxT(t, 10*time.Second), core.ShardConfig{
			Shards: []core.ShardSpec{{Name: "a", Group: "sh0", Contact: w.contact}, {Name: "b", Group: "sh1", Contact: w.contact}},
			Bind:   w.bindCfg("", core.Open),
		})
		if err != nil {
			t.Fatal(err)
		}
		return subject{inv: sb, stamp: func() vclock.Stamp { return sb.SessionStamps()[sb.Ring().Owner("k")] }}
	}},
}

// TestInvokerConformance runs one suite over every client-side shape of the
// invocation layer: whatever group topology sits underneath, an Invoker
// launches, completes, cancels, backs off, breaks, closes and reads the
// same way — it is one engine. The cases that leave the world as they found
// it share one; a case that closes the subject or crashes a server builds
// its own.
func TestInvokerConformance(t *testing.T) {
	for _, shape := range confShapes {
		t.Run(shape.name, func(t *testing.T) {
			w := newConfWorld(t, "s00", 5*time.Second)
			s := shape.build(t, w)
			defer s.inv.Close()
			for _, c := range []struct {
				name string
				run  func(*testing.T, *confWorld, subject)
			}{
				{"modes", confModes},
				{"async", confAsync},
				{"oneway", confOneWay},
				{"window-cancel", confWindowAndCancel},
				{"context-expiry", confContextExpiry},
				{"stamp", confStampMonotone},
				{"journal", confJournal},
				{"read", confRead},
				{"read-escalation", confReadEscalation},
			} {
				if !t.Run(c.name, func(t *testing.T) { c.run(t, w, s) }) {
					return // the shared world is in an unknown state
				}
			}
			t.Run("close", func(t *testing.T) {
				w := newConfWorld(t, "s00", 5*time.Second)
				confClose(t, w, shape.build(t, w))
			})
			t.Run("rm-crash", func(t *testing.T) {
				w := newConfWorld(t, "s01", 250*time.Millisecond)
				s := shape.build(t, w)
				defer s.inv.Close()
				confRMCrash(t, w, s)
			})
		})
	}
}

func confModes(t *testing.T, w *confWorld, s subject) {
	for _, tc := range []struct {
		mode     core.ReplyMode
		min, max int
	}{{core.First, 1, 3}, {core.Majority, 2, 3}, {core.All, 3, 3}} {
		replies, err := s.inv.Call(ctxT(t, 10*time.Second), "put", []byte("k=modes"), s.with(core.WithMode(tc.mode))...)
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if len(replies) < tc.min || len(replies) > tc.max {
			t.Fatalf("%v: %d replies, want %d..%d", tc.mode, len(replies), tc.min, tc.max)
		}
		for _, r := range replies {
			if r.Err != nil || string(r.Payload) != "ok" {
				t.Fatalf("%v: reply %q, %v from %s", tc.mode, r.Payload, r.Err, r.Server)
			}
		}
	}
	if replies, err := s.inv.Call(ctxT(t, 10*time.Second), "put", []byte("k=default"), s.with()...); err != nil || len(replies) < 1 {
		t.Fatalf("default mode: %d replies, %v", len(replies), err)
	}
}

func confAsync(t *testing.T, w *confWorld, s subject) {
	var calls []*core.Call
	for i := 0; i < 2*confWindow; i++ { // the window frees as replies arrive, nobody awaiting
		c, err := s.inv.InvokeAsync(ctxT(t, 10*time.Second), "put", []byte(fmt.Sprintf("k=async%d", i)), s.with(core.WithMode(core.All))...)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		if c.Mode() != core.All {
			t.Fatalf("future's mode %v, want %v", c.Mode(), core.All)
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		replies, err := c.Await(ctxT(t, 10*time.Second))
		if err != nil || len(replies) != 3 {
			t.Fatalf("await %d: %d replies, %v", i, len(replies), err)
		}
		if got, err := c.Replies(); err != nil || len(got) != 3 || c.Err() != nil {
			t.Fatalf("call %d after completion: %d replies, %v, %v", i, len(got), err, c.Err())
		}
	}
}

func confOneWay(t *testing.T, w *confWorld, s subject) {
	if s.rebinds {
		// A proxy's future is completed by its retry loop, a moment later.
		if _, err := s.inv.Call(ctxT(t, 10*time.Second), "put", []byte("k=oneway"), core.WithMode(core.OneWay)); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i := 0; i < 2*confWindow; i++ { // more than the window: a one-way holds no slot
		c, err := s.inv.InvokeAsync(ctxT(t, 10*time.Second), "put", []byte("k=oneway"), s.with(core.WithMode(core.OneWay))...)
		if err != nil {
			t.Fatalf("one-way %d: %v", i, err)
		}
		select {
		case <-c.Done():
		default:
			t.Fatal("one-way future not complete at return")
		}
		if replies, err := c.Replies(); replies != nil || err != nil {
			t.Fatalf("one-way result %v, %v; want none", replies, err)
		}
	}
}

// launchHeld launches a wait-for-all "block" call, which cannot complete
// before w.release.
func launchHeld(t *testing.T, ctx context.Context, s subject, job string) *core.Call {
	t.Helper()
	c, err := s.inv.InvokeAsync(ctx, "block", []byte("k="+job), s.with(core.WithMode(core.All))...)
	if err != nil {
		t.Fatalf("launch %s: %v", job, err)
	}
	return c
}

func awaitDone(t *testing.T, c *core.Call, what string) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never completed", what)
	}
}

func confWindowAndCancel(t *testing.T, w *confWorld, s subject) {
	w.hold()
	defer w.release()
	ctx := ctxT(t, 20*time.Second)
	held := []*core.Call{launchHeld(t, ctx, s, "w0"), launchHeld(t, ctx, s, "w1")}

	// The window is full: a third call makes no progress. (A proxy hands
	// out the future at once and blocks on its binding's window behind it.)
	short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	c, err := s.inv.InvokeAsync(short, "block", []byte("k=w2"), s.with(core.WithMode(core.All))...)
	if err == nil && s.rebinds {
		_, err = c.Await(ctxT(t, 5*time.Second))
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("launch on a full window: %v, want deadline exceeded", err)
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("launch on a full window returned without blocking")
	}

	select {
	case <-held[0].Done():
		t.Fatalf("held call completed by itself: %v", held[0].Err())
	default:
	}
	held[0].Cancel()
	awaitDone(t, held[0], "cancelled call")
	if _, err := held[0].Replies(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call ended with %v, want context.Canceled", err)
	}
	// Its slot is free again.
	held[0] = launchHeld(t, ctxT(t, 5*time.Second), s, "w3")

	w.release()
	for i, c := range held {
		if replies, err := c.Await(ctx); err != nil || len(replies) != 3 {
			t.Fatalf("held call %d after release: %d replies, %v", i, len(replies), err)
		}
	}
}

func confContextExpiry(t *testing.T, w *confWorld, s subject) {
	w.hold()
	defer w.release()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := launchHeld(t, ctx, s, "expiry")
	awaitDone(t, c, "a detached call whose context expired") // nobody awaits it
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("ended with %v, want deadline exceeded", c.Err())
	}
	// The slot it held is free: the window takes a full load again.
	var held []*core.Call
	for i := 0; i < confWindow; i++ {
		held = append(held, launchHeld(t, ctxT(t, 5*time.Second), s, "after-expiry"))
	}
	w.release()
	for _, c := range held {
		if _, err := c.Await(ctxT(t, 10*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

func confStampMonotone(t *testing.T, w *confWorld, s subject) {
	last := s.stamp()
	for i := 0; i < 5; i++ {
		if _, err := s.inv.Call(ctxT(t, 10*time.Second), "put", []byte(fmt.Sprintf("k=s%d", i)), s.with(core.WithMode(core.Majority))...); err != nil {
			t.Fatal(err)
		}
		now := s.stamp()
		if !last.Less(now) {
			t.Fatalf("session stamp %v after a write, was %v: a write's reply must advance it", now, last)
		}
		last = now
	}
	if _, err := s.inv.Read(ctxT(t, 10*time.Second), "get", []byte("k")); err != nil {
		t.Fatal(err)
	}
	if now := s.stamp(); now.Less(last) {
		t.Fatalf("session stamp went back over a read: %v after %v", now, last)
	}
}

func confJournal(t *testing.T, w *confWorld, s subject) {
	trace := obs.NewTraceID()
	cursor := w.obs.Flight.Cursor()
	if _, err := s.inv.Call(ctxT(t, 10*time.Second), "put", []byte("k=journal"), s.with(core.WithMode(core.Majority), core.WithTrace(trace))...); err != nil {
		t.Fatal(err)
	}
	events, dropped := w.obs.Flight.Since(cursor)
	var starts, invokes int
	for _, ev := range events {
		if ev.MsgSeq != uint64(trace) {
			continue
		}
		switch st, detail := ev.Stage(); {
		case ev.Type == flight.EvCallStart:
			starts++
			if core.ReplyMode(ev.A) != core.Majority {
				t.Fatalf("EvCallStart carries mode %d, want %d", ev.A, core.Majority)
			}
		case ev.Type == flight.EvStage && st == flight.StClientInvoke:
			invokes++
			if core.ReplyMode(detail&0xf) != core.Majority || detail&flight.StageFailed != 0 {
				t.Fatalf("client.invoke carries detail %#x, want mode %d and no failed bit", detail, core.Majority)
			}
		}
	}
	if starts != 1 || invokes != 1 {
		t.Fatalf("journal holds %d EvCallStart and %d client.invoke for the call, want one each", starts, invokes)
	}
	if inFlight, probs := flight.CheckCalls(events, dropped == 0); inFlight != 0 || len(probs) > 0 {
		t.Fatalf("call conservation: %d in flight after the call returned, %v", inFlight, probs)
	}
}

// stageDetails returns the details of the stage events journalled for stage
// under trace.
func stageDetails(o *obs.Obs, trace obs.TraceID, stage flight.CallStage) []uint64 {
	events, _ := o.Flight.Since(0)
	var out []uint64
	for _, ev := range events {
		if st, detail := ev.Stage(); ev.Type == flight.EvStage && ev.MsgSeq == uint64(trace) && st == stage {
			out = append(out, detail)
		}
	}
	return out
}

func confRead(t *testing.T, w *confWorld, s subject) {
	if _, err := s.inv.Call(ctxT(t, 10*time.Second), "put", []byte("k=read"), s.with(core.WithMode(core.Majority))...); err != nil {
		t.Fatal(err)
	}
	for _, cons := range []core.Consistency{0, core.Leased, core.Linearizable, core.Stale} {
		trace := obs.NewTraceID()
		opts := []core.CallOption{core.WithTrace(trace)}
		if cons != 0 {
			opts = append(opts, core.WithConsistency(cons))
		}
		got, err := s.inv.Read(ctxT(t, 10*time.Second), "get", []byte("k"), opts...)
		if err != nil {
			t.Fatalf("%v read: %v", cons, err)
		}
		if cons != core.Stale && string(got) != "read" {
			t.Fatalf("%v read returned %q, want the session's own write", cons, got)
		}
		if len(stageDetails(w.obs, trace, flight.StClientRead)) != 1 {
			t.Fatalf("%v read: no client.read stage journalled under its trace", cons)
		}
	}
	if _, err := s.inv.Read(ctxT(t, 10*time.Second), "nope", []byte("k")); err == nil || errors.Is(err, core.ErrLeaseExpired) {
		t.Fatalf("a servant's error must end the read as it is: %v", err)
	}
}

// A leased read no replica's lease admits is not an error: the read is
// served linearizably at the ordering authority instead. The lease here is
// every replica's own, held against a staleness bound of one tick, which
// the heartbeat period alone exceeds every few milliseconds; the servers'
// replica.read stage event says at which consistency a read was served in the
// end.
func confReadEscalation(t *testing.T, w *confWorld, s subject) {
	for i := 0; i < 5000; i++ {
		trace := obs.NewTraceID()
		got, err := s.inv.Read(ctxT(t, 10*time.Second), "get", []byte("k"), core.WithMaxStaleness(time.Nanosecond), core.WithTrace(trace))
		if err != nil || string(got) != "read" {
			t.Fatalf("read %d: %q, %v", i, got, err)
		}
		for _, served := range stageDetails(obs.Default(), trace, flight.StReplicaRead) {
			if core.Consistency(served) == core.Linearizable {
				return
			}
		}
		time.Sleep(300 * time.Microsecond)
	}
	t.Fatal("no leased read was ever refused by every replica and served linearizably")
}

func confClose(t *testing.T, w *confWorld, s subject) {
	w.hold()
	ctx := ctxT(t, 20*time.Second)
	c := launchHeld(t, ctx, s, "close")
	if err := s.inv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	awaitDone(t, c, "the call outstanding at Close")
	if err := c.Err(); !errors.Is(err, core.ErrBindingBroken) && !(s.rebinds && errors.Is(err, core.ErrClosed)) {
		t.Fatalf("outstanding call ended with %v, want ErrBindingBroken", err)
	}
	if _, err := s.inv.Call(ctx, "put", []byte("k=late"), s.with()...); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Call after Close: %v, want ErrClosed", err)
	}
	if _, err := s.inv.InvokeAsync(ctx, "put", []byte("k=late"), s.with()...); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("InvokeAsync after Close: %v, want ErrClosed", err)
	}
	if _, err := s.inv.Read(ctx, "get", []byte("k")); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("Read after Close: %v, want ErrClosed", err)
	}
	if err := s.inv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func confRMCrash(t *testing.T, w *confWorld, s subject) {
	ctx := ctxT(t, 30*time.Second)
	if _, err := s.inv.Call(ctx, "put", []byte("k=before"), s.with(core.WithMode(core.All))...); err != nil {
		t.Fatal(err)
	}
	stamp := s.stamp()
	w.hold()
	c := launchHeld(t, ctx, s, "crash")
	for deadline := time.Now().Add(10 * time.Second); w.started.Load() < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas started the held call, want 3", w.started.Load())
		}
	}
	w.net.Sim().Crash("s01") // the request manager, mid-call
	w.release()
	awaitDone(t, c, "the call outstanding at the crash")
	replies, err := c.Replies()
	switch {
	case s.masked || s.rebinds:
		if err != nil || len(replies) != 2 {
			t.Fatalf("%d replies, %v; want the two survivors'", len(replies), err)
		}
		for _, r := range replies {
			if r.Server == "s01" {
				t.Fatal("a reply from the crashed server")
			}
		}
	default:
		if !errors.Is(err, core.ErrBindingBroken) {
			t.Fatalf("outstanding call ended with %v, want ErrBindingBroken", err)
		}
		if _, err := s.inv.Call(ctx, "put", []byte("k=after"), s.with()...); !errors.Is(err, core.ErrBindingBroken) {
			t.Fatalf("call on the broken attachment: %v, want ErrBindingBroken", err)
		}
	}
	if s.rebinds {
		// The retry under the same call identifier was answered from the
		// retained replies: one execution per replica, the retry included.
		for _, id := range []string{"s00", "s02"} {
			if n, ok := w.execs.Load(id + "/k=crash"); !ok || n.(*atomic.Int64).Load() != 1 {
				t.Fatalf("%s executed the retried call %v times, want once", id, n)
			}
		}
		if w.obs.Reg.Counter("core_proxy_rebinds").Value() == 0 {
			t.Fatal("the proxy never rebound")
		}
		if now := s.stamp(); now.Less(stamp) {
			t.Fatalf("session stamp %v after the rebind, was %v: the replacement binding must inherit it", now, stamp)
		}
	}
}
