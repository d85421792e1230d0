package core_test

import (
	"context"
	"fmt"
	"slices"
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
)

// testTimers returns aggressive gcs timers for fast tests.
func testTimers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence: 5 * time.Millisecond,
		// Generous relative to the heartbeat so the race detector's
		// slowdown cannot produce false suspicions.
		SuspectTimeout: 250 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   400 * time.Millisecond,
		Tick:           2 * time.Millisecond,
	}
}

// world is a fixture with a server group and client services.
type world struct {
	t       *testing.T
	net     *memnet.Net
	servers []*core.Service
	srvs    []*core.Server
	clients []*core.Service
	calls   map[ids.ProcessID]*atomic.Int64 // execution counters per server
	taps    map[ids.ProcessID]*tap          // every process's send-side fault hook
}

// endpoint creates id's endpoint behind a tap.
func (w *world) endpoint(id ids.ProcessID) *tap {
	w.t.Helper()
	ep, err := w.net.Endpoint(id, netsim.SiteLAN)
	if err != nil {
		w.t.Fatalf("endpoint: %v", err)
	}
	tp := &tap{Endpoint: ep}
	w.taps[id] = tp
	return tp
}

func newWorld(t *testing.T, nServers, nClients int) *world {
	t.Helper()
	return newWorldTimers(t, nServers, nClients, testTimers())
}

// newWorldTimers is newWorld with the server group's gcs timers chosen by
// the test.
func newWorldTimers(t *testing.T, nServers, nClients int, timers gcs.GroupConfig) *world {
	t.Helper()
	// Registered before the service-closing cleanup, so it runs after it
	// (cleanups are LIFO): Close must reap every pump the services started.
	leakcheck.Check(t)
	w := &world{
		t:     t,
		net:   memnet.New(netsim.New(netsim.FastProfile(), 42)),
		calls: make(map[ids.ProcessID]*atomic.Int64),
		taps:  make(map[ids.ProcessID]*tap),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var contact ids.ProcessID
	for i := 0; i < nServers; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		svc := core.NewService(w.endpoint(id))
		w.servers = append(w.servers, svc)

		count := new(atomic.Int64)
		w.calls[id] = count
		handler := func(method string, args []byte) ([]byte, error) {
			count.Add(1)
			switch method {
			case "echo":
				return append([]byte("from="+string(id)+" "), args...), nil
			case "fail":
				return nil, fmt.Errorf("boom on %s", id)
			default:
				return []byte(method), nil
			}
		}
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:       "sg",
			Contact:     contact,
			Handler:     handler,
			GCS:         timers,
			ClientProbe: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		w.srvs = append(w.srvs, srv)
		if i == 0 {
			contact = id
		}
	}
	awaitRosters(t, w.srvs)
	for i := 0; i < nClients; i++ {
		id := ids.ProcessID(fmt.Sprintf("z%02d", i))
		w.clients = append(w.clients, core.NewService(w.endpoint(id)))
	}
	t.Cleanup(func() {
		for _, c := range w.clients {
			_ = c.Close()
		}
		for _, s := range w.servers {
			_ = s.Close()
		}
	})
	return w
}

// awaitRosters waits until every server's roster lists all of srvs. The
// roster converges via hello announcements, and a binding learns the
// membership from whichever server it binds through — the newest joiner
// included, whose roster is the last to fill — so waiting on one server
// is not enough.
func awaitRosters(t *testing.T, srvs []*core.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, srv := range srvs {
		for len(srv.ServerRoster()) != len(srvs) {
			if time.Now().After(deadline) {
				t.Fatalf("roster never converged: %v", srv.ServerRoster())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func (w *world) bindCfg(style core.Style) core.BindConfig {
	return core.BindConfig{
		ServerGroup: "sg",
		Contact:     w.servers[0].ID(),
		Style:       style,
		GCS:         testTimers(),
	}
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestOpenInvokeModes(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	cases := []struct {
		mode core.ReplyMode
		want int
	}{
		{core.First, 1},
		{core.Majority, 2},
		{core.All, 3},
	}
	for _, tc := range cases {
		replies, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("hi"), core.WithMode(tc.mode))
		if err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if len(replies) < tc.want {
			t.Fatalf("%v: got %d replies, want >= %d", tc.mode, len(replies), tc.want)
		}
		for _, r := range replies {
			if r.Err != nil {
				t.Fatalf("%v: server error: %v", tc.mode, r.Err)
			}
		}
	}
}

func TestClosedInvokeModes(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Closed))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	if got := len(b.Servers()); got != 3 {
		t.Fatalf("closed binding has %d servers, want 3", got)
	}
	replies, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.All))
	if err != nil {
		t.Fatalf("wait-for-all: %v", err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies, want 3", len(replies))
	}
}

func TestOneWayExecutesEverywhere(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	if _, err := b.Call(ctxT(t, 5*time.Second), "touch", nil, core.WithMode(core.OneWay)); err != nil {
		t.Fatalf("one-way: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := int64(0)
		for _, c := range w.calls {
			total += c.Load()
		}
		if total == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("one-way executed %d times across servers, want 3", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAsyncForwardOptimisation(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Restricted = true
	cfg.AsyncForward = true
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	if b.RequestManager() != "s00" {
		t.Fatalf("restricted binding chose %s, want the leader s00", b.RequestManager())
	}
	replies, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("p"), core.WithMode(core.First))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if len(replies) != 1 || replies[0].Server != "s00" {
		t.Fatalf("async-forward reply should come from the primary, got %+v", replies)
	}
}

// Under asynchronous forwarding the primary answers before it forwards, and
// collects nothing: its journal holds rm.reply ahead of rm.forward and no
// rm.collect.
func TestAsyncForwardAnswersBeforeItForwards(t *testing.T) {
	w := newTracedWorld(t, 3, 1, nil)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg", Contact: w.servers[0].ID(), Style: core.Open,
		Restricted: true, AsyncForward: true, GCS: testTimers(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tid := obs.NewTraceID()
	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.First), core.WithTrace(tid)); err != nil {
		t.Fatal(err)
	}
	rm := w.serverByID(b.RequestManager())
	wantJournal(t, "the primary", rm.Obs(), tid, "rm.receive", "replica.execute", "rm.reply", "rm.forward")
	events, _ := rm.Obs().Flight.Since(0)
	var order []string
	for _, ev := range events {
		if st, _ := ev.Stage(); ev.Type == flight.EvStage && ev.MsgSeq == uint64(tid) {
			order = append(order, st.String())
		}
	}
	if want := []string{"rm.receive", "replica.execute", "rm.reply", "rm.forward"}; !slices.Equal(order, want) {
		t.Fatalf("the primary journalled %v, want %v", order, want)
	}
}

func TestProxyRebindsAfterRMFailure(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Contact = "s01" // bind to a non-leader so the survivors keep a coordinator
	p, err := w.clients[0].NewProxy(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	defer p.Close()

	if _, err := p.Call(ctxT(t, 10*time.Second), "echo", []byte("1"), core.WithMode(core.First)); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	rm := p.Binding().RequestManager()
	if rm != "s01" {
		t.Fatalf("bound to %s, want s01", rm)
	}

	// Kill the request manager; the proxy must rebind and keep working.
	w.net.Sim().Crash(rm)
	replies, err := p.Call(ctxT(t, 20*time.Second), "echo", []byte("2"), core.WithMode(core.First))
	if err != nil {
		t.Fatalf("invoke after crash: %v", err)
	}
	if replies[0].Server == rm {
		t.Fatalf("reply from the crashed manager %s", rm)
	}
}
