package core_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

func TestServerRosterExcludesClosedClients(t *testing.T) {
	w := newWorld(t, 3, 2)
	b0, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Closed))
	if err != nil {
		t.Fatal(err)
	}
	defer b0.Close()

	// The closed client is now a member of the server group's view, but
	// the roster (and the info call) must still list only servers.
	roster := w.srvs[0].ServerRoster()
	if len(roster) != 3 {
		t.Fatalf("roster = %v, want the 3 servers", roster)
	}
	members, err := w.clients[1].ServerGroupMembers(ctxT(t, 5*time.Second), "s00", "sg")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || ids.ContainsProcess(members, w.clients[0].ID()) {
		t.Fatalf("info returned %v; closed client must not appear", members)
	}
}

func TestRetrySameCallExecutesOnce(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	call := ids.CallID{Client: w.clients[0].ID(), Number: 999}
	for attempt := 0; attempt < 3; attempt++ {
		replies, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("idem"), core.WithCallID(call), core.WithMode(core.All))
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if len(replies) != 3 {
			t.Fatalf("attempt %d: %d replies", attempt, len(replies))
		}
	}
	total := int64(0)
	for _, c := range w.calls {
		total += c.Load()
	}
	if total != 3 { // one execution per replica, despite three attempts
		t.Fatalf("executed %d times across replicas, want 3 (exactly-once per replica)", total)
	}
}

func TestApplicationErrorsPropagate(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	replies, err := b.Call(ctxT(t, 10*time.Second), "fail", nil, core.WithMode(core.All))
	if err != nil {
		t.Fatalf("transport-level error: %v", err)
	}
	for _, r := range replies {
		if r.Err == nil {
			t.Fatalf("server %s returned no error for the failing method", r.Server)
		}
	}
}

func TestMajorityToleratesOneCrash(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Closed))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Crash a non-anchor server. Wait-for-majority completes immediately
	// (2 of 3 replies) even before the failure is detected.
	w.net.Sim().Crash("s02")
	replies, err := b.Call(ctxT(t, 15*time.Second), "echo", []byte("q"), core.WithMode(core.Majority))
	if err != nil {
		t.Fatalf("majority right after crash: %v", err)
	}
	if len(replies) < 2 {
		t.Fatalf("got %d replies, want >= 2", len(replies))
	}
	// The traffic wakes the event-driven suspector; the membership then
	// shrinks and the failure is masked for good.
	deadline := time.Now().Add(15 * time.Second)
	for len(b.Servers()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("membership never shrank: %v", b.Servers())
		}
		_, _ = b.Call(ctxT(t, 300*time.Millisecond), "echo", []byte("tick"), core.WithMode(core.Majority))
	}
	if _, err := b.Call(ctxT(t, 15*time.Second), "echo", []byte("q2"), core.WithMode(core.All)); err != nil {
		t.Fatalf("wait-for-all against survivors: %v", err)
	}
}

func TestBindingCloseReleasesServers(t *testing.T) {
	w := newWorld(t, 2, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A fresh binding must work after the old one is gone.
	b2, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	defer b2.Close()
	if _, err := b2.Call(ctxT(t, 10*time.Second), "echo", []byte("z"), core.WithMode(core.First)); err != nil {
		t.Fatal(err)
	}
}

func TestInvokeOnBrokenBindingFails(t *testing.T) {
	w := newWorld(t, 1, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	w.net.Sim().Crash("s00")
	deadline := time.Now().Add(10 * time.Second)
	for !b.Broken() {
		if time.Now().After(deadline) {
			t.Fatal("binding never noticed the dead request manager")
		}
		// Traffic wakes the event-driven suspector.
		_, _ = b.Call(ctxT(t, 200*time.Millisecond), "echo", nil, core.WithMode(core.First))
	}
	if _, err := b.Call(ctxT(t, time.Second), "echo", nil, core.WithMode(core.First)); !errors.Is(err, core.ErrBindingBroken) {
		t.Fatalf("want ErrBindingBroken, got %v", err)
	}
}

func TestGroupToGroupFiltersDuplicates(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 9))
	ctx := ctxT(t, 30*time.Second)

	// Server group gy with 2 replicas counting executions.
	var execs sync.Map // job name -> *atomic.Int64
	var contact ids.ProcessID
	var rm *core.Service
	for i := 0; i < 2; i++ {
		id := ids.ProcessID(fmt.Sprintf("y%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		svc := core.NewService(ep)
		defer svc.Close()
		_, err = svc.Serve(ctx, core.ServeConfig{
			Group:   "gy",
			Contact: contact,
			Handler: func(method string, args []byte) ([]byte, error) {
				v, _ := execs.LoadOrStore(string(args), new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
				return []byte("done:" + string(args)), nil
			},
			GCS: testTimers(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			contact, rm = id, svc
		}
	}

	// Client group gx with 3 members.
	const workers = 3
	svcs := make([]*core.Service, workers)
	gx := make([]*gcs.Group, workers)
	for i := 0; i < workers; i++ {
		id := ids.ProcessID(fmt.Sprintf("x%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = core.NewService(ep)
		defer svcs[i].Close()
		var g *gcs.Group
		if i == 0 {
			g, err = svcs[i].Node().Create("gx", testTimers())
		} else {
			g, err = svcs[i].Node().Join(ctx, "gx", svcs[0].ID(), testTimers())
		}
		if err != nil {
			t.Fatal(err)
		}
		gx[i] = g
	}
	for _, g := range gx {
		for len(g.View().Members) != workers {
			time.Sleep(time.Millisecond)
		}
	}

	g2gs := make([]*core.G2G, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g2g, err := svcs[i].BindGroupToGroup(ctx, gx[i], core.BindConfig{
				ServerGroup: "gy",
				Contact:     contact,
				GCS:         testTimers(),
			})
			if err != nil {
				t.Errorf("bind %d: %v", i, err)
				return
			}
			g2gs[i] = g2g
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer func() {
		for _, g := range g2gs {
			_ = g.Close()
		}
	}()

	// The unified surface insists on a shared deterministic call number:
	// without WithCallID the request manager could not filter duplicates.
	if _, err := g2gs[0].Call(ctx, "do", []byte("nope")); !errors.Is(err, core.ErrNeedCallNumber) {
		t.Fatalf("g2g call without WithCallID: %v, want ErrNeedCallNumber", err)
	}

	// Every worker issues the same calls; replies identical; each call
	// executed once per replica despite three requesters.
	for n := 1; n <= 3; n++ {
		results := make([][]core.Reply, workers)
		for i := 0; i < workers; i++ {
			i, n := i, n
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies, err := g2gs[i].Call(ctx, "do", []byte(fmt.Sprintf("job%d", n)), core.WithCallID(ids.CallID{Number: uint64(n)}), core.WithMode(core.All))
				if err != nil {
					t.Errorf("worker %d call %d: %v", i, n, err)
					return
				}
				results[i] = replies
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i := 1; i < workers; i++ {
			if len(results[i]) != len(results[0]) {
				t.Fatalf("reply sets differ in size")
			}
		}
	}
	execs.Range(func(k, v any) bool {
		if got := v.(*atomic.Int64).Load(); got != 2 { // once per replica
			t.Errorf("%s executed %d times, want 2", k, got)
		}
		return true
	})
	// Every member of gx must see each answer, so the request manager
	// multicasts it in the monitor group: once per call, whatever the number
	// of copies it filtered.
	if got := rm.Node().Group(g2gs[0].Group().ID()).Stats().AppSent; got != 3 {
		t.Errorf("the request manager multicast %d times in the monitor group for 3 calls, want 3 reply sets", got)
	}
}

func TestOpenAndClosedCoexist(t *testing.T) {
	w := newWorld(t, 3, 2)
	bo, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	defer bo.Close()
	bc, err := w.clients[1].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Closed))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	for i := 0; i < 3; i++ {
		if _, err := bo.Call(ctxT(t, 10*time.Second), "echo", []byte("open"), core.WithMode(core.All)); err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := bc.Call(ctxT(t, 10*time.Second), "echo", []byte("closed"), core.WithMode(core.All)); err != nil {
			t.Fatalf("closed: %v", err)
		}
	}
}

func TestServeRequiresHandler(t *testing.T) {
	w := newWorld(t, 1, 0)
	_, err := w.servers[0].Serve(ctxT(t, time.Second), core.ServeConfig{Group: "other"})
	if err == nil {
		t.Fatal("nil handler accepted")
	}
}
