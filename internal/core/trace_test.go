package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

// tracedWorld mirrors the core fixture but gives every process its own
// observability domain, the production shape, so trace propagation can be
// asserted per node.
type tracedWorld struct {
	net     *memnet.Net
	servers []*core.Service
	srvs    []*core.Server
	clients []*core.Service
}

func newTracedWorld(t *testing.T, nServers, nClients int) *tracedWorld {
	t.Helper()
	w := &tracedWorld{net: memnet.New(netsim.New(netsim.FastProfile(), 17))}
	ctx := ctxT(t, 20*time.Second)

	var contact ids.ProcessID
	for i := 0; i < nServers; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		svc := core.NewServiceObs(ep, obs.New())
		w.servers = append(w.servers, svc)
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "sg",
			Contact: contact,
			Handler: func(method string, args []byte) ([]byte, error) {
				return append([]byte("ok "), args...), nil
			},
			GCS: testTimers(),
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
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		w.clients = append(w.clients, core.NewServiceObs(ep, obs.New()))
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

// serverByID returns the server Service with the given process identifier.
func (w *tracedWorld) serverByID(id ids.ProcessID) *core.Service {
	for _, s := range w.servers {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

// soleTrace waits for the domain's tracer to hold exactly one trace and
// returns its identifier.
func soleTrace(t *testing.T, o *obs.Obs) obs.TraceID {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if trs := o.Tracer.Recent(2); len(trs) == 1 {
			return trs[0].ID
		} else if len(trs) > 1 {
			t.Fatalf("expected one trace, got %d", len(trs))
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stagesAt waits until the node's trace tid contains every wanted stage
// and returns stage -> processes that reported it.
func stagesAt(t *testing.T, o *obs.Obs, tid obs.TraceID, want ...string) map[string]map[string]bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := make(map[string]map[string]bool)
		if tr := o.Tracer.Lookup(tid); tr != nil {
			for _, s := range tr.Spans {
				if got[s.Stage] == nil {
					got[s.Stage] = make(map[string]bool)
				}
				got[s.Stage][s.Proc] = true
			}
		}
		missing := false
		for _, stage := range want {
			if len(got[stage]) == 0 {
				missing = true
				break
			}
		}
		if !missing {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s missing stages: have %v, want %v", tid, keys(got), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func keys(m map[string]map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestTracePropagationOpenBinding(t *testing.T) {
	w := newTracedWorld(t, 3, 1)
	client := w.clients[0]
	b, err := client.Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg",
		Contact:     w.servers[0].ID(),
		Style:       core.Open,
		GCS:         testTimers(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}

	// The client records exactly one trace: its own invoke span.
	tid := soleTrace(t, client.Obs())
	stagesAt(t, client.Obs(), tid, "client.invoke")

	// The request manager holds the complete span tree for the same trace:
	// the synthesized client.send, its own receive/forward/collect/reply
	// stages, and a replica.execute span from every server (its own local
	// one plus the envelope-reported remote ones).
	rmSvc := w.serverByID(b.RequestManager())
	if rmSvc == nil {
		t.Fatalf("request manager %s is not a server", b.RequestManager())
	}
	got := stagesAt(t, rmSvc.Obs(), tid,
		"client.send", "rm.receive", "rm.forward", "rm.collect", "rm.reply", "replica.execute")
	for _, s := range w.servers {
		if !got["replica.execute"][string(s.ID())] {
			t.Errorf("request manager trace lacks replica.execute from %s", s.ID())
		}
	}

	// Every replica recorded its own execution under the same trace.
	for _, s := range w.servers {
		stagesAt(t, s.Obs(), tid, "replica.execute")
	}
}

func TestTracePropagationClosedBinding(t *testing.T) {
	w := newTracedWorld(t, 3, 1)
	client := w.clients[0]
	b, err := client.Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg",
		Contact:     w.servers[0].ID(),
		Style:       core.Closed,
		GCS:         testTimers(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}

	tid := soleTrace(t, client.Obs())
	stagesAt(t, client.Obs(), tid, "client.invoke")
	// Closed style has no request manager: each server executes the
	// client's own multicast directly under the same trace.
	for _, s := range w.servers {
		got := stagesAt(t, s.Obs(), tid, "replica.execute")
		if !got["replica.execute"][string(s.ID())] {
			t.Errorf("server %s did not record its own execution", s.ID())
		}
	}
}

func TestTracePropagationGroupToGroup(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 23))
	ctx := ctxT(t, 30*time.Second)

	var contact ids.ProcessID
	servers := make([]*core.Service, 2)
	for i := range servers {
		id := ids.ProcessID(fmt.Sprintf("y%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = core.NewServiceObs(ep, obs.New())
		defer servers[i].Close()
		_, err = servers[i].Serve(ctx, core.ServeConfig{
			Group:   "gy",
			Contact: contact,
			Handler: func(method string, args []byte) ([]byte, error) { return args, nil },
			GCS:     testTimers(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			contact = id
		}
	}

	const workers = 3
	svcs := make([]*core.Service, workers)
	gx := make([]*gcs.Group, workers)
	for i := 0; i < workers; i++ {
		id := ids.ProcessID(fmt.Sprintf("x%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = core.NewServiceObs(ep, obs.New())
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

	const callNumber = 1
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g2gs[i].Call(ctx, "do", []byte("job"), core.WithCallID(ids.CallID{Number: callNumber}), core.WithMode(core.All)); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every client-group member derived the same trace identifier from the
	// call coordinates, without coordination.
	want := obs.DeriveTraceID("g2g/"+string(g2gs[0].Group().ID()), callNumber)
	for i := 0; i < workers; i++ {
		tid := soleTrace(t, svcs[i].Obs())
		if tid != want {
			t.Fatalf("worker %d trace %s, want %s", i, tid, want)
		}
		stagesAt(t, svcs[i].Obs(), tid, "client.invoke")
	}
	// The request manager filtered the duplicates into one processing of
	// that same trace, with every replica's execution attributed to it.
	rmSvc := servers[0]
	if g2gs[0].RequestManager() != rmSvc.ID() {
		for _, s := range servers {
			if s.ID() == g2gs[0].RequestManager() {
				rmSvc = s
			}
		}
	}
	got := stagesAt(t, rmSvc.Obs(), want, "rm.receive", "rm.forward", "rm.collect", "rm.reply", "replica.execute")
	for _, s := range servers {
		if !got["replica.execute"][string(s.ID())] {
			t.Errorf("request manager trace lacks replica.execute from %s", s.ID())
		}
	}
}
