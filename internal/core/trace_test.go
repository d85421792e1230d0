package core_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/transport/memnet"
)

// tracedWorld mirrors the core fixture but gives every process its own
// observability domain, the production shape: each process's journal holds
// the stages it ran under the wire-carried trace ID, and a call's full tree
// is the union over the processes. With shared set, they all journal into
// that one domain instead, and its /traces shows the union.
type tracedWorld struct {
	net     *memnet.Net
	servers []*core.Service
	srvs    []*core.Server
	clients []*core.Service
}

func newTracedWorld(t *testing.T, nServers, nClients int, shared *obs.Obs) *tracedWorld {
	t.Helper()
	domain := func() *obs.Obs {
		if shared != nil {
			return shared
		}
		return obs.New()
	}
	w := &tracedWorld{net: memnet.New(netsim.New(netsim.FastProfile(), 17))}
	ctx := ctxT(t, 20*time.Second)

	var contact ids.ProcessID
	for i := 0; i < nServers; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		svc := core.NewServiceObs(ep, domain())
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
		w.clients = append(w.clients, core.NewServiceObs(ep, domain()))
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

// journalled lists, sorted, the invocation-level events one domain's journal
// holds under trace tid: "call-start" for the launch marker, the stage's name
// for a stage event.
func journalled(o *obs.Obs, tid obs.TraceID) []string {
	events, _ := o.Flight.Since(0)
	var names []string
	for _, e := range events {
		switch st, _ := e.Stage(); {
		case e.MsgSeq != uint64(tid):
		case e.Type == flight.EvCallStart:
			names = append(names, "call-start")
		case e.Type == flight.EvStage:
			names = append(names, st.String())
		}
	}
	sort.Strings(names)
	return names
}

// soleTrace waits for the domain's journal to hold the stages of exactly
// one trace and returns its identifier.
func soleTrace(t *testing.T, o *obs.Obs) obs.TraceID {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		events, _ := o.Flight.Since(0)
		if trs := flight.Traces(events); len(trs) == 1 {
			return obs.TraceID(trs[0].ID)
		} else if len(trs) > 1 {
			t.Fatalf("expected one trace, got %d", len(trs))
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace journalled")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// wantJournal waits until the domain's journal holds, under tid, exactly the
// wanted invocation-level events — each process journals the stages it ran
// and no other's — and fails on anything more or, at the deadline, less.
func wantJournal(t *testing.T, who string, o *obs.Obs, tid obs.TraceID, want ...string) {
	t.Helper()
	sort.Strings(want)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := journalled(o, tid)
		if slices.Equal(got, want) {
			return
		}
		if len(got) > len(want) || time.Now().After(deadline) {
			t.Fatalf("%s journalled %v under trace %s, want %v", who, got, tid, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// rmStages is what a request manager journals for a call it collects
// replies for, its own execution included.
var rmStages = []string{"rm.receive", "rm.forward", "rm.collect", "rm.reply", "replica.execute"}

func TestTracePropagationOpenBinding(t *testing.T) {
	w := newTracedWorld(t, 3, 1, nil)
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

	// The client journals exactly one trace: the launch and its completion.
	tid := soleTrace(t, client.Obs())
	wantJournal(t, "the client", client.Obs(), tid, "call-start", "client.invoke")

	// The request manager journals its own receive/forward/collect/reply
	// stages and its own execution under the same trace; every other
	// replica journals its execution and nothing else. The union is the
	// call's full tree.
	if w.serverByID(b.RequestManager()) == nil {
		t.Fatalf("request manager %s is not a server", b.RequestManager())
	}
	for _, s := range w.servers {
		if s.ID() == b.RequestManager() {
			wantJournal(t, "the request manager", s.Obs(), tid, rmStages...)
		} else {
			wantJournal(t, string(s.ID()), s.Obs(), tid, "replica.execute")
		}
	}
}

// TestOneEventPerFact: with every process journalling into one domain, a
// successful open wait-for-majority call against three replicas leaves
// exactly one invocation-level event per fact under its trace, and /traces
// renders them as the call's tree.
func TestOneEventPerFact(t *testing.T) {
	o := obs.New()
	w := newTracedWorld(t, 3, 1, o)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg",
		Contact:     w.servers[0].ID(),
		Style:       core.Open,
		GCS:         testTimers(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tid := obs.NewTraceID()
	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.Majority), core.WithTrace(tid)); err != nil {
		t.Fatal(err)
	}
	wantJournal(t, "the world", o, tid, "call-start", "client.invoke", "rm.receive", "rm.forward", "rm.collect", "rm.reply",
		"replica.execute", "replica.execute", "replica.execute")

	srv := httptest.NewServer(obs.Handler(o))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/traces?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("/traces?n=1 has %d lines, want header, blank, trace and 8 stages:\n%s", len(lines), body)
	}
	var cursor, events, dropped, capacity int
	if _, err := fmt.Sscanf(lines[0], "traces cursor=%d events=%d dropped=%d cap=%d", &cursor, &events, &dropped, &capacity); err != nil ||
		cursor == 0 || events == 0 || dropped != 0 || capacity != o.Flight.Cap() {
		t.Fatalf("header %q (%v): want the journal's cursor, events, dropped and cap", lines[0], err)
	}
	if want := fmt.Sprintf("trace %s  stages=8", tid); lines[2] != want {
		t.Fatalf("trace line %q, want %q", lines[2], want)
	}
	// Stage order (by start) and indentation (by depth). The majority is
	// answered once two replicas have, so the third execution may begin
	// on either side of rm.reply.
	stageAt := func(i int) string {
		_, rest, _ := strings.Cut(strings.TrimLeft(lines[3+i], " "), "  ") // past the offset column
		return rest[:strings.Index(rest, "proc=")]
	}
	for i, want := range []string{
		"client.invoke     ",
		"  rm.receive        ",
		"    rm.collect        ",
		"    rm.forward        ",
		"      replica.execute   ",
		"      replica.execute   ",
	} {
		if got := stageAt(i); got != want {
			t.Fatalf("stage line %d is %q, want %q:\n%s", i, got, want, body)
		}
	}
	rest := []string{stageAt(6), stageAt(7)}
	sort.Strings(rest)
	if want := []string{"      replica.execute   ", "    rm.reply          "}; !slices.Equal(rest, want) {
		t.Fatalf("last two stage lines %q, want %q in either order:\n%s", rest, want, body)
	}
}

func TestTracePropagationClosedBinding(t *testing.T) {
	w := newTracedWorld(t, 3, 1, nil)
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
	wantJournal(t, "the client", client.Obs(), tid, "call-start", "client.invoke")
	// Closed style has no request manager: each server executes the
	// client's own multicast directly under the same trace.
	for _, s := range w.servers {
		wantJournal(t, string(s.ID()), s.Obs(), tid, "replica.execute")
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
		wantJournal(t, fmt.Sprintf("worker %d", i), svcs[i].Obs(), tid, "call-start", "client.invoke")
	}
	// The request manager filtered the duplicates into one processing of
	// that same trace; the other replica executed under it once.
	for _, s := range servers {
		if s.ID() == g2gs[0].RequestManager() {
			wantJournal(t, "the request manager", s.Obs(), want, rmStages...)
		} else {
			wantJournal(t, string(s.ID()), s.Obs(), want, "replica.execute")
		}
	}
}
