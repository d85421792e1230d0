package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/leakcheck"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// gatedWorld is a server group whose member s01 holds its "block" executions
// until the test opens its gate: while it waits there, s01's server group
// delivers nothing more to it, so every later request, view and delivery
// queues behind the held execution. Suspicion is slow, so the held member
// stays in the view.
type gatedWorld struct {
	t      *testing.T
	net    *memnet.Net
	gate   chan struct{}
	timers gcs.GroupConfig
	svcs   map[ids.ProcessID]*core.Service
	ran    atomic.Int64 // s00's "block" executions
}

func newGatedWorld(t *testing.T) *gatedWorld {
	t.Helper()
	leakcheck.Check(t)
	timers := testTimers()
	timers.SuspectTimeout = 5 * time.Second
	w := &gatedWorld{
		t:      t,
		net:    memnet.New(netsim.New(netsim.FastProfile(), 7)),
		gate:   make(chan struct{}),
		timers: timers,
		svcs:   make(map[ids.ProcessID]*core.Service),
	}
	t.Cleanup(func() {
		w.open()
		for _, svc := range w.svcs {
			_ = svc.Close()
		}
	})
	return w
}

// service starts the service id.
func (w *gatedWorld) service(id ids.ProcessID) *core.Service {
	w.t.Helper()
	ep, err := w.net.Endpoint(id, netsim.SiteLAN)
	if err != nil {
		w.t.Fatal(err)
	}
	svc := core.NewService(ep)
	w.svcs[id] = svc
	return svc
}

// serve starts server id in group "sg", joining through contact.
func (w *gatedWorld) serve(id, contact ids.ProcessID) {
	w.t.Helper()
	handler := func(method string, _ []byte) ([]byte, error) {
		switch {
		case method == "block" && id == "s01":
			<-w.gate
		case method == "block" && id == "s00":
			w.ran.Add(1)
		}
		return []byte(id), nil
	}
	if _, err := w.service(id).Serve(ctxT(w.t, 10*time.Second), core.ServeConfig{
		Group: "sg", Contact: contact, Handler: handler, GCS: w.timers,
	}); err != nil {
		w.t.Fatalf("serve %s: %v", id, err)
	}
}

// open releases s01's held executions; opening twice is harmless.
func (w *gatedWorld) open() {
	select {
	case <-w.gate:
	default:
		close(w.gate)
	}
}

// hold has s01 start a held execution: a one-way call every server runs,
// which s01 holds at the gate.
func (w *gatedWorld) hold() {
	w.t.Helper()
	b, err := w.service("z-holder").Bind(ctxT(w.t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg", Contact: "s00", Style: core.Open, GCS: w.timers,
	})
	if err != nil {
		w.t.Fatalf("bind: %v", err)
	}
	if _, err := b.Call(ctxT(w.t, 10*time.Second), "block", nil, core.WithMode(core.OneWay)); err != nil {
		w.t.Fatalf("one-way: %v", err)
	}
}

func serverNames(replies []core.Reply) string {
	names := make([]string, len(replies))
	for i, r := range replies {
		names[i] = string(r.Server)
	}
	return strings.Join(names, ",")
}

// A closed binding's servers are its own view's, not its contact's roster
// (defect 1(7) of the roadmap). s02 joins while the contact s01 is held in
// an execution, so the contact has delivered neither s02's view nor
// anything s02 said; a roster the contact answered from its deliveries
// lacks s02. The closed client's own view holds all three servers, and its
// wait-for-all call waits for the held s01 instead of counting s00's and
// s02's replies as the quorum.
func TestClosedBindTakesItsServersFromItsView(t *testing.T) {
	w := newGatedWorld(t)
	w.serve("s00", "")
	w.serve("s01", "s00")
	w.hold()
	w.serve("s02", "s00")

	b, err := w.service("z00").Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg", Contact: "s01", Style: core.Closed, GCS: w.timers,
	})
	if err != nil {
		t.Fatalf("closed bind through s01: %v", err)
	}
	defer b.Close()
	call, err := b.InvokeAsync(ctxT(t, 10*time.Second), "op", nil, core.WithMode(core.All))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-call.Done():
		replies, err := call.Replies()
		t.Fatalf("wait-for-all completed while s01 was held: %q, %v", serverNames(replies), err)
	case <-time.After(300 * time.Millisecond):
	}
	w.open()
	replies, err := call.Await(ctxT(t, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := serverNames(replies); got != "s00,s01,s02" {
		t.Fatalf("wait-for-all answered by %q, want s00,s01,s02", got)
	}
	if got := fmt.Sprint(b.Servers()); got != "[s00 s01 s02]" {
		t.Fatalf("closed binding's servers %s, want [s00 s01 s02]", got)
	}
}

// A wait-for-all call in flight while a replica joins is answered by the
// servers of the view it was ordered in. The request manager s00 gathers
// the call's replies while s01 holds it, and s02 joins meanwhile: s02 never
// runs the call, so waiting for it would hold the answer until the request
// manager's deadline.
func TestWaitForAllInFlightIgnoresAJoiner(t *testing.T) {
	w := newGatedWorld(t)
	w.serve("s00", "")
	w.serve("s01", "s00")
	b, err := w.service("z00").Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg", Contact: "s00", Style: core.Open, GCS: w.timers,
	})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()
	call, err := b.InvokeAsync(ctxT(t, 20*time.Second), "block", nil, core.WithMode(core.All))
	if err != nil {
		t.Fatal(err)
	}
	for w.ran.Load() == 0 { // the call is ordered: s00 has run it
		time.Sleep(time.Millisecond)
	}
	w.serve("s02", "s00")
	time.Sleep(50 * time.Millisecond) // the request manager installs s02's view
	start := time.Now()
	w.open()
	replies, err := call.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("answered %v after s01 ran it: the request manager waited for the joiner", took)
	}
	if got := serverNames(replies); got != "s00,s01" {
		t.Fatalf("wait-for-all answered by %q, want s00,s01", got)
	}
}
