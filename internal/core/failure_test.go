package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
)

// rmInvoker is a client of one request-manager policy, as the crash sweep
// drives it: call runs one call under a fixed call identifier to completion,
// rebinding and retrying under that identifier whenever the attachment
// breaks under it.
type rmInvoker interface {
	call(ctx context.Context, number uint64, mode core.ReplyMode) error
	rm() ids.ProcessID
}

// proxyInvoker is an open binding behind the smart proxy, which rebinds and
// retries by itself.
type proxyInvoker struct {
	p      *core.Proxy
	client ids.ProcessID
}

func (c proxyInvoker) call(ctx context.Context, number uint64, mode core.ReplyMode) error {
	replies, err := c.p.Call(ctx, "echo", []byte("x"), core.WithMode(mode), core.WithCallID(ids.CallID{Client: c.client, Number: number}))
	for _, r := range replies {
		if err == nil {
			err = r.Err
		}
	}
	return err
}

func (c proxyInvoker) rm() ids.ProcessID { return c.p.Binding().RequestManager() }

// g2gInvoker is a client group of two whose members both issue every call
// through their client monitor group, so the request manager filters one
// copy as a duplicate (§4.3). A broken attachment is replaced through a
// surviving server, and the call issued again under its shared number.
type g2gInvoker struct {
	t    *testing.T
	w    *world
	gx   [2]*gcs.Group
	att  [2]*core.G2G
	dead ids.ProcessID
}

func newG2GInvoker(t *testing.T, w *world, contact ids.ProcessID) *g2gInvoker {
	c := &g2gInvoker{t: t, w: w}
	ctx := ctxT(t, 10*time.Second)
	var err error
	if c.gx[0], err = w.clients[0].Node().Create("gx", testTimers()); err != nil {
		t.Fatal(err)
	}
	if c.gx[1], err = w.clients[1].Node().Join(ctx, "gx", w.clients[0].ID(), testTimers()); err != nil {
		t.Fatal(err)
	}
	for len(c.gx[0].View().Members) != 2 {
		time.Sleep(time.Millisecond)
	}
	c.bind(contact)
	t.Cleanup(func() {
		for _, a := range c.att {
			_ = a.Close()
		}
	})
	return c
}

func (c *g2gInvoker) bind(contact ids.ProcessID) {
	c.t.Helper()
	var wg sync.WaitGroup
	for i := range c.att {
		if c.att[i] != nil {
			_ = c.att[i].Close()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := c.w.bindCfg(core.Open)
			cfg.Contact = contact
			a, err := c.w.clients[i].BindGroupToGroup(ctxT(c.t, 10*time.Second), c.gx[i], cfg)
			if err != nil {
				c.t.Errorf("member %d through %s: %v", i, contact, err)
			}
			c.att[i] = a
		}()
	}
	wg.Wait()
	if c.t.Failed() {
		c.t.FailNow()
	}
}

func (c *g2gInvoker) call(ctx context.Context, number uint64, mode core.ReplyMode) error {
	for attempt := 0; ; attempt++ {
		errs := make([]error, len(c.att))
		var wg sync.WaitGroup
		for i, a := range c.att {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = a.Call(ctx, "echo", []byte("x"), core.WithMode(mode), core.WithCallID(ids.CallID{Number: number}))
			}()
		}
		wg.Wait()
		broken := false
		for _, err := range errs {
			broken = broken || errors.Is(err, core.ErrBindingBroken)
		}
		if !broken || attempt == 2 {
			return errors.Join(errs...)
		}
		c.bind("s00") // the survivor that stays the server group's leader
	}
}

func (c *g2gInvoker) rm() ids.ProcessID { return c.att[0].RequestManager() }

// TestRMCrashAtEveryPipelineStage is the server-side twin of
// TestInvokerConformance: for every policy the request manager serves a call
// under, it crashes the manager at a sweep of instants relative to an
// in-flight call, covering the stages of fig. 4 — receiving the client
// request (i), distributing it (ii), gathering replies (iii) and returning
// them (iv) — and verifies that the client recovers with at most one
// execution per surviving replica, and that the system keeps working. The
// last point is the answer sent but not yet received: it travels outside the
// client/server group's view-synchronous stream, so it is held until the
// manager has crashed and the client's view change has landed, and only then
// delivered, late.
func TestRMCrashAtEveryPipelineStage(t *testing.T) {
	proxy := func(restricted bool) func(t *testing.T, w *world) rmInvoker {
		return func(t *testing.T, w *world) rmInvoker {
			cfg := w.bindCfg(core.Open)
			cfg.Contact = "s01" // non-leader RM so survivors keep a coordinator
			cfg.Restricted, cfg.AsyncForward = restricted, restricted
			p, err := w.clients[0].NewProxy(ctxT(t, 15*time.Second), cfg)
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			t.Cleanup(func() { _ = p.Close() })
			return proxyInvoker{p: p, client: w.clients[0].ID()}
		}
	}
	policies := []struct {
		name   string
		mode   core.ReplyMode // of the call the manager dies serving
		attach func(t *testing.T, w *world) rmInvoker
		answer bool // the client is answered point-to-point
	}{
		{"collect-majority", core.Majority, proxy(false), true},
		{"collect-all", core.All, proxy(false), true},
		// Restricted: the manager is the leader, which executes first.
		{"primary-first", core.First, proxy(true), true},
		{"oneway", core.OneWay, proxy(false), false},
		{"g2g-monitor", core.All, func(t *testing.T, w *world) rmInvoker { return newG2GInvoker(t, w, "s01") }, false},
	}
	points := []struct {
		name  string
		delay time.Duration // crash this long after the call is issued ...
		held  bool          // ... or once the manager has sent its answer
	}{
		{delay: 0},                      // before the request reaches the manager (i)
		{delay: 200 * time.Microsecond}, // around distribution (ii)
		{delay: time.Millisecond},       // around reply gathering (iii)
		{delay: 3 * time.Millisecond},   // around returning the replies (iv)
		{name: "answer-held", held: true},
	}
	for _, pt := range points {
		if pt.name == "" {
			pt.name = pt.delay.String()
		}
		t.Run(pt.name, func(t *testing.T) {
			for _, pol := range policies {
				if pt.held && !pol.answer {
					continue
				}
				t.Run(pol.name, func(t *testing.T) {
					// The server group is sequencer-ordered and led by s00:
					// the restricted binding's primary is its sequencer.
					timers := testTimers()
					timers.Order = gcs.OrderSequencer
					w := newWorldTimers(t, 3, 2, timers)
					inv := pol.attach(t, w)
					// Warm call so the pipeline is steady.
					if err := inv.call(ctxT(t, 10*time.Second), 1, core.All); err != nil {
						t.Fatalf("warm-up: %v", err)
					}
					rm := inv.rm()
					var crashed <-chan struct{}
					if pt.held {
						crashed = crashWithAnswerHeld(t, w, inv.(proxyInvoker), rm)
					} else {
						done := make(chan struct{})
						go func() {
							time.Sleep(pt.delay)
							w.net.Sim().Crash(rm)
							close(done)
						}()
						crashed = done
					}
					err := inv.call(ctxT(t, 30*time.Second), 2, pol.mode)
					<-crashed
					if err != nil {
						t.Fatalf("invoke with crash at %s: %v", pt.name, err)
					}
					// At most once per call at the survivors (the dead
					// manager's count is irrelevant): the warm-up and the
					// crash call now, and one more after the next call — a
					// late duplicate of the crash call would show there.
					atMost := func(n int64) {
						t.Helper()
						for id, c := range w.calls {
							if got := c.Load(); id != rm && got > n {
								t.Fatalf("server %s executed %d times for %d calls", id, got, n)
							}
						}
					}
					atMost(2)
					if err := inv.call(ctxT(t, 20*time.Second), 3, core.Majority); err != nil {
						t.Fatalf("post-crash invoke: %v", err)
					}
					atMost(3)
				})
			}
		})
	}
}

// crashWithAnswerHeld takes the request manager's next answer to the client
// off the wire, crashes the manager, waits until the client's view change
// has broken the binding it was sent on, and only then delivers the answer —
// through a survivor's endpoint, since nothing leaves a crashed process. The
// returned channel closes once the late answer is in flight.
func crashWithAnswerHeld(t *testing.T, w *world, inv proxyInvoker, rm ids.ProcessID) <-chan struct{} {
	old := inv.p.Binding()
	held := make(chan []byte, 1)
	var once sync.Once
	w.taps[rm].set(func(to ids.ProcessID, frame []byte) bool {
		if to != inv.client || !orbFrame(frame, orbOneWay) {
			return false
		}
		once.Do(func() { held <- append([]byte(nil), frame...) })
		return true
	})
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		var answer []byte
		select {
		case answer = <-held:
		case <-time.After(10 * time.Second):
			t.Error("the request manager never answered")
			return
		}
		w.net.Sim().Crash(rm)
		for deadline := time.Now().Add(10 * time.Second); !old.Broken(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the client never saw its request manager go")
				return
			}
		}
		for _, survivor := range w.servers {
			if survivor.ID() != rm {
				_ = w.taps[survivor.ID()].Endpoint.Send(inv.client, answer)
				return
			}
		}
	}()
	return crashed
}

// TestProxyThroughNewestReplicaKnowsAllMembers pins the fixture property
// TestSequentialRMCrashes depends on: a proxy bound through the last
// joiner must learn the whole server group, or after that replica crashes
// every rebind goes back to the corpse. newWorld therefore waits for every
// server's roster, not only the founder's.
func TestProxyThroughNewestReplicaKnowsAllMembers(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Contact = "s02"
	p, err := w.clients[0].NewProxy(ctxT(t, 15*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Binding().KnownServers(); len(got) != 3 {
		t.Fatalf("proxy bound through s02 knows %v, want all 3 servers", got)
	}
}

// TestSequentialRMCrashes kills request managers one after another; the
// proxy keeps rebinding until a single replica remains.
func TestSequentialRMCrashes(t *testing.T) {
	w := newWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.Contact = "s02"
	cfg.BindTimeout = 5 * time.Second // dead contacts must fail reasonably fast
	p, err := w.clients[0].NewProxy(ctxT(t, 15*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for round := 0; round < 2; round++ {
		if _, err := p.Call(ctxT(t, 30*time.Second), "echo", []byte(fmt.Sprint(round)), core.WithMode(core.First)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rm := p.Binding().RequestManager()
		w.net.Sim().Crash(rm)
	}
	// The final rebind may walk through dead contacts (one BindTimeout
	// each) before reaching the survivor; budget generously.
	replies, err := p.Call(ctxT(t, 90*time.Second), "echo", []byte("last"), core.WithMode(core.First))
	if err != nil {
		t.Fatalf("final invoke: %v", err)
	}
	if len(replies) == 0 {
		t.Fatal("no reply from the last survivor")
	}
}

// TestClientCrashReleasesServerSideBinding verifies servers drop an open
// client/server group once its client disappears.
func TestClientCrashReleasesServerSideBinding(t *testing.T) {
	w := newWorld(t, 2, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.First)); err != nil {
		t.Fatal(err)
	}
	rm := b.RequestManager()
	csGroup := b.Group().ID()
	w.net.Sim().Crash(w.clients[0].ID())

	// The RM's node should leave the client/server group once the client
	// is suspected (event-driven: the client's unacknowledged departure
	// leaves unstable state that keeps the suspector alive).
	var rmSvc *core.Service
	for _, s := range w.servers {
		if s.ID() == rm {
			rmSvc = s
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for rmSvc.Node().Group(csGroup) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("request manager never released binding group %s", csGroup)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
