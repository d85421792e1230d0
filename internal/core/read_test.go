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
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// leaseTimers is testTimers with the read path on: a 25-tick (50ms)
// lease, renewed by the 5ms time-silence heartbeat.
func leaseTimers() gcs.GroupConfig {
	cfg := testTimers()
	cfg.LeaseTicks = 25
	return cfg
}

// kvWorld hosts a replicated key-value servant on nServers services plus
// nClients client services, with leases enabled.
type kvWorld struct {
	t       *testing.T
	net     *memnet.Net
	servers []*core.Service
	srvs    []*core.Server
	clients []*core.Service
}

func newKVWorld(t *testing.T, nServers, nClients int) *kvWorld {
	t.Helper()
	leakcheck.Check(t)
	w := &kvWorld{
		t:   t,
		net: memnet.New(netsim.New(netsim.FastProfile(), 7)),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var contact ids.ProcessID
	for i := 0; i < nServers; i++ {
		id := ids.ProcessID(fmt.Sprintf("s%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		svc := core.NewService(ep)
		w.servers = append(w.servers, svc)
		store := make(map[string]string)
		handler := func(method string, args []byte) ([]byte, error) {
			switch method {
			case "put": // "k=v"
				k, v, ok := strings.Cut(string(args), "=")
				if !ok {
					return nil, fmt.Errorf("bad put %q", args)
				}
				store[k] = v
				return []byte("ok"), nil
			case "get":
				return []byte(store[string(args)]), nil
			default:
				return nil, fmt.Errorf("unknown method %q", method)
			}
		}
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "kv",
			Contact: contact,
			Handler: handler,
			GCS:     leaseTimers(),
		})
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		w.srvs = append(w.srvs, srv)
		if i == 0 {
			contact = id
		}
	}
	for i := 0; i < nClients; i++ {
		id := ids.ProcessID(fmt.Sprintf("z%02d", i))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint: %v", err)
		}
		w.clients = append(w.clients, core.NewService(ep))
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

func (w *kvWorld) bindCfg(style core.Style) core.BindConfig {
	return core.BindConfig{
		ServerGroup: "kv",
		Contact:     w.servers[0].ID(),
		Style:       style,
		GCS:         leaseTimers(),
	}
}

// TestLeasedReadYourWrites: a session's leased reads always reflect its
// own writes, whichever replica serves them. ReadRenew is cranked down so
// the reads rotate across replicas; the session stamp carried as the read
// floor forces a lagging replica to catch up before answering.
func TestLeasedReadYourWrites(t *testing.T) {
	w := newKVWorld(t, 3, 1)
	cfg := w.bindCfg(core.Open)
	cfg.ReadRenew = time.Millisecond // rotate aggressively
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("v%02d", i)
		if _, err := b.Call(ctxT(t, 10*time.Second), "put", []byte("k="+want), core.WithMode(core.Majority)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, err := b.Read(ctxT(t, 10*time.Second), "get", []byte("k"))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("read %d: got %q, want %q (session floor violated)", i, got, want)
		}
	}
	if b.SessionStamp() == (vclock.Stamp{}) {
		t.Fatal("session stamp never advanced")
	}
}

// TestLinearizableReadAfterWrite: a second client with no session state
// must observe a write as soon as the writer's invocation returned, via a
// linearizable read — across every replica choice and with only a single
// write acknowledgement.
func TestLinearizableReadAfterWrite(t *testing.T) {
	w := newKVWorld(t, 3, 2)
	writer, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind writer: %v", err)
	}
	defer writer.Close()
	reader, err := w.clients[1].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind reader: %v", err)
	}
	defer reader.Close()

	for i := 0; i < 15; i++ {
		want := fmt.Sprintf("w%02d", i)
		// wait-for-first: the weakest write acknowledgement.
		if _, err := writer.Call(ctxT(t, 10*time.Second), "put", []byte("x="+want), core.WithMode(core.First)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, err := reader.Read(ctxT(t, 10*time.Second), "get", []byte("x"),
			core.WithConsistency(core.Linearizable))
		if err != nil {
			t.Fatalf("linearizable read %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("linearizable read %d: got %q, want %q", i, got, want)
		}
	}
}

// TestStaleReadAndMaxStaleness: a stale read answers from any replica
// with no freshness evidence; a leased read with a sub-tick staleness
// budget is refused or served within it, never beyond.
func TestStaleReadServes(t *testing.T) {
	w := newKVWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()
	if _, err := b.Call(ctxT(t, 10*time.Second), "put", []byte("s=1"), core.WithMode(core.All)); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := b.Read(ctxT(t, 10*time.Second), "get", []byte("s"), core.WithConsistency(core.Stale))
	if err != nil {
		t.Fatalf("stale read: %v", err)
	}
	if string(got) != "1" {
		t.Fatalf("stale read: got %q, want %q", got, "1")
	}
}

// A read attempt is bounded by the binding, not by its caller's context: a
// replica that has not answered within the binding group's SuspectTimeout
// is passed over like one that refuses, and escalation stays open. The
// first leased read of an open binding tries s01, s02 and s00 in turn: s01
// has left the group and refuses, s02 has crashed and never answers, and
// s00 serves the read, leased or, its lease lapsed with s02, escalated.
func TestReadPassesOverASilentReplica(t *testing.T) {
	w := newKVWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()
	if _, err := b.Call(ctxT(t, 10*time.Second), "put", []byte("k=v"), core.WithMode(core.All)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := w.srvs[1].Close(); err != nil {
		t.Fatal(err)
	}
	w.net.Sim().Crash("s02")
	start := time.Now()
	got, err := b.Read(ctxT(t, 5*time.Second), "get", []byte("k"))
	took := time.Since(start)
	if err != nil || string(got) != "v" {
		t.Fatalf("read after %v: %q, %v; want \"v\"", took, got, err)
	}
	// One bound at s02, then the escalation, which may wait out s02's
	// suspicion (the same timeout) and the view change.
	if bound := leaseTimers().SuspectTimeout; took > 2*bound+time.Second {
		t.Fatalf("read took %v, want within %v", took, 2*bound+time.Second)
	}
}

// TestReadDisabledWithoutLeases: a server group configured without
// LeaseTicks has no read path, and Read says so with ErrReadDisabled (the
// signal a caller uses to fall back to an ordered call).
func TestReadDisabledWithoutLeases(t *testing.T) {
	w := newWorld(t, 2, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()
	if _, err := b.Read(ctxT(t, 5*time.Second), "echo", nil); !errors.Is(err, core.ErrReadDisabled) {
		t.Fatalf("read on lease-less group: %v, want ErrReadDisabled", err)
	}
}

// TestBrokenServersAtomicDuringRebind is the regression test for the
// Broken/Servers race: while the request manager dies and the view
// changes underneath, concurrent Servers/Broken/KnownServers calls must
// stay data-race free (the run is race-enabled in CI) and mutually
// consistent — once Broken reports true, the binding stays broken.
func TestBrokenServersAtomicDuringRebind(t *testing.T) {
	w := newWorld(t, 3, 1)
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), w.bindCfg(core.Open))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	defer b.Close()

	stop := make(chan struct{})
	var sawBrokenThenNot atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			broken := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = b.Servers()
				_ = b.KnownServers()
				now := b.Broken()
				if broken && !now {
					sawBrokenThenNot.Store(true)
				}
				broken = now
			}
		}()
	}

	// Kill the request manager: the open binding must break.
	w.net.Sim().Crash(b.RequestManager())
	deadline := time.Now().Add(15 * time.Second)
	for !b.Broken() {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatal("binding never noticed the dead request manager")
		}
		// Traffic wakes the event-driven suspector.
		_, _ = b.Call(ctxT(t, 200*time.Millisecond), "echo", nil, core.WithMode(core.First))
	}
	close(stop)
	wg.Wait()
	if sawBrokenThenNot.Load() {
		t.Fatal("Broken flickered false after reporting true")
	}
}

// Three sessions write through three different request managers and read
// their own writes back at rotating replicas. Concurrent forwards of
// different managers are exactly where the sequencer's order and the stamps
// disagree; a replica that judged its executed prefix by the largest stamp
// served ~1 read in 5,000 here from before the session's own write.
func TestSessionReadsOwnWritesUnderConcurrentManagers(t *testing.T) {
	w := newKVWorld(t, 3, 3)
	var stale, reads atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(1500 * time.Millisecond)
	for c := range w.clients {
		b, err := w.clients[c].Bind(ctxT(t, 10*time.Second), core.BindConfig{
			ServerGroup: "kv", Contact: w.servers[c].ID(), Style: core.Open,
			GCS: testTimers(), ReadRenew: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := ctxT(t, 30*time.Second)
			for i := 0; time.Now().Before(stop); i++ {
				key, val := fmt.Sprintf("c%d-k%d", c, i%7), fmt.Sprintf("v%d", i)
				if _, err := b.Call(ctx, "put", []byte(key+"="+val), core.WithMode(core.Majority)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				for r := 0; r < 3; r++ {
					got, err := b.Read(ctx, "get", []byte(key))
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					reads.Add(1)
					if string(got) != val {
						stale.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if stale.Load() != 0 {
		t.Fatalf("%d of %d reads missed the session's own preceding write", stale.Load(), reads.Load())
	}
}
