package gcs_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/leakcheck"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/transport/memnet"
)

// harness spins up n GCS nodes on an in-memory network.
type harness struct {
	t     *testing.T
	net   *memnet.Net
	nodes []*gcs.Node
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	// Registered before the node-closing cleanup, so it runs after it
	// (cleanups are LIFO): Close must reap every pump the nodes started.
	leakcheck.Check(t)
	// On failure, log the protocol journal tail recorded during the test.
	flight.DumpOnFailure(t, obs.Default().Flight, 0)
	h := &harness{t: t, net: memnet.New(netsim.New(netsim.FastProfile(), 1))}
	for i := 0; i < n; i++ {
		id := ids.ProcessID(fmt.Sprintf("n%02d", i))
		ep, err := h.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint %s: %v", id, err)
		}
		h.nodes = append(h.nodes, gcs.NewNode(ep))
	}
	t.Cleanup(func() {
		for _, node := range h.nodes {
			_ = node.Close()
		}
	})
	return h
}

// newQuickHarness is newHarness with explicit lifetime, for property
// tests that build many worlds inside one test.
func newQuickHarness(t *testing.T, n int, seed int64) *harness {
	t.Helper()
	h := &harness{t: t, net: memnet.New(netsim.New(netsim.FastProfile(), seed))}
	for i := 0; i < n; i++ {
		id := ids.ProcessID(fmt.Sprintf("n%02d", i))
		ep, err := h.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatalf("endpoint %s: %v", id, err)
		}
		h.nodes = append(h.nodes, gcs.NewNode(ep))
	}
	return h
}

// close tears down a quick-harness world.
func (h *harness) close() {
	for _, node := range h.nodes {
		_ = node.Close()
	}
}

func testConfig(order gcs.OrderMode) gcs.GroupConfig {
	return gcs.GroupConfig{
		Order:       order,
		Liveness:    gcs.Lively,
		TimeSilence: 5 * time.Millisecond,
		// Large enough that a GC pause or scheduler hiccup on a loaded
		// single-core CI box does not read as member silence and evict a
		// healthy member mid-test; still ~60× smaller than the slowest
		// eviction deadline any test waits with.
		SuspectTimeout: 250 * time.Millisecond,
		Resend:         20 * time.Millisecond,
		FlushTimeout:   150 * time.Millisecond,
		Tick:           2 * time.Millisecond,
	}
}

// buildGroup has node 0 create the group and the rest join through it.
func (h *harness) buildGroup(gid ids.GroupID, cfg gcs.GroupConfig) []*gcs.Group {
	h.t.Helper()
	groups := make([]*gcs.Group, len(h.nodes))
	g0, err := h.nodes[0].Create(gid, cfg)
	if err != nil {
		h.t.Fatalf("create: %v", err)
	}
	groups[0] = g0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 1; i < len(h.nodes); i++ {
		g, err := h.nodes[i].Join(ctx, gid, h.nodes[0].ID(), cfg)
		if err != nil {
			h.t.Fatalf("join %d: %v", i, err)
		}
		groups[i] = g
	}
	// Wait until every member sees the full membership.
	deadline := time.Now().Add(10 * time.Second)
	for _, g := range groups {
		for len(g.View().Members) != len(h.nodes) {
			if time.Now().After(deadline) {
				h.t.Fatalf("member %s never saw full view: %v", g.Me(), g.View())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return groups
}

// collect drains n deliveries from a group with a deadline.
func collect(t *testing.T, g *gcs.Group, n int, timeout time.Duration) []*gcs.Delivery {
	t.Helper()
	var out []*gcs.Delivery
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case ev, ok := <-g.Events():
			if !ok {
				t.Fatalf("%s: events closed after %d/%d deliveries", g.Me(), len(out), n)
			}
			if ev.Type == gcs.EventDeliver {
				out = append(out, ev.Deliver)
			}
		case <-deadline:
			t.Fatalf("%s: timeout after %d/%d deliveries", g.Me(), len(out), n)
		}
	}
	return out
}

func TestTotalOrderAgreement(t *testing.T) {
	for _, order := range []gcs.OrderMode{gcs.OrderSymmetric, gcs.OrderSequencer} {
		order := order
		t.Run(order.String(), func(t *testing.T) {
			h := newHarness(t, 3)
			groups := h.buildGroup("g", testConfig(order))

			const perMember = 10
			for i := 0; i < perMember; i++ {
				for j, g := range groups {
					msg := fmt.Sprintf("m-%d-%d", j, i)
					if err := g.Multicast(context.Background(), []byte(msg)); err != nil {
						t.Fatalf("multicast: %v", err)
					}
				}
			}

			total := perMember * len(groups)
			var sequences [][]string
			for _, g := range groups {
				dels := collect(t, g, total, 15*time.Second)
				seq := make([]string, len(dels))
				for i, d := range dels {
					seq[i] = string(d.Payload)
				}
				sequences = append(sequences, seq)
			}
			for i := 1; i < len(sequences); i++ {
				for j := range sequences[0] {
					if sequences[i][j] != sequences[0][j] {
						t.Fatalf("order disagreement at %d: member0=%v member%d=%v",
							j, sequences[0][j], i, sequences[i][j])
					}
				}
			}
		})
	}
}

func TestCrashInstallsNewView(t *testing.T) {
	h := newHarness(t, 3)
	groups := h.buildGroup("g", testConfig(gcs.OrderSymmetric))

	// Crash node 2 abruptly (no leave).
	h.net.Sim().Crash(h.nodes[2].ID())

	deadline := time.Now().Add(10 * time.Second)
	for _, g := range groups[:2] {
		for {
			v := g.View()
			if len(v.Members) == 2 && !v.Contains(h.nodes[2].ID()) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s stuck in view %v", g.Me(), g.View())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The survivors can still multicast and deliver.
	if err := groups[0].Multicast(context.Background(), []byte("after")); err != nil {
		t.Fatalf("multicast after crash: %v", err)
	}
	for _, g := range groups[:2] {
		dels := collect(t, g, 1, 5*time.Second)
		if string(dels[0].Payload) != "after" {
			t.Fatalf("unexpected delivery %q", dels[0].Payload)
		}
	}
}
