package gcs_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/leakcheck"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

// Tests for the shared delivery engine: the timer wheel's park/unpark
// lifecycle (an idle event-driven group must hold no wheel entry and no
// goroutine) and the dispatch pool's order preservation under many
// concurrent groups.

// waitGauge polls an obs gauge until it reaches want.
func waitGauge(t *testing.T, g *obs.Gauge, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: gauge stuck at %d, want %d", what, g.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func eventDrivenConfig() gcs.GroupConfig {
	return gcs.GroupConfig{
		Order:          gcs.OrderSymmetric,
		Liveness:       gcs.EventDriven,
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 80 * time.Millisecond,
		Resend:         20 * time.Millisecond,
		FlushTimeout:   150 * time.Millisecond,
		Tick:           2 * time.Millisecond,
	}
}

// TestWheelParkUnparkLeave walks one group through the full wheel
// lifecycle: parked after the join settles (zero wheel depth), unparked
// by inbound traffic, parked again at quiescence, and deregistered with
// balanced gauges after Leave. leakcheck pins the goroutine side: a
// parked group must not hold any timer or pump goroutine alive.
func TestWheelParkUnparkLeave(t *testing.T) {
	leakcheck.Check(t)
	net := memnet.New(netsim.New(netsim.FastProfile(), 11))
	oa := obs.New()
	epA, err := net.Endpoint("wa", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint("wb", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	na := gcs.NewNodeObs(epA, oa)
	nb := gcs.NewNodeObs(epB, obs.New())
	t.Cleanup(func() {
		_ = nb.Close()
		_ = na.Close()
	})

	cfg := eventDrivenConfig()
	ga, err := na.Create("park", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gb, err := nb.Join(ctx, "park", na.ID(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	idle := oa.Reg.Gauge("gcs_groups_idle")
	active := oa.Reg.Gauge("gcs_groups_active")

	// Once the join traffic stabilises, the event-driven group parks:
	// gauge flips and the wheel holds no entry for it.
	waitGauge(t, idle, 1, "park after join")
	if d, _, _ := na.WheelStats(); d != 0 {
		t.Fatalf("parked group still holds a wheel entry (depth %d)", d)
	}

	// Inbound traffic unparks the group; the delivery proves the tick
	// machinery (nulls, stability) re-armed on the wheel.
	if err := gb.Multicast(ctx, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for delivered := false; !delivered; {
		select {
		case ev, ok := <-ga.Events():
			if !ok {
				t.Fatal("events closed before delivery")
			}
			delivered = ev.Type == gcs.EventDeliver
		case <-deadline:
			t.Fatal("delivery never arrived after unpark")
		}
	}
	// ...and quiescence parks it again.
	waitGauge(t, idle, 1, "re-park after burst")

	// Leave deregisters: both gauges drain to zero, wheel stays empty.
	if err := gb.Leave(); err != nil {
		t.Fatal(err)
	}
	if err := ga.Leave(); err != nil {
		t.Fatal(err)
	}
	waitGauge(t, idle, 0, "idle after leave")
	waitGauge(t, active, 0, "active after leave")
	if d, _, _ := na.WheelStats(); d != 0 {
		t.Fatalf("left group still holds a wheel entry (depth %d)", d)
	}
}

// TestWheelParkAfterCrash pins the crash path: a member with unstable
// traffic outstanding cannot park (the suspicion machinery must keep
// ticking), masks the crashed peer through the flush, and only then
// parks — with the wheel entry gone and the gauges balanced.
func TestWheelParkAfterCrash(t *testing.T) {
	leakcheck.Check(t)
	sim := netsim.New(netsim.FastProfile(), 13)
	net := memnet.New(sim)
	oa := obs.New()
	epA, err := net.Endpoint("ca", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint("cb", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	na := gcs.NewNodeObs(epA, oa)
	nb := gcs.NewNodeObs(epB, obs.New())
	t.Cleanup(func() {
		_ = nb.Close()
		_ = na.Close()
	})

	cfg := eventDrivenConfig()
	ga, err := na.Create("crash", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := nb.Join(ctx, "crash", na.ID(), cfg); err != nil {
		t.Fatal(err)
	}

	// Put a message in flight and kill the peer before it can ack: the
	// survivor's store holds an unstable message, so it must stay active
	// until suspicion masks the crash.
	if err := ga.Multicast(ctx, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	sim.Crash(nb.ID())

	// The survivor suspects, flushes to a singleton view, self-stabilises
	// and finally parks.
	deadline := time.Now().Add(10 * time.Second)
	for len(ga.View().Members) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("crash never masked: view still %v", ga.View().Members)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitGauge(t, oa.Reg.Gauge("gcs_groups_idle"), 1, "park after crash mask")
	if d, _, _ := na.WheelStats(); d != 0 {
		t.Fatalf("parked survivor still holds a wheel entry (depth %d)", d)
	}
}

// TestDispatchPoolManyGroups runs 64 groups through a 4-worker dispatch
// pool with concurrent senders: every group must receive its exact
// message count through its SetHandler callback (single-writer per group)
// while the pool multiplexes fan-out across groups. Run under -race this
// is the engine's main concurrency test.
func TestDispatchPoolManyGroups(t *testing.T) {
	leakcheck.Check(t)
	const nGroups, perGroup = 64, 10
	net := memnet.New(netsim.New(netsim.FastProfile(), 17))
	epA, err := net.Endpoint("da", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint("db", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	na := gcs.NewNodeWorkers(epA, obs.New(), 4)
	nb := gcs.NewNodeWorkers(epB, obs.New(), 4)
	t.Cleanup(func() {
		_ = nb.Close()
		_ = na.Close()
	})

	cfg := eventDrivenConfig()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var done sync.WaitGroup
	done.Add(nGroups)
	counts := make([]atomic.Int32, nGroups)
	senders := make([]*gcs.Group, nGroups)
	for i := 0; i < nGroups; i++ {
		gid := ids.GroupID(fmt.Sprintf("pool/%02d", i))
		ga, err := na.Create(gid, cfg)
		if err != nil {
			t.Fatalf("create %s: %v", gid, err)
		}
		gb, err := nb.Join(ctx, gid, na.ID(), cfg)
		if err != nil {
			t.Fatalf("join %s: %v", gid, err)
		}
		senders[i] = gb
		i := i
		ga.SetHandler(func(ev gcs.Event) {
			if ev.Type == gcs.EventDeliver {
				if counts[i].Add(1) == perGroup {
					done.Done()
				}
			}
		})
	}

	for i, g := range senders {
		go func(i int, g *gcs.Group) {
			for m := 0; m < perGroup; m++ {
				if err := g.Multicast(ctx, []byte(fmt.Sprintf("%d/%d", i, m))); err != nil {
					t.Errorf("multicast group %d: %v", i, err)
					return
				}
			}
		}(i, g)
	}

	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		var lagging []string
		for i := range counts {
			if c := counts[i].Load(); c < perGroup {
				lagging = append(lagging, fmt.Sprintf("%d:%d/%d", i, c, perGroup))
			}
		}
		t.Fatalf("dispatch pool stalled; lagging groups: %v", lagging)
	}
	for i := range counts {
		if c := counts[i].Load(); c != perGroup {
			t.Errorf("group %d delivered %d, want exactly %d", i, c, perGroup)
		}
	}
}
