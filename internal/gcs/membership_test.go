package gcs_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// waitView polls until the group's view matches the predicate.
func waitView(t *testing.T, g *gcs.Group, timeout time.Duration, pred func(gcs.View) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if pred(g.View()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: view %v never satisfied predicate", g.Me(), g.View())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGracefulLeaveShrinksView(t *testing.T) {
	h := newHarness(t, 3)
	groups := h.buildGroup("g", testConfig(gcs.OrderSymmetric))

	if err := groups[2].Leave(); err != nil {
		t.Fatalf("leave: %v", err)
	}
	for _, g := range groups[:2] {
		waitView(t, g, 10*time.Second, func(v gcs.View) bool {
			return len(v.Members) == 2 && !v.Contains(h.nodes[2].ID())
		})
	}
	// Events channel of the leaver closes.
	select {
	case _, ok := <-groups[2].Events():
		for ok {
			_, ok = <-groups[2].Events()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leaver's events never closed")
	}
}

func TestJoinConfigMismatch(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.nodes[0].Create("g", testConfig(gcs.OrderSymmetric)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := h.nodes[1].Join(ctx, "g", h.nodes[0].ID(), testConfig(gcs.OrderSequencer))
	if !errors.Is(err, gcs.ErrConfigMismatch) {
		t.Fatalf("want ErrConfigMismatch, got %v", err)
	}
}

func TestJoinTimesOutWithoutContact(t *testing.T) {
	h := newHarness(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := h.nodes[0].Join(ctx, "nowhere", "ghost", testConfig(gcs.OrderSymmetric))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline, got %v", err)
	}
}

func TestDoubleMembershipRejected(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.nodes[0].Create("g", testConfig(gcs.OrderSymmetric)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.nodes[0].Create("g", testConfig(gcs.OrderSymmetric)); err == nil {
		t.Fatal("second create of same group must fail")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := h.nodes[0].Join(ctx, "g", "x", testConfig(gcs.OrderSymmetric)); err == nil {
		t.Fatal("join while member must fail")
	}
}

func TestCoordinatorCrashElectsSuccessor(t *testing.T) {
	h := newHarness(t, 3)
	groups := h.buildGroup("g", testConfig(gcs.OrderSymmetric))

	// The coordinator is the lowest id: node 0. Crash it.
	coord := groups[0].Coordinator()
	if coord != h.nodes[0].ID() {
		t.Fatalf("expected n00 as coordinator, got %s", coord)
	}
	h.net.Sim().Crash(coord)

	for _, g := range groups[1:] {
		waitView(t, g, 15*time.Second, func(v gcs.View) bool {
			return len(v.Members) == 2 && !v.Contains(coord)
		})
	}
	// The new coordinator can run further membership changes: node 1
	// leaves, node 2's view shrinks to itself.
	if err := groups[1].Leave(); err != nil {
		t.Fatal(err)
	}
	waitView(t, groups[2], 15*time.Second, func(v gcs.View) bool {
		return len(v.Members) == 1
	})
	// And the survivor still multicasts (to itself).
	if err := groups[2].Multicast(context.Background(), []byte("alone")); err != nil {
		t.Fatal(err)
	}
	dels := collect(t, groups[2], 1, 5*time.Second)
	if string(dels[0].Payload) != "alone" {
		t.Fatalf("got %q", dels[0].Payload)
	}
}

func TestSequencerCrashRecovers(t *testing.T) {
	h := newHarness(t, 3)
	groups := h.buildGroup("g", testConfig(gcs.OrderSequencer))

	seqr := groups[0].Sequencer()
	for _, g := range groups {
		if err := g.Multicast(context.Background(), []byte("pre-"+string(g.Me()))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the pre-crash traffic everywhere, then kill the sequencer.
	for _, g := range groups {
		collect(t, g, 3, 10*time.Second)
	}
	h.net.Sim().Crash(seqr)
	for _, g := range groups[1:] {
		waitView(t, g, 15*time.Second, func(v gcs.View) bool { return len(v.Members) == 2 })
	}

	// The new sequencer orders post-crash traffic.
	for _, g := range groups[1:] {
		if err := g.Multicast(context.Background(), []byte("post-"+string(g.Me()))); err != nil {
			t.Fatal(err)
		}
	}
	var first []string
	for i, g := range groups[1:] {
		dels := collect(t, g, 2, 10*time.Second)
		seq := []string{string(dels[0].Payload), string(dels[1].Payload)}
		if i == 0 {
			first = seq
		} else if seq[0] != first[0] || seq[1] != first[1] {
			t.Fatalf("post-crash disagreement: %v vs %v", seq, first)
		}
	}
}

// TestVirtualSynchronyCut checks the all-or-none guarantee: messages in
// flight when a member crashes are either delivered by every survivor
// before the new view, or by none.
func TestVirtualSynchronyCut(t *testing.T) {
	h := newHarness(t, 4)
	groups := h.buildGroup("g", testConfig(gcs.OrderSymmetric))

	// Fire a burst and crash a member mid-stream.
	for i := 0; i < 10; i++ {
		if err := groups[1].Multicast(context.Background(), []byte(fmt.Sprintf("burst%d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			h.net.Sim().Crash(h.nodes[3].ID())
		}
	}

	type obs struct {
		before  map[string]bool
		viewSaw bool
	}
	results := make([]obs, 3)
	for i, g := range groups[:3] {
		results[i] = obs{before: make(map[string]bool)}
		deadline := time.After(20 * time.Second)
		for !results[i].viewSaw {
			select {
			case ev, ok := <-g.Events():
				if !ok {
					t.Fatalf("%s events closed", g.Me())
				}
				switch ev.Type {
				case gcs.EventDeliver:
					results[i].before[string(ev.Deliver.Payload)] = true
				case gcs.EventView:
					if len(ev.View.Members) == 3 {
						results[i].viewSaw = true
					}
				}
			case <-deadline:
				t.Fatalf("%s never installed the 3-member view", g.Me())
			}
		}
	}
	// Virtual synchrony: every survivor delivered the same set before the
	// new view.
	for i := 1; i < 3; i++ {
		if len(results[i].before) != len(results[0].before) {
			t.Fatalf("pre-view delivery sets differ in size: %v vs %v",
				results[i].before, results[0].before)
		}
		for k := range results[0].before {
			if !results[i].before[k] {
				t.Fatalf("member %d missed %q before the view change", i, k)
			}
		}
	}
}

func TestPartitionSplitsAndBothSidesProceed(t *testing.T) {
	h := newHarness(t, 4)
	groups := h.buildGroup("g", testConfig(gcs.OrderSymmetric))

	// Partition {0,1} from {2,3}.
	h.net.Sim().SetPartition(h.nodes[2].ID(), 1)
	h.net.Sim().SetPartition(h.nodes[3].ID(), 1)

	for _, g := range groups[:2] {
		waitView(t, g, 20*time.Second, func(v gcs.View) bool { return len(v.Members) == 2 })
	}
	for _, g := range groups[2:] {
		waitView(t, g, 20*time.Second, func(v gcs.View) bool { return len(v.Members) == 2 })
	}
	// Each side keeps working independently.
	if err := groups[0].Multicast(context.Background(), []byte("side-a")); err != nil {
		t.Fatal(err)
	}
	if err := groups[2].Multicast(context.Background(), []byte("side-b")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, groups[1], 1, 10*time.Second); string(got[0].Payload) != "side-a" {
		t.Fatalf("side A got %q", got[0].Payload)
	}
	if got := collect(t, groups[3], 1, 10*time.Second); string(got[0].Payload) != "side-b" {
		t.Fatalf("side B got %q", got[0].Payload)
	}
}

func TestJoinerSkipsOldViewTraffic(t *testing.T) {
	h := newHarness(t, 3)
	g0, err := h.nodes[0].Create("g", testConfig(gcs.OrderSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	if err := g0.Multicast(context.Background(), []byte("before-anyone")); err != nil {
		t.Fatal(err)
	}
	collect(t, g0, 1, 5*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g1, err := h.nodes[1].Join(ctx, "g", h.nodes[0].ID(), testConfig(gcs.OrderSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	// The joiner must not receive pre-join application traffic, only the
	// view and post-join messages.
	if err := g0.Multicast(context.Background(), []byte("after-join")); err != nil {
		t.Fatal(err)
	}
	dels := collect(t, g1, 1, 10*time.Second)
	if string(dels[0].Payload) != "after-join" {
		t.Fatalf("joiner saw %q; old-view traffic must not leak", dels[0].Payload)
	}
}

// TestManyGroupsOneNode exercises heavy group multiplexing on a single
// endpoint (the paper: "objects can simultaneously belong to many
// groups").
func TestManyGroupsOneNode(t *testing.T) {
	h := newHarness(t, 2)
	const n = 12
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		gid := ids.GroupID(fmt.Sprintf("g%02d", i))
		ga, err := h.nodes[0].Create(gid, testConfig(gcs.OrderSymmetric))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := h.nodes[1].Join(ctx, gid, h.nodes[0].ID(), testConfig(gcs.OrderSymmetric))
		if err != nil {
			t.Fatal(err)
		}
		if err := ga.Multicast(ctx, []byte(fmt.Sprintf("hello-%d", i))); err != nil {
			t.Fatal(err)
		}
		dels := collect(t, gb, 1, 10*time.Second)
		if string(dels[0].Payload) != fmt.Sprintf("hello-%d", i) {
			t.Fatalf("group %s cross-talk: %q", gid, dels[0].Payload)
		}
	}
}

// TestCrashDuringIdleEventDriven verifies that an event-driven group that
// went idle still detects a crash once traffic resumes.
func TestCrashDuringIdleEventDriven(t *testing.T) {
	cfg := testConfig(gcs.OrderSequencer)
	cfg.Liveness = gcs.EventDriven
	h := newHarness(t, 3)
	groups := h.buildGroup("g", cfg)

	if err := groups[0].Multicast(context.Background(), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		collect(t, g, 1, 10*time.Second)
	}
	// Let the group go idle, then crash a member while nobody watches.
	time.Sleep(100 * time.Millisecond)
	h.net.Sim().Crash(h.nodes[2].ID())
	time.Sleep(100 * time.Millisecond)

	// New traffic wakes the machinery; the crash is detected and masked.
	if err := groups[0].Multicast(context.Background(), []byte("wake")); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups[:2] {
		waitView(t, g, 20*time.Second, func(v gcs.View) bool { return len(v.Members) == 2 })
	}
	for _, g := range groups[:2] {
		dels := collect(t, g, 1, 10*time.Second)
		if string(dels[0].Payload) != "wake" {
			t.Fatalf("got %q", dels[0].Payload)
		}
	}
}

// fastProfileNet is a tiny constructor used by tests needing direct
// simulator access with a distinct seed.
func fastProfileNet(seed int64) *memnet.Net {
	return memnet.New(netsim.New(netsim.FastProfile(), seed))
}

// TestManualSuspect exercises the pluggable suspicion entry point: an
// application-level failure detector reports a member and the membership
// machinery excludes it like a time-silence suspicion.
func TestManualSuspect(t *testing.T) {
	h := newHarness(t, 3)
	groups := h.buildGroup("g", testConfig(gcs.OrderSymmetric))

	// Crash node 2 at the network level but report it manually from a
	// non-coordinator before the built-in suspector would fire.
	h.net.Sim().Crash(h.nodes[2].ID())
	groups[1].Suspect(h.nodes[2].ID())

	for _, g := range groups[:2] {
		waitView(t, g, 10*time.Second, func(v gcs.View) bool {
			return len(v.Members) == 2 && !v.Contains(h.nodes[2].ID())
		})
	}
	// Suspecting ourselves or strangers is a no-op.
	groups[0].Suspect(h.nodes[0].ID())
	groups[0].Suspect("stranger")
	time.Sleep(50 * time.Millisecond)
	if got := len(groups[0].View().Members); got != 2 {
		t.Fatalf("no-op suspicions changed the view: %d members", got)
	}
}

// TestJoinReturnsWhenItsViewInstalls pins join latency: a join is one round
// trip through the coordinator (request, proposal, ack, commit) and Join
// returns at the installation of its view, not at the next beat of its
// resend timer. On memnet that is well inside ten ticks.
func TestJoinReturnsWhenItsViewInstalls(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order gcs.OrderMode
		live  gcs.Liveness
	}{
		{"lively-symmetric", gcs.OrderSymmetric, gcs.Lively},
		{"eventdriven-sequencer", gcs.OrderSequencer, gcs.EventDriven},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 4)
			cfg := testConfig(tc.order)
			cfg.Liveness = tc.live
			if _, err := h.nodes[0].Create("g", cfg); err != nil {
				t.Fatal(err)
			}
			for _, n := range h.nodes[1:] {
				start := time.Now()
				g, err := n.Join(ctxT(t, 10*time.Second), "g", h.nodes[0].ID(), cfg)
				took := time.Since(start)
				if err != nil {
					t.Fatalf("%s: join: %v", n.ID(), err)
				}
				if v := g.View(); !v.Contains(n.ID()) {
					t.Fatalf("%s: Join returned with view %v", n.ID(), v)
				}
				if bound := 10 * cfg.Tick; took > bound && !raceEnabled {
					t.Errorf("%s: Join took %v, want within %v", n.ID(), took, bound)
				}
			}
		})
	}
}
