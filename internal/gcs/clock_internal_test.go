package gcs

import (
	"context"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/transport/memnet"
)

// TestBatchStampsNeverRunAheadOfTheirCause: a group stamps everything one
// critical section records with one clock reading, taken as the section
// begins — for a received batch, after the batch was popped. So in a
// two-member group every message's ingest at a member is stamped no
// earlier than its multicast at the sender, and its delivery no earlier
// than its ingest. The lastHeard a batch stamps is that same reading, the
// earliest of the section: a member's silence reads longer, never shorter,
// so suspicion errs early. The leased reads served meanwhile stay within
// their bound (CheckLeases).
func TestBatchStampsNeverRunAheadOfTheirCause(t *testing.T) {
	o := obs.New()
	o.Flight = flight.New(1 << 16)
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	cfg := GroupConfig{
		Order:          OrderSequencer,
		Liveness:       Lively,
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 2 * time.Second,
		Resend:         20 * time.Millisecond,
		FlushTimeout:   time.Second,
		Tick:           2 * time.Millisecond,
		LeaseTicks:     20,
	}
	var nodes []*Node
	for _, id := range []ids.ProcessID{"n00", "n01"} {
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NewNodeObs(ep, o))
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	g0, err := nodes[0].Create("clk", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g1, err := nodes[1].Join(ctx, "clk", "n00", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Group{g0, g1} {
		for len(g.View().Members) != 2 {
			if ctx.Err() != nil {
				t.Fatalf("%s never saw both members", g.Me())
			}
			time.Sleep(time.Millisecond)
		}
	}

	cursor := o.Flight.Cursor()
	const per = 50
	for i := 0; i < per; i++ {
		for _, g := range []*Group{g0, g1} {
			if err := g.Multicast(ctx, []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, g := range []*Group{g0, g1} {
		for got := 0; got < 2*per; {
			select {
			case ev := <-g.Events():
				if ev.Type == EventDeliver {
					got++
				}
			case <-ctx.Done():
				t.Fatalf("%s delivered %d of %d", g.Me(), got, 2*per)
			}
		}
	}
	for served := 0; served < 5; {
		if _, _, err := g1.LeaseRead(0); err == nil {
			served++
		} else if ctx.Err() != nil {
			t.Fatalf("no leased read served: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	// Hold g1's lock so the journal and its lastHeard are read together.
	g1.mu.Lock()
	heard := flight.Stamp(g1.lastHeard["n00"])
	events, dropped := o.Flight.Since(cursor)
	g1.mu.Unlock()
	after := flight.Now()
	if dropped != 0 {
		t.Fatalf("journal dropped %d events", dropped)
	}

	pairs := 0
	for k, tl := range flight.Timelines(events) {
		for proc, in := range tl.Ingest {
			if in < tl.Sent {
				t.Fatalf("%v: ingest at proc %d stamped %d, before its multicast at %d", k, proc, in, tl.Sent)
			}
			if d, ok := tl.Deliver[proc]; ok && d < in {
				t.Fatalf("%v: delivery at proc %d stamped %d, before its ingest at %d", k, proc, d, in)
			}
			pairs++
		}
	}
	if pairs < 4*per {
		t.Fatalf("checked %d ingests, want at least %d", pairs, 4*per)
	}

	// The newest traffic g1 accepted from n00 (position 0) was journalled
	// with the reading lastHeard holds.
	p1 := o.Flight.Proc("n01")
	var newest int64 = -1
	for _, e := range events {
		if e.Proc == p1 && e.Sender == 0 && (e.Type == flight.EvIngest || e.Type == flight.EvDupDrop || e.Type == flight.EvStash) {
			newest = e.At
		}
	}
	if newest < 0 || heard != newest || heard > after {
		t.Fatalf("lastHeard[n00] at %d, newest accepted traffic from n00 at %d, read at %d", heard, newest, after)
	}
	if v := flight.CheckLeases(events); len(v) != 0 {
		t.Fatalf("lease violations: %v", v)
	}
}
