package core_test

import (
	"fmt"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/obs"
)

// TestTracePropagationBatchedEnvelope pipelines a burst of invocations
// through a binding whose client group batches (sender-side kindBatch
// envelopes) and checks that every call's trace identifier survives the
// coalesce/unpack round trip: each request still reaches the request
// manager and the replicas under its own trace.
func TestTracePropagationBatchedEnvelope(t *testing.T) {
	w := newTracedWorld(t, 2, 1, nil)
	client := w.clients[0]

	// Batch on the client's side of the binding group only (batching is
	// sender-local); a wide tick gives the burst one envelope window.
	cfg := testTimers()
	cfg.Batch = true
	cfg.Tick = 10 * time.Millisecond

	b, err := client.Bind(ctxT(t, 10*time.Second), core.BindConfig{
		ServerGroup: "sg",
		Contact:     w.servers[0].ID(),
		Style:       core.Open,
		GCS:         cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Warm the path so the burst is not serialized behind group setup.
	if _, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("warm"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}

	const burst = 8
	ctx := ctxT(t, 15*time.Second)
	traces := make([]obs.TraceID, burst)
	calls := make([]*core.Call, burst)
	for i := 0; i < burst; i++ {
		traces[i] = obs.NewTraceID()
		c, err := b.InvokeAsync(ctx, "echo", []byte{byte(i)},
			core.WithMode(core.All), core.WithTrace(traces[i]))
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		calls[i] = c
	}
	for i, c := range calls {
		if _, err := c.Await(ctx); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
	}

	// The burst coalesced: more messages than envelopes on the client's
	// group instruments proves the requests rode kindBatch envelopes.
	snap := client.Obs().Reg.Snapshot()
	batched, sent := snap.Counters["gcs_batched_msgs"], snap.Counters["gcs_batches_sent"]
	if batched < burst {
		t.Fatalf("only %d messages batched, want >= %d", batched, burst)
	}
	if sent >= batched {
		t.Fatalf("no coalescing: %d envelopes for %d messages", sent, batched)
	}

	// Every call's trace crossed the envelope boundary intact: the request
	// manager processed each one and every replica executed it under it.
	if w.serverByID(b.RequestManager()) == nil {
		t.Fatalf("request manager %s is not a server", b.RequestManager())
	}
	for i, tid := range traces {
		for _, s := range w.servers {
			who := fmt.Sprintf("call %d: %s", i, s.ID())
			if s.ID() == b.RequestManager() {
				wantJournal(t, who, s.Obs(), tid, rmStages...)
			} else {
				wantJournal(t, who, s.Obs(), tid, "replica.execute")
			}
		}
	}
}
