package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

// soloServer founds the single-member server group "alloc" the AllocGuard
// tests measure on; its servant returns one preallocated value. See
// TestAllocGuardLeasedRead for why one member and hour-long timers.
func soloServer(t *testing.T, id ids.ProcessID) (*Service, *Server) {
	t.Helper()
	return soloServerOn(t, memnet.New(netsim.New(netsim.FastProfile(), 1)), id)
}

// soloServerOn is soloServer on a network the test can put stub peers on.
func soloServerOn(t *testing.T, net *memnet.Net, id ids.ProcessID) (*Service, *Server) {
	t.Helper()
	svc := soloService(t, net, id)

	value := []byte("42")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv, err := svc.Serve(ctx, ServeConfig{
		Group: "alloc",
		Handler: func(method string, args []byte) ([]byte, error) {
			return value, nil
		},
		GCS: gcs.GroupConfig{
			Order:          gcs.OrderSequencer,
			TimeSilence:    time.Hour,
			SuspectTimeout: time.Hour,
			Resend:         time.Hour,
			FlushTimeout:   time.Hour,
			Tick:           time.Hour,
			LeaseTicks:     100,
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The founding view and the member's own hello reach the server off the
	// dispatch stage, after Serve returns: wait them out, so a test's own
	// view or roster entries are not overwritten behind its back.
	for applied := false; !applied; runtime.Gosched() {
		srv.execMu.Lock()
		_, applied = srv.applied[id]
		srv.execMu.Unlock()
	}
	return svc, srv
}

// TestAllocGuardLeasedRead budgets the leased-read hot path (run by ci.sh's
// AllocGuard stage): lease check, session-floor fast path, handler run and
// reply construction. The request is pre-built and the handler returns a
// preallocated value, so the measurement covers serveReadLocal itself —
// the path the static allocation budget (internal/lint/allocbudget.go)
// also pins at the SSA level.
//
// A single-member group keeps the measurement deterministic: the lone
// member is its own sequencer with a majority-of-one, so the lease is
// permanently valid with every protocol timer parked on hour-long
// quiescent values (no background ticks to pollute AllocsPerRun, which
// counts process-wide).
func TestAllocGuardLeasedRead(t *testing.T) {
	_, srv := soloServer(t, "solo")

	req := &readRequest{Group: "alloc", Method: "get", Consistency: Leased}
	// Warm the path (lazy metric state, reply pooling) before measuring.
	for i := 0; i < 64; i++ {
		if rep := srv.serveRead(req); rep.Code != readOK {
			t.Fatalf("warmup read refused: %+v", rep)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if rep := srv.serveRead(req); rep.Code != readOK {
			t.Fatalf("read refused: %+v", rep)
		}
	})
	t.Logf("leased read: %.1f allocs/op", avg)
	const budget = 8
	if avg > budget {
		t.Fatalf("leased read allocates %.1f/op, budget %d", avg, budget)
	}
}
