package orb_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/ids"
	"newtop/internal/lint/allocs"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/orb"
	"newtop/internal/transport/memnet"
	"newtop/internal/wire"
)

func twoORBs(t *testing.T) (*orb.ORB, *orb.ORB) {
	t.Helper()
	a, b, _ := twoORBsObs(t)
	return a, b
}

// twoORBsObs is twoORBs with b's instruments in a domain of their own,
// returned for the test to read.
func twoORBsObs(t *testing.T) (*orb.ORB, *orb.ORB, *obs.Obs) {
	t.Helper()
	n := memnet.New(netsim.New(netsim.FastProfile(), 1))
	epA, err := n.Endpoint("a", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.Endpoint("b", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	a, b := orb.New(epA), orb.NewObs(epB, ob)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b, ob
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestInvokeRoundTrip(t *testing.T) {
	a, b := twoORBs(t)
	b.Register("calc", func(method string, args []byte) ([]byte, error) {
		if method != "double" {
			return nil, fmt.Errorf("unknown method %q", method)
		}
		out := make([]byte, len(args)*2)
		copy(out, args)
		copy(out[len(args):], args)
		return out, nil
	})
	got, err := a.Invoke(ctxT(t, 5*time.Second), orb.Ref{Target: "b", Object: "calc"}, "double", []byte("xy"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "xyxy" {
		t.Fatalf("got %q", got)
	}
}

func TestRemoteErrorSurfaces(t *testing.T) {
	a, b := twoORBs(t)
	b.Register("obj", func(string, []byte) ([]byte, error) {
		return nil, errors.New("application exploded")
	})
	_, err := a.Invoke(ctxT(t, 5*time.Second), orb.Ref{Target: "b", Object: "obj"}, "m", nil)
	var remote *orb.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if remote.Msg != "application exploded" {
		t.Fatalf("message %q", remote.Msg)
	}
}

func TestUnknownObject(t *testing.T) {
	a, _ := twoORBs(t)
	_, err := a.Invoke(ctxT(t, 5*time.Second), orb.Ref{Target: "b", Object: "ghost"}, "m", nil)
	var remote *orb.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError for unknown object, got %v", err)
	}
}

func TestInvokeTimesOutOnSilentTarget(t *testing.T) {
	a, _ := twoORBs(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	// Target "zz" does not exist at all: the call must end with ctx error.
	_, err := a.Invoke(ctx, orb.Ref{Target: "zz", Object: "o"}, "m", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline, got %v", err)
	}
	// A bounded call ends at its bound, well inside its context, and twice:
	// the second reuses the first's fired timer.
	for i := 0; i < 2; i++ {
		start := time.Now()
		_, err = a.InvokeWithin(ctxT(t, 5*time.Second), orb.Ref{Target: "zz", Object: "o"}, "m", nil, 50*time.Millisecond)
		if !errors.Is(err, orb.ErrNoReply) || time.Since(start) > 2*time.Second {
			t.Fatalf("bounded call %d: %v after %v, want ErrNoReply after 50ms", i, err, time.Since(start))
		}
	}
}

func TestOneWayFireAndForget(t *testing.T) {
	a, b := twoORBs(t)
	var hits atomic.Int64
	b.Register("sink", func(string, []byte) ([]byte, error) {
		hits.Add(1)
		return nil, nil
	})
	for i := 0; i < 5; i++ {
		if err := a.InvokeOneWay(orb.Ref{Target: "b", Object: "sink"}, "hit", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("hits = %d, want 5", hits.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	a, b := twoORBs(t)
	b.Register("echo", func(method string, args []byte) ([]byte, error) {
		return args, nil
	})
	const workers, calls = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				arg := []byte(fmt.Sprintf("w%d-c%d", w, i))
				got, err := a.Invoke(ctxT(t, 10*time.Second), orb.Ref{Target: "b", Object: "echo"}, "e", arg)
				if err != nil {
					errs <- err
					return
				}
				if string(got) != string(arg) {
					errs <- fmt.Errorf("correlation broken: sent %q got %q", arg, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHandlersRunConcurrently(t *testing.T) {
	a, b := twoORBs(t)
	gate := make(chan struct{})
	b.Register("slow", func(string, []byte) ([]byte, error) {
		<-gate
		return []byte("ok"), nil
	})
	b.Register("fast", func(string, []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	slowDone := make(chan error, 1)
	go func() {
		_, err := a.Invoke(ctxT(t, 10*time.Second), orb.Ref{Target: "b", Object: "slow"}, "m", nil)
		slowDone <- err
	}()
	// The fast call must complete while the slow handler is blocked —
	// dispatch is one goroutine per request.
	if _, err := a.Invoke(ctxT(t, 5*time.Second), orb.Ref{Target: "b", Object: "fast"}, "m", nil); err != nil {
		t.Fatalf("fast call blocked behind slow handler: %v", err)
	}
	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	a, b := twoORBs(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // let b.Close's dispatch drain at test end
	b.Register("hang", func(string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := a.Invoke(context.Background(), orb.Ref{Target: "b", Object: "hang"}, "m", nil)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	closeDone := make(chan struct{})
	go func() {
		// Close waits for in-flight dispatch; the hanging servant lives in
		// b, so closing a must not block on it.
		_ = a.Close()
		close(closeDone)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, orb.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	_ = b // leaks a goroutine in the hanging servant by design of the test
}

func TestRegisterUnregister(t *testing.T) {
	a, b := twoORBs(t)
	b.Register("o", func(string, []byte) ([]byte, error) { return []byte("1"), nil })
	if _, err := a.Invoke(ctxT(t, 5*time.Second), orb.Ref{Target: "b", Object: "o"}, "m", nil); err != nil {
		t.Fatal(err)
	}
	b.Unregister("o")
	_, err := a.Invoke(ctxT(t, 5*time.Second), orb.Ref{Target: "b", Object: "o"}, "m", nil)
	var remote *orb.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("unregistered object should error, got %v", err)
	}
}

func TestRefString(t *testing.T) {
	r := orb.Ref{Target: ids.ProcessID("p"), Object: "obj"}
	if r.String() != "obj@p" {
		t.Fatalf("Ref.String = %q", r.String())
	}
}

// A one-way sink runs on the receive loop: invocations reach it one at a
// time and in arrival order (a servant's goroutine-per-request promises
// neither), and it claims only one-way invocations of its own method. Its
// args are exactly what the invoker wrote into the frame.
func TestOneWaySinkRunsInArrivalOrder(t *testing.T) {
	a, b := twoORBs(t)
	const n = 200
	var got []byte // unsynchronised on purpose: the race pass checks "one at a time"
	done := make(chan struct{})
	b.HandleOneWay("o", "note", func(args []byte) {
		if len(args) != 1 {
			t.Errorf("one-way args %q, want the one byte written", args)
			return
		}
		got = append(got, args[0])
		if len(got) == n {
			close(done)
		}
	})
	var servant atomic.Int64
	b.Register("o", func(method string, _ []byte) ([]byte, error) {
		servant.Add(1)
		return []byte(method), nil
	})
	ref := orb.Ref{Target: "b", Object: "o"}
	for i := 0; i < n; i++ {
		if err := a.InvokeOneWay(ref, "note", func(w *wire.Writer) { w.Byte(byte(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("sink saw %d of %d one-ways", len(got), n)
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("one-way %d reached the sink in position %d", v, i)
		}
	}

	// The same method invoked two-way, and another method invoked one-way,
	// still go to the object's servant.
	if out, err := a.Invoke(ctxT(t, 5*time.Second), ref, "note", nil); err != nil || string(out) != "note" {
		t.Fatalf("two-way note: %q, %v", out, err)
	}
	if err := a.InvokeOneWay(ref, "other", nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); servant.Load() != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("servant ran %d times, want 2", servant.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if len(got) != n {
		t.Fatalf("sink ran %d times, want %d", len(got), n)
	}
}

// A two-way handler answers on the receive loop, with the payload it wrote
// into the reply frame: no goroutine. A call it hands back with
// ErrWouldBlock goes to the object's servant on a goroutine, and any other
// error it returns is the caller's RemoteError. Other methods of the object
// are the servant's.
func TestTwoWayHandlerAnswersOnTheReceiveLoop(t *testing.T) {
	a, b, ob := twoORBsObs(t)
	spawned := ob.Reg.Counter("orb_requests_offloop")
	b.HandleTwoWay("o", "get", func(args []byte, reply *wire.Writer) error {
		switch string(args) {
		case "wait":
			return orb.ErrWouldBlock
		case "bad":
			return errors.New("inline refusal")
		}
		reply.Raw([]byte("inline:"))
		reply.Raw(args)
		return nil
	})
	b.Register("o", func(method string, args []byte) ([]byte, error) {
		return []byte("servant:" + method + ":" + string(args)), nil
	})
	ref := orb.Ref{Target: "b", Object: "o"}
	for _, tc := range []struct {
		method, args, want string
		offLoop            uint64
	}{
		{"get", "k", "inline:k", 0},
		{"get", "", "inline:", 0},
		{"get", "wait", "servant:get:wait", 1},
		{"put", "k", "servant:put:k", 1},
	} {
		before := spawned.Value()
		got, err := a.Invoke(ctxT(t, 5*time.Second), ref, tc.method, []byte(tc.args))
		if err != nil || string(got) != tc.want {
			t.Fatalf("%s(%q) = %q, %v; want %q", tc.method, tc.args, got, err, tc.want)
		}
		if n := spawned.Value() - before; n != tc.offLoop {
			t.Fatalf("%s(%q) was served off the loop %d times, want %d", tc.method, tc.args, n, tc.offLoop)
		}
	}
	_, err := a.Invoke(ctxT(t, 5*time.Second), ref, "get", []byte("bad"))
	var remote *orb.RemoteError
	if !errors.As(err, &remote) || remote.Msg != "inline refusal" {
		t.Fatalf("inline error surfaced as %v", err)
	}
}

// A reply that arrives after its caller gave up completes nothing: every
// later call, whichever pending slot it reuses, gets its own payload. The
// first call's servant answers only once the later calls are under way, and
// a churn of calls with deadlines as short as the servant's delay runs
// beside them, giving up while their replies are in flight.
func TestLateReplyNeverCompletesALaterCall(t *testing.T) {
	a, b := twoORBs(t)
	late := make(chan struct{})
	var answerLate sync.Once
	release := func() { answerLate.Do(func() { close(late) }) }
	defer release() // a failed caller must not leave the servant parked for Close
	b.Register("echo", func(method string, args []byte) ([]byte, error) {
		switch method {
		case "late":
			<-late
		case "slow":
			time.Sleep(time.Duration(len(args)%3) * 100 * time.Microsecond)
		}
		return args, nil
	})
	ref := orb.Ref{Target: "b", Object: "echo"}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err := a.Invoke(ctx, ref, "late", []byte("stale"))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("late call: %v, want its deadline", err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 2; w++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				arg := []byte(fmt.Sprintf("churn-%d-%d", w, i))
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%4)*50*time.Microsecond)
				got, err := a.Invoke(ctx, ref, "slow", arg)
				cancel()
				if err == nil && string(got) != string(arg) {
					t.Errorf("churn call %q completed with %q", arg, got)
				}
			}
		}()
	}

	const workers, calls = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if w == 0 && i == 10 {
					release()
				}
				arg := []byte(fmt.Sprintf("w%d-c%d", w, i))
				got, err := a.Invoke(ctxT(t, 10*time.Second), ref, "echo", arg)
				if err != nil || string(got) != string(arg) {
					t.Errorf("call %q completed with %q, %v", arg, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if n := a.PendingCalls(); n != 0 {
		t.Fatalf("%d calls still pending after every caller returned", n)
	}
}

// The pending-call table holds only calls whose callers still wait: after a
// churn of timed-out calls it is empty, and Close racing calls in flight
// fails every one of them and leaves it empty too.
func TestPendingCallsDrain(t *testing.T) {
	a, b := twoORBs(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	b.Register("hang", func(string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	ref := orb.Ref{Target: "b", Object: "hang"}

	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%5)*time.Millisecond)
			defer cancel()
			if _, err := a.Invoke(ctx, ref, "m", nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("timed-out call: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := a.PendingCalls(); n != 0 {
		t.Fatalf("%d calls pending after every timed-out caller returned", n)
	}

	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := a.Invoke(context.Background(), ref, "m", nil)
			errs <- err
		}()
	}
	time.Sleep(5 * time.Millisecond) // some calls are out, some still starting
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, orb.ErrClosed) {
			t.Fatalf("call racing Close: %v, want ErrClosed", err)
		}
	}
	if n := a.PendingCalls(); n != 0 {
		t.Fatalf("%d calls pending after Close", n)
	}
}

// TestAllocGuardInlineInvoke budgets a two-way call answered inline, over
// memnet: the request frame, the pending slot, the handler's reply written
// into the reply frame, and the reply handed to the caller as a slice of
// the inbound frame. The same call to a servant, with a channel per call,
// a goroutine, its closure and the names' strings per request, and memnet
// re-slicing its link queues per frame, measured 6.0 allocs/op.
func TestAllocGuardInlineInvoke(t *testing.T) {
	a, b := twoORBs(t)
	b.HandleTwoWay("o", "get", func(args []byte, reply *wire.Writer) error {
		reply.Raw(args)
		return nil
	})
	ctx := ctxT(t, time.Minute)
	ref := orb.Ref{Target: "b", Object: "o"}
	args := []byte("0123456789")
	// An answered call costs the same bounded (its timer is reused) as not.
	for _, bound := range []time.Duration{0, time.Minute} {
		call := func() {
			got, err := a.InvokeWithin(ctx, ref, "get", args, bound)
			if err != nil || len(got) != len(args) {
				t.Fatalf("inline call: %q, %v", got, err)
			}
		}
		for i := 0; i < 64; i++ {
			call()
		}
		avg := allocs.PerOp(1000, call)
		t.Logf("inline two-way call, bound %v: %.3f allocs/op", bound, avg)
		const budget = 0.05 // measured 0.002
		if avg > budget && !raceEnabled {
			t.Fatalf("an inline two-way call with bound %v allocates %.3f/op, budget %.2f", bound, avg, budget)
		}
	}
}
