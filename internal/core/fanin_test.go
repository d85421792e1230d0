package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport"
	"newtop/internal/transport/memnet"
	"newtop/internal/vclock"
)

// tap is a memnet endpoint whose sends a test can count, drop or hold.
type tap struct {
	*memnet.Endpoint
	mu   sync.Mutex
	hook func(to ids.ProcessID, frame []byte) (drop bool)
}

// set installs the send hook (nil removes it). The hook sees every frame
// before it leaves; it may block to hold the frame back, and returning true
// drops it.
func (e *tap) set(hook func(to ids.ProcessID, frame []byte) bool) {
	e.mu.Lock()
	e.hook = hook
	e.mu.Unlock()
}

func (e *tap) Send(to ids.ProcessID, frame []byte) error {
	e.mu.Lock()
	hook := e.hook
	e.mu.Unlock()
	if hook != nil && hook(to, frame) {
		return nil
	}
	return e.Endpoint.Send(to, frame)
}

// The ORB's frame kinds, as the byte after the mux's protocol byte. The
// invocation layer's one-ways are the answers of the "reply" fan-in: a
// server's direct reply, and a request manager's reply set.
const (
	orbRequest byte = 1
	orbOneWay  byte = 2
)

func orbFrame(frame []byte, kind byte) bool {
	return len(frame) > 1 && frame[0] == transport.ProtoORB && frame[1] == kind
}

func dropReplies(_ ids.ProcessID, frame []byte) bool { return orbFrame(frame, orbOneWay) }

// awaitExecs waits until every listed server has run its handler n times.
func (w *world) awaitExecs(n int64, servers ...ids.ProcessID) {
	w.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range servers {
		for w.calls[id].Load() < n {
			if time.Now().After(deadline) {
				w.t.Fatalf("%s ran %d executions, want %d", id, w.calls[id].Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func (w *world) bindOpen(contact ids.ProcessID) *core.Binding {
	w.t.Helper()
	cfg := w.bindCfg(core.Open)
	cfg.Contact = contact
	b, err := w.clients[0].Bind(ctxT(w.t, 10*time.Second), cfg)
	if err != nil {
		w.t.Fatalf("bind through %s: %v", contact, err)
	}
	w.t.Cleanup(func() { _ = b.Close() })
	return b
}

func repliers(replies []core.Reply) string {
	var names []string
	for _, r := range replies {
		names = append(names, string(r.Server))
	}
	return strings.Join(names, ",")
}

// One majority call through an open binding puts exactly two application
// multicasts on the wire, both ordered where order is needed: the client's
// request in its client/server group and the request manager's forward in
// the server group. Everything else is point-to-point: the two other
// replicas answer the request manager with one ORB one-way each, and the
// request manager answers the client with one more (fig. 4(iv)); nobody but
// the request manager multicasts in the server group (§4.2), and it
// multicasts nothing in the client/server group.
func TestOpenCallCostsOneServerGroupMulticast(t *testing.T) {
	w := newWorld(t, 3, 1)
	b := w.bindOpen("s00")
	rmSide := w.servers[0].Node().Group(b.Group().ID())
	var oneWays atomic.Int64
	for _, tp := range w.taps {
		tp.set(func(_ ids.ProcessID, frame []byte) bool {
			if orbFrame(frame, orbOneWay) {
				oneWays.Add(1)
			}
			return false
		})
	}
	awaitOneWays := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); oneWays.Load() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("%d ORB one-ways sent, want %d", oneWays.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	appSent := func() (n uint64) {
		for _, srv := range w.srvs {
			n += srv.DebugGroup().Stats().AppSent
		}
		return n
	}
	call := func() {
		t.Helper()
		replies, err := b.Call(ctxT(t, 10*time.Second), "echo", []byte("x"), core.WithMode(core.Majority))
		if err != nil || len(replies) < 2 {
			t.Fatalf("majority call: %d replies, %v", len(replies), err)
		}
	}
	call() // warm-up; the reply that arrives after the quorum is sent too
	awaitOneWays(3)

	before, requests := appSent(), b.Group().Stats().AppSent
	call()
	awaitOneWays(6)
	time.Sleep(20 * time.Millisecond) // anything further would be in flight by now
	if got := appSent() - before; got != 1 {
		t.Errorf("%d application multicasts in the server group for one call, want 1", got)
	}
	if got := b.Group().Stats().AppSent - requests; got != 1 {
		t.Errorf("the client multicast %d times in its client/server group for one call, want 1", got)
	}
	if got := rmSide.Stats().AppSent; got != 0 {
		t.Errorf("the request manager multicast %d times in the client/server group over two calls, want 0", got)
	}
	if got := oneWays.Load() - 3; got != 3 {
		t.Errorf("%d ORB one-ways for one call, want 3: two replica replies and the answer", got)
	}
}

// The request manager's answer rides no reliable multicast either. When it
// is lost, the call cannot complete by itself; the client's retry under the
// same call identifier is answered from the retained reply set, and nothing
// executes twice.
func TestLostAnswerIsRepairedByTheRetry(t *testing.T) {
	w := newWorld(t, 3, 1)
	// The client holds its group's attention while the call is outstanding
	// and would suspect the request manager, silent once it has answered,
	// before the first attempt gives up. Keep that out of this test's way.
	cfg := w.bindCfg(core.Open)
	cfg.GCS.SuspectTimeout = 5 * time.Second
	b, err := w.clients[0].Bind(ctxT(t, 10*time.Second), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	client := w.clients[0].ID()
	var answers atomic.Int64
	w.taps[b.RequestManager()].set(func(to ids.ProcessID, frame []byte) bool {
		return to == client && orbFrame(frame, orbOneWay) && answers.Add(1) == 1 // lose the first answer only
	})
	call := w.clients[0].DebugNewCall()
	opts := []core.CallOption{core.WithMode(core.All), core.WithCallID(call)}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if first, err := b.Call(ctx, "echo", []byte("x"), opts...); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call whose answer was lost: answered by %q, %v; want a deadline", repliers(first), err)
	}
	w.awaitExecs(1, "s00", "s01", "s02")
	start := time.Now()
	replies, err := b.Call(ctxT(t, 8*time.Second), "echo", []byte("x"), opts...)
	if err != nil || len(replies) != 3 {
		t.Fatalf("retry: replies from %q, %v; want all three", repliers(replies), err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("retry took %v: it was not answered from the retained set", d)
	}
	if n := answers.Load(); n != 2 {
		t.Errorf("%d answers sent, want 2: the lost one and the retry's resend", n)
	}
	for id, n := range w.calls {
		if n.Load() != 1 {
			t.Errorf("%s executed the call %d times, want 1", id, n.Load())
		}
	}
}

// A direct reply rides no reliable multicast. When one is lost, a
// wait-for-all collection cannot finish by itself; the client's retry makes
// the request manager forward again, every replica answers from its
// retained reply, and the call completes — long before RMWait (10 s) and
// with one execution per replica.
func TestLostDirectReplyIsRepairedByTheRetry(t *testing.T) {
	// A request manager that is gathering holds the server group's attention
	// and suspects members it has not heard from for SuspectTimeout — idle
	// ones included. Keep that out of this test's way.
	timers := testTimers()
	timers.SuspectTimeout = 5 * time.Second
	w := newWorldTimers(t, 3, 1, timers)
	b := w.bindOpen("s00")
	var seen atomic.Int64
	w.taps["s02"].set(func(_ ids.ProcessID, frame []byte) bool {
		return orbFrame(frame, orbOneWay) && seen.Add(1) == 1 // lose the first reply only
	})
	call := w.clients[0].DebugNewCall()
	opts := []core.CallOption{core.WithMode(core.All), core.WithCallID(call)}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if first, err := b.Call(ctx, "echo", []byte("x"), opts...); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call whose third reply was lost: answered by %q, %v; want a deadline", repliers(first), err)
	}
	start := time.Now()
	replies, err := b.Call(ctxT(t, 8*time.Second), "echo", []byte("x"), opts...)
	if err != nil || len(replies) != 3 {
		t.Fatalf("retry: replies from %q, %v; want all three", repliers(replies), err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("retry took %v: it waited out the collection instead of repairing it", d)
	}
	for id, n := range w.calls {
		if n.Load() != 1 {
			t.Errorf("%s executed the call %d times, want 1", id, n.Load())
		}
	}
}

// The request manager dies while it is gathering. The client rebinds and
// retries under the same call identifier; the new request manager forwards,
// the survivors answer from their retained replies and nothing executes
// twice.
func TestRMCrashMidCollectRetriesWithoutReexecution(t *testing.T) {
	w := newWorld(t, 3, 1)
	b := w.bindOpen("s01")         // a non-leader, so the survivors keep their coordinator
	w.taps["s02"].set(dropReplies) // s01 can never finish a wait-for-all
	call := w.clients[0].DebugNewCall()
	opts := []core.CallOption{core.WithMode(core.All), core.WithCallID(call)}

	failed := make(chan error, 1)
	go func() {
		_, err := b.Call(ctxT(t, 20*time.Second), "echo", []byte("x"), opts...)
		failed <- err
	}()
	w.awaitExecs(1, "s00", "s01", "s02")
	w.net.Sim().Crash("s01")
	if err := <-failed; err == nil {
		t.Fatal("the call through the crashed request manager succeeded")
	}
	w.taps["s02"].set(nil)

	b2 := w.bindOpen("s00")
	replies, err := b2.Call(ctxT(t, 20*time.Second), "echo", []byte("x"), opts...)
	if err != nil {
		t.Fatalf("retry through the new request manager: %v", err)
	}
	if got := repliers(replies); got != "s00,s02" {
		t.Errorf("retry answered by %q, want the two survivors", got)
	}
	for _, r := range replies {
		if r.Err != nil || !strings.HasSuffix(string(r.Payload), " x") {
			t.Errorf("%s: %q, %v; want its retained reply", r.Server, r.Payload, r.Err)
		}
	}
	for _, id := range []ids.ProcessID{"s00", "s02"} {
		if n := w.calls[id].Load(); n != 1 {
			t.Errorf("%s executed the call %d times, want 1", id, n)
		}
	}
}

// A replica dies owing its reply to a wait-for-all collection: the view
// change shrinks the quorum and the collection settles with the survivors'
// replies instead of waiting out RMWait.
func TestReplicaCrashMidCollectShrinksTheQuorum(t *testing.T) {
	w := newWorld(t, 3, 1)
	b := w.bindOpen("s00")
	w.taps["s02"].set(dropReplies)
	type result struct {
		replies []core.Reply
		err     error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		replies, err := b.Call(ctxT(t, 20*time.Second), "echo", []byte("x"), core.WithMode(core.All))
		done <- result{replies, err}
	}()
	w.awaitExecs(1, "s00", "s01", "s02")
	w.net.Sim().Crash("s02")
	res := <-done
	if res.err != nil {
		t.Fatalf("wait-for-all across a replica crash: %v", res.err)
	}
	if got := repliers(res.replies); got != "s00,s01" {
		t.Errorf("answered by %q, want the two survivors", got)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("took %v: the collection waited for its deadline, not for the view change", d)
	}
}

// kvReplica is one member of the state-transfer tests' replicated map.
type kvReplica struct {
	svc        *core.Service
	state      *kvState
	execs      atomic.Int64
	tap        *tap
	onSnapshot func() // runs inside the Snapshot hook, before the state is cut
}

func newKVReplica(t *testing.T, net *memnet.Net, id ids.ProcessID) *kvReplica {
	t.Helper()
	ep, err := net.Endpoint(id, netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	r := &kvReplica{state: newKVState(), tap: &tap{Endpoint: ep}}
	r.svc = core.NewService(r.tap)
	t.Cleanup(func() { _ = r.svc.Close() })
	return r
}

func (r *kvReplica) config(contact ids.ProcessID) core.ServeConfig {
	return core.ServeConfig{
		Group:   "kv",
		Contact: contact,
		Handler: func(method string, args []byte) ([]byte, error) {
			r.execs.Add(1)
			return r.state.handle(method, args)
		},
		Snapshot: func() ([]byte, error) {
			if r.onSnapshot != nil {
				r.onSnapshot()
			}
			return r.state.snapshot()
		},
		Restore: r.state.restore,
		GCS:     leaseTimers(), // the read path on: the joiner tests read at the joiner
	}
}

// joinWorld is two founding replicas r0 and r1, a client bound through r0,
// and a third replica r9 about to join with r1 as its donor.
type joinWorld struct {
	net        *memnet.Net
	r0, r1, r9 *kvReplica
	srv0       *core.Server
	client     *core.Service
	b          *core.Binding
}

func newJoinWorld(t *testing.T, seed int64) *joinWorld {
	t.Helper()
	net := memnet.New(netsim.New(netsim.FastProfile(), seed))
	ctx := ctxT(t, 30*time.Second)
	w := &joinWorld{net: net, r0: newKVReplica(t, net, "r0"), r1: newKVReplica(t, net, "r1"), r9: newKVReplica(t, net, "r9")}
	srv0, err := w.r0.svc.Serve(ctx, w.r0.config(""))
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := w.r1.svc.Serve(ctx, w.r1.config("r0"))
	if err != nil {
		t.Fatal(err)
	}
	awaitRosters(t, []*core.Server{srv0, srv1})
	w.srv0 = srv0
	ep, err := net.Endpoint("z-client", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	w.client = core.NewService(ep)
	t.Cleanup(func() { _ = w.client.Close() })
	w.b, err = w.client.Bind(ctx, core.BindConfig{ServerGroup: "kv", Contact: "r0", Style: core.Open, GCS: testTimers()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.b.Close() })
	return w
}

// join starts r9's ServeReplica and returns once r0, the request manager,
// counts r9 in its roster — r9 is then still inside its state transfer,
// held there by the caller.
func (w *joinWorld) join(t *testing.T) <-chan error {
	t.Helper()
	joined := make(chan error, 1)
	go func() {
		_, err := w.r9.svc.ServeReplica(ctxT(t, 30*time.Second), w.r9.config("r1"))
		joined <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); len(w.srv0.ServerRoster()) != 3; {
		if time.Now().After(deadline) {
			t.Fatalf("r0 never saw the joiner: roster %v", w.srv0.ServerRoster())
		}
		time.Sleep(time.Millisecond)
	}
	return joined
}

// put issues one wait-for-all write and waits until it has executed at the
// listed replicas; the joiner has buffered it by then or will any moment.
func (w *joinWorld) put(t *testing.T, call ids.CallID, executedAt ...*kvReplica) <-chan []core.Reply {
	t.Helper()
	out := make(chan []core.Reply, 1)
	go func() {
		replies, err := w.b.Call(ctxT(t, 20*time.Second), "put", []byte("k=v"), core.WithMode(core.All), core.WithCallID(call))
		if err != nil {
			t.Errorf("put: %v", err)
		}
		out <- replies
	}()
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range executedAt {
		for r.state.dump()["k"] != "v" {
			if time.Now().After(deadline) {
				t.Fatal("the write never executed at a founding replica")
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	return out
}

// A request forwarded while a joining replica is still fetching its
// snapshot is delivered in a view that counts the joiner, so a wait-for-all
// collection needs the joiner's answer. The joiner buffers the request,
// replays it after the restore — the snapshot does not cover it — and
// answers the request manager then.
func TestJoinerAnswersBufferedRequestAfterReplay(t *testing.T) {
	w := newJoinWorld(t, 31)
	// Hold the donor inside Snapshot: it serialises with executions, so the
	// write below executes at r1 only after the snapshot was cut.
	snapping, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.r1.onSnapshot = func() {
		once.Do(func() { close(snapping) })
		<-release
	}
	joined := w.join(t)
	<-snapping
	start := time.Now()
	replies := w.put(t, w.client.DebugNewCall(), w.r0)
	close(release)

	got := <-replies
	if names := repliers(got); names != "r0,r1,r9" {
		t.Fatalf("wait-for-all answered by %q, want all three members of the view", names)
	}
	for _, r := range got {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Server, r.Err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("took %v: the collection waited out its deadline for the joiner", d)
	}
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if v := w.r9.state.dump()["k"]; v != "v" || w.r9.execs.Load() != 1 {
		t.Errorf("joiner: k=%q after %d executions, want v after 1", v, w.r9.execs.Load())
	}
}

// The other half: the request executed at the donor before the snapshot was
// cut, so the joiner receives its effect with the state and must never run
// it — not for the original, not for a retry forwarded by another request
// manager. It answers that the result stayed with the donor.
func TestJoinerNeverReexecutesWhatItsSnapshotCovers(t *testing.T) {
	w := newJoinWorld(t, 32)
	// Hold the joiner's state fetch (its only two-way ORB request) until the
	// write has executed at both founding replicas.
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.r9.tap.set(func(_ ids.ProcessID, frame []byte) bool {
		if orbFrame(frame, orbRequest) {
			once.Do(func() { close(held) })
			<-release
		}
		return false
	})
	joined := w.join(t)
	<-held
	call := w.client.DebugNewCall()
	replies := w.put(t, call, w.r0, w.r1)
	close(release)

	got := <-replies
	if names := repliers(got); names != "r0,r1,r9" {
		t.Fatalf("wait-for-all answered by %q, want all three members of the view", names)
	}
	for _, r := range got {
		if covered := r.Err != nil && strings.Contains(r.Err.Error(), "state transfer"); covered != (r.Server == "r9") {
			t.Errorf("%s: payload %q, err %v", r.Server, r.Payload, r.Err)
		}
	}
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}

	// The same call again through another request manager: a fresh forward
	// reaches the joiner, which must answer from what it retained.
	b1, err := w.client.Bind(ctxT(t, 10*time.Second), core.BindConfig{ServerGroup: "kv", Contact: "r1", Style: core.Open, GCS: testTimers()})
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	got, err = b1.Call(ctxT(t, 10*time.Second), "put", []byte("k=v"), core.WithMode(core.All), core.WithCallID(call))
	if err != nil || repliers(got) != "r0,r1,r9" {
		t.Fatalf("retry through r1 answered by %q, %v", repliers(got), err)
	}
	if v := w.r9.state.dump()["k"]; v != "v" {
		t.Errorf("joiner has k=%q, want v from the snapshot", v)
	}
	if a, b, c := w.r0.execs.Load(), w.r1.execs.Load(), w.r9.execs.Load(); a != 1 || b != 1 || c != 0 {
		t.Errorf("executions r0=%d r1=%d r9=%d, want 1, 1 and 0: the joiner got the write inside its snapshot", a, b, c)
	}
}

// The write's copy to the joiner is lost, so the joiner delivers it only
// from the request manager's resend, after its state transfer has ended:
// the fetch is not held here, the loss alone puts the delivery after it.
// The snapshot covers the write (both founders executed it before the donor
// cut it), so the joiner must answer from the cover, not execute it on top
// of the restored state. The heard-past rule does not make this
// unreachable: the founders deliver the write once the joiner has spoken
// past it, and it does, on a heartbeat stamped after a founder's
// acknowledgement of the write that it did receive.
func TestJoinerNeverExecutesACoveredWriteThatArrivesAfterTheTransfer(t *testing.T) {
	w := newJoinWorld(t, 33)
	var transferred atomic.Bool
	var dropped atomic.Int64
	w.r0.tap.set(func(to ids.ProcessID, frame []byte) bool {
		if to == "r9" && !transferred.Load() && len(frame) > 0 && frame[0] == transport.ProtoGCS &&
			strings.Contains(string(frame), "k=v") {
			dropped.Add(1)
			return true
		}
		return false
	})
	// Hold the joiner's state fetch until the write has executed at both
	// founding replicas, as in TestJoinerNeverReexecutesWhatItsSnapshotCovers.
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.r9.tap.set(func(_ ids.ProcessID, frame []byte) bool {
		if orbFrame(frame, orbRequest) {
			once.Do(func() { close(held) })
			<-release
		}
		return false
	})
	joined := w.join(t)
	<-held
	replies := w.put(t, w.client.DebugNewCall(), w.r0, w.r1)
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	transferred.Store(true) // from here on the resend reaches the joiner
	if dropped.Load() == 0 {
		t.Fatal("the write's copy to the joiner was never dropped")
	}

	got := <-replies
	if names := repliers(got); names != "r0,r1,r9" {
		t.Fatalf("wait-for-all answered by %q, want all three members of the view", names)
	}
	for _, r := range got {
		if covered := r.Err != nil && strings.Contains(r.Err.Error(), "state transfer"); covered != (r.Server == "r9") {
			t.Errorf("%s: payload %q, err %v", r.Server, r.Payload, r.Err)
		}
	}
	if v := w.r9.state.dump()["k"]; v != "v" {
		t.Errorf("joiner has k=%q, want v from the snapshot", v)
	}
	if a, b, c := w.r0.execs.Load(), w.r1.execs.Load(), w.r9.execs.Load(); a != 1 || b != 1 || c != 0 {
		t.Errorf("executions r0=%d r1=%d r9=%d, want 1, 1 and 0: the joiner got the write inside its snapshot", a, b, c)
	}
}

// A joiner is a member of the server group — its lease can be granted, its
// server answers read calls — from before its snapshot is in. It must refuse
// every read until then, or a sessionless leased or stale read returns the
// empty state it started from.
func TestJoinerRefusesReadsUntilItsStateIsIn(t *testing.T) {
	w := newJoinWorld(t, 34)
	if _, err := w.b.Call(ctxT(t, 10*time.Second), "put", []byte("k=v"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}
	snapping, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.r1.onSnapshot = func() {
		once.Do(func() { close(snapping) })
		<-release
	}
	joined := w.join(t)
	<-snapping
	for _, cons := range []core.Consistency{core.Leased, core.Stale, core.Linearizable} {
		if got, err := w.client.ReadAt(ctxT(t, 10*time.Second), "r9", "kv", "get", []byte("k"), cons, vclock.Stamp{}); err == nil {
			t.Errorf("%v read at the joiner mid-transfer returned %q; it must refuse", cons, got)
		}
	}
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if got, err := w.client.ReadAt(ctxT(t, 10*time.Second), "r9", "kv", "get", []byte("k"), core.Stale, vclock.Stamp{}); err != nil || string(got) != "v" {
		t.Fatalf("stale read at the caught-up joiner: %q, %v; want v", got, err)
	}
}

// A sender leaves the group while a joiner's snapshot is being cut. The
// joiner has seen it go, so its entry in the donor's executed prefix must not
// come back with the snapshot: the not-in-view rule already covers every
// stamp it sent, and the entry would outlive it until some later view change.
func TestJoinerDropsSenderThatLeftMidTransfer(t *testing.T) {
	w := newJoinWorld(t, 35)
	if _, err := w.b.Call(ctxT(t, 10*time.Second), "put", []byte("k=v"), core.WithMode(core.All)); err != nil {
		t.Fatal(err)
	}
	floor := w.b.SessionStamp() // the request manager r0's forward
	if floor.Sender != "r0" {
		t.Fatalf("session stamp %v, want one of r0's", floor)
	}
	snapping, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w.r1.onSnapshot = func() {
		once.Do(func() { close(snapping) })
		<-release
	}
	joined := w.join(t)
	<-snapping
	w.net.Sim().Crash("r0")
	for _, r := range []*kvReplica{w.r1, w.r9} {
		r.svc.Node().Group("kv").Suspect("r0") // an idle group suspects nobody by itself
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _, ok := w.r9.svc.ExecutedPrefix("kv"); ok && v.Seq > 0 && !v.Contains("r0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the joiner never saw r0 leave")
		}
	}
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, senders, _ := w.r9.svc.ExecutedPrefix("kv"); slices.Contains(senders, "r0") {
		t.Fatalf("the joiner's executed prefix holds departed r0: %v", senders)
	}
	start := time.Now()
	if got, err := w.client.ReadAt(ctxT(t, 10*time.Second), "r9", "kv", "get", []byte("k"), core.Stale, floor); err != nil || string(got) != "v" {
		t.Fatalf("read floored at r0's last stamp: %q, %v; want v", got, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("read floored at a departed sender's stamp took %v; it is covered", d)
	}
}

// One process holds all three roles of the "reply" fan-in at once: closed
// client of group "a", request manager of group "b", and open client of
// group "c" — and, the worst case, all three calls carry the same call
// identifier. Every answer arrives over the same "reply" one-way: the
// replicas' replies to the closed call and to the request manager, and the
// reply set of c's request manager. Each must reach the role it is for.
func TestDirectRepliesRouteByRole(t *testing.T) {
	net := memnet.New(netsim.New(netsim.FastProfile(), 33))
	ctx := ctxT(t, 30*time.Second)
	taps := map[ids.ProcessID]*tap{}
	mk := func(id ids.ProcessID) *core.Service {
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		taps[id] = &tap{Endpoint: ep}
		svc := core.NewService(taps[id])
		t.Cleanup(func() { _ = svc.Close() })
		return svc
	}
	serve := func(svc *core.Service, group ids.GroupID, contact ids.ProcessID) *core.Server {
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:   group,
			Contact: contact,
			Handler: func(string, []byte) ([]byte, error) { return []byte(fmt.Sprintf("%s@%s", group, svc.ID())), nil },
			GCS:     testTimers(),
		})
		if err != nil {
			t.Fatalf("serve %s at %s: %v", group, svc.ID(), err)
		}
		return srv
	}
	a0, a1, p, b1, c0, c1, z := mk("a0"), mk("a1"), mk("p"), mk("b1"), mk("c0"), mk("c1"), mk("z")
	awaitRosters(t, []*core.Server{serve(a0, "a", ""), serve(a1, "a", "a0")})
	awaitRosters(t, []*core.Server{serve(b1, "b", ""), serve(p, "b", "b1")})
	awaitRosters(t, []*core.Server{serve(c0, "c", ""), serve(c1, "c", "c0")})

	closed, err := p.Bind(ctx, core.BindConfig{ServerGroup: "a", Contact: "a0", Style: core.Closed, GCS: testTimers()})
	if err != nil {
		t.Fatal(err)
	}
	defer closed.Close()
	asClient, err := p.Bind(ctx, core.BindConfig{ServerGroup: "c", Contact: "c0", Style: core.Open, GCS: testTimers()})
	if err != nil {
		t.Fatal(err)
	}
	defer asClient.Close()
	asRM, err := z.Bind(ctx, core.BindConfig{ServerGroup: "b", Contact: "p", Style: core.Open, GCS: testTimers()})
	if err != nil {
		t.Fatal(err)
	}
	defer asRM.Close()
	if asRM.RequestManager() != "p" || asClient.RequestManager() != "c0" {
		t.Fatalf("request managers %s and %s, want p and c0", asRM.RequestManager(), asClient.RequestManager())
	}

	// Keep p's closed call outstanding (a1's reply is held back), and its
	// open call on c too (c0's answer is held back), while p gathers, as
	// request manager, for a call with the same identifier.
	releaseA, releaseC, answerHeld := make(chan struct{}), make(chan struct{}), make(chan struct{})
	taps["a1"].set(func(_ ids.ProcessID, frame []byte) bool {
		if orbFrame(frame, orbOneWay) {
			<-releaseA
		}
		return false
	})
	var held sync.Once
	taps["c0"].set(func(to ids.ProcessID, frame []byte) bool {
		if to == "p" && orbFrame(frame, orbOneWay) {
			held.Do(func() { close(answerHeld) })
			<-releaseC
		}
		return false
	})
	call := p.DebugNewCall()
	opts := []core.CallOption{core.WithMode(core.All), core.WithCallID(call)}
	closedDone, openDone := make(chan []core.Reply, 1), make(chan []core.Reply, 1)
	go func() {
		replies, err := closed.Call(ctxT(t, 20*time.Second), "m", nil, opts...)
		if err != nil {
			t.Errorf("closed call on a: %v", err)
		}
		closedDone <- replies
	}()
	go func() {
		replies, err := asClient.Call(ctxT(t, 20*time.Second), "m", nil, opts...)
		if err != nil {
			t.Errorf("open call on c through c0: %v", err)
		}
		openDone <- replies
	}()
	<-answerHeld
	time.Sleep(50 * time.Millisecond) // a0's reply is in, a1's is held

	check := func(role string, group string, replies []core.Reply, want string) {
		t.Helper()
		if got := repliers(replies); got != want {
			t.Errorf("%s answered by %q, want %s", role, got, want)
		}
		for _, r := range replies {
			if want := group + "@" + string(r.Server); string(r.Payload) != want {
				t.Errorf("%s: %s answered %q, want %q", role, r.Server, r.Payload, want)
			}
		}
	}
	replies, err := asRM.Call(ctxT(t, 10*time.Second), "m", nil, opts...)
	if err != nil {
		t.Fatalf("open call on b through p: %v", err)
	}
	check("open call on b through p", "b", replies, "b1,p")
	close(releaseC)
	check("p's open call on c", "c", <-openDone, "c0,c1")
	close(releaseA)
	check("p's closed call on a", "a", <-closedDone, "a0,a1")
}
