package namesvc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/namesvc"
	"newtop/internal/netsim"
	"newtop/internal/rsm"
	"newtop/internal/transport/memnet"
)

func timers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 250 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   400 * time.Millisecond,
		Tick:           2 * time.Millisecond,
	}
}

// world: a 2-replica naming group, a 2-replica application group, and a
// client that bootstraps via the naming service.
type world struct {
	net *memnet.Net
}

func (w *world) service(t *testing.T, id ids.ProcessID) *core.Service {
	t.Helper()
	ep, err := w.net.Endpoint(id, netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(ep)
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

func setup(t *testing.T) (*world, *namesvc.Client, *core.Service) {
	t.Helper()
	w := &world{net: memnet.New(netsim.New(netsim.FastProfile(), 77))}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)

	// Naming group, two replicas.
	var contact ids.ProcessID
	var reps []*rsm.Replica
	for i := 0; i < 2; i++ {
		id := ids.ProcessID(fmt.Sprintf("ns%d", i))
		svc := w.service(t, id)
		rep, err := rsm.Serve(ctx, svc, rsm.Config{Group: "naming", Contact: contact, GCS: timers()}, namesvc.NewRegistry())
		if err != nil {
			t.Fatalf("naming replica %d: %v", i, err)
		}
		reps = append(reps, rep)
		if i == 0 {
			contact = id
		}
	}
	// A client learns the membership from the replica it dials; wait until
	// every replica's roster is complete, not just the founder's.
	for _, rep := range reps {
		for len(rep.Roster()) != len(reps) {
			if ctx.Err() != nil {
				t.Fatalf("roster never converged: %v", rep.Roster())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	clientSvc := w.service(t, "client")
	nc, err := namesvc.Dial(ctx, clientSvc, rsm.Config{Group: "naming", Contact: "ns0", GCS: timers()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return w, nc, clientSvc
}

func TestRegisterLookupList(t *testing.T) {
	_, nc, _ := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	ref := core.GroupRef{Group: "calc", Members: []ids.ProcessID{"a", "b", "c"}}
	if err := nc.Register(ctx, "services/calc", ref); err != nil {
		t.Fatalf("register: %v", err)
	}
	got, err := nc.Lookup(ctx, "services/calc")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if got.Group != "calc" || got.Primary() != "a" || len(got.Members) != 3 {
		t.Fatalf("lookup returned %v", got)
	}

	if err := nc.Register(ctx, "services/other", core.GroupRef{Group: "o", Members: []ids.ProcessID{"x"}}); err != nil {
		t.Fatal(err)
	}
	names, err := nc.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "services/calc" || names[1] != "services/other" {
		t.Fatalf("list = %v", names)
	}

	if err := nc.Unregister(ctx, "services/calc"); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Lookup(ctx, "services/calc"); err == nil {
		t.Fatal("lookup after unregister must fail")
	}
	// Unregister is idempotent.
	if err := nc.Unregister(ctx, "services/calc"); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnboundFails(t *testing.T) {
	_, nc, _ := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := nc.Lookup(ctx, "nope"); err == nil {
		t.Fatal("unbound lookup must error")
	}
}

func TestBadReferenceRejected(t *testing.T) {
	reg := namesvc.NewRegistry()
	// Direct machine-level checks for malformed input.
	if _, err := reg.Apply([]byte{99}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := reg.Query([]byte{99}); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestRegistrySnapshotRoundTrip(t *testing.T) {
	a := namesvc.NewRegistry()
	ref := core.GroupRef{Group: "g", Members: []ids.ProcessID{"m1", "m2"}}
	cmd := registerCmd(t, "one", ref)
	if _, err := a.Apply(cmd); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := namesvc.NewRegistry()
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	out, err := b.Query(lookupQuery(t, "one"))
	if err != nil {
		t.Fatalf("restored registry lookup: %v", err)
	}
	got, err := core.DecodeGroupRef(out)
	if err != nil || got.Group != "g" {
		t.Fatalf("restored ref %v err %v", got, err)
	}
	if err := b.Restore([]byte{0xff, 0xff}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestEndToEndBootstrap registers a live application group and dials it
// purely through the naming service.
func TestEndToEndBootstrap(t *testing.T) {
	w, nc, clientSvc := setup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Second)
	defer cancel()

	// An application server group.
	var contact ids.ProcessID
	for i := 0; i < 2; i++ {
		id := ids.ProcessID(fmt.Sprintf("app%d", i))
		svc := w.service(t, id)
		if _, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "echo",
			Contact: contact,
			Handler: func(method string, args []byte) ([]byte, error) { return args, nil },
			GCS:     timers(),
		}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			contact = id
		}
	}

	// A member publishes the group's reference.
	ref, err := clientSvc.GroupRefOf(ctx, "app0", "echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.Register(ctx, "services/echo", ref); err != nil {
		t.Fatal(err)
	}

	// A client resolves by name and invokes.
	resolved, err := nc.Lookup(ctx, "services/echo")
	if err != nil {
		t.Fatal(err)
	}
	p, err := clientSvc.DialRef(ctx, resolved, core.BindConfig{GCS: timers()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	replies, err := p.Call(ctx, "echo", []byte("bootstrap"), core.WithMode(core.All))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 || string(replies[0].Payload) != "bootstrap" {
		t.Fatalf("replies %+v", replies)
	}
}

func registerCmd(t *testing.T, name string, ref core.GroupRef) []byte {
	t.Helper()
	// Mirror of the client encoding (opRegister = 1).
	out := []byte{1}
	out = appendString(out, name)
	enc := ref.Encode()
	out = appendUvarint(out, uint64(len(enc)))
	out = append(out, enc...)
	return out
}

func lookupQuery(t *testing.T, name string) []byte {
	t.Helper()
	out := []byte{1} // qLookup = 1
	out = appendString(out, name)
	return out
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
