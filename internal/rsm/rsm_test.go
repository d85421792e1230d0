package rsm_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/rsm"
	"newtop/internal/transport/memnet"
)

// counter is a tiny deterministic machine: Apply("+n") adds, Query reads.
// The value is atomic only so the tests can peek at replicas concurrently;
// the rsm host itself serializes all machine calls.
type counter struct {
	value atomic.Int64
}

func (c *counter) Apply(cmd []byte) ([]byte, error) {
	var delta int64
	if _, err := fmt.Sscanf(string(cmd), "+%d", &delta); err != nil {
		return nil, fmt.Errorf("bad command %q", cmd)
	}
	c.value.Add(delta)
	return c.encode(), nil
}

func (c *counter) Query([]byte) ([]byte, error) { return c.encode(), nil }

func (c *counter) Snapshot() ([]byte, error) { return c.encode(), nil }

func (c *counter) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("bad snapshot of %d bytes", len(b))
	}
	c.value.Store(int64(binary.BigEndian.Uint64(b)))
	return nil
}

func (c *counter) encode() []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(c.value.Load()))
	return out
}

func decode(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }

func timers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    5 * time.Millisecond,
		SuspectTimeout: 250 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   400 * time.Millisecond,
		Tick:           2 * time.Millisecond,
	}
}

type fixture struct {
	net      *memnet.Net
	services []*core.Service
	machines []*counter
	replicas []*rsm.Replica
}

func newFixture(t *testing.T, replicas int) *fixture {
	t.Helper()
	f := &fixture{net: memnet.New(netsim.New(netsim.FastProfile(), 31))}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var contact ids.ProcessID
	for i := 0; i < replicas; i++ {
		id := ids.ProcessID(fmt.Sprintf("r%02d", i))
		ep, err := f.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			t.Fatal(err)
		}
		svc := core.NewService(ep)
		t.Cleanup(func() { _ = svc.Close() })
		f.services = append(f.services, svc)
		m := &counter{}
		f.machines = append(f.machines, m)
		rep, err := rsm.Serve(ctx, svc, rsm.Config{Group: "ctr", Contact: contact, GCS: timers()}, m)
		if err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
		f.replicas = append(f.replicas, rep)
		if i == 0 {
			contact = id
		}
	}
	// A client learns the membership from the replica it dials; wait until
	// every replica's roster is complete, not just the founder's.
	deadline := time.Now().Add(10 * time.Second)
	for _, rep := range f.replicas {
		for len(rep.Roster()) != replicas {
			if time.Now().After(deadline) {
				t.Fatalf("roster never converged: %v", rep.Roster())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return f
}

func (f *fixture) client(t *testing.T) *rsm.Client {
	t.Helper()
	ep, err := f.net.Endpoint("client", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(ep)
	t.Cleanup(func() { _ = svc.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	c, err := rsm.Dial(ctx, svc, rsm.Config{Group: "ctr", Contact: "r00", GCS: timers()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestApplyReplicatesEverywhere(t *testing.T) {
	f := newFixture(t, 3)
	c := f.client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	want := int64(0)
	for i := int64(1); i <= 5; i++ {
		want += i
		out, err := c.Apply(ctx, []byte(fmt.Sprintf("+%d", i)))
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		if decode(out) != want {
			t.Fatalf("apply result %d, want %d", decode(out), want)
		}
	}
	// Every replica converges to the same value.
	deadline := time.Now().Add(10 * time.Second)
	for {
		same := true
		for _, m := range f.machines {
			if m.value.Load() != want {
				same = false
			}
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged: %d %d %d",
				f.machines[0].value.Load(), f.machines[1].value.Load(), f.machines[2].value.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	out, err := c.Query(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if decode(out) != want {
		t.Fatalf("query %d, want %d", decode(out), want)
	}
}

func TestJoinCatchesUp(t *testing.T) {
	f := newFixture(t, 2)
	c := f.client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 10; i++ {
		if _, err := c.Apply(ctx, []byte("+1")); err != nil {
			t.Fatal(err)
		}
	}

	// A new replica joins with state transfer.
	ep, err := f.net.Endpoint("r99", netsim.SiteLAN)
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewService(ep)
	t.Cleanup(func() { _ = svc.Close() })
	m := &counter{}
	rep, err := rsm.Join(ctx, svc, rsm.Config{Group: "ctr", Contact: "r01", GCS: timers()}, m)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	if v := m.value.Load(); v != 10 {
		t.Fatalf("joined replica at %d, want 10", v)
	}
	// Join guarantees the machine state is caught up, but the newcomer
	// learns the server roster from the members' hello re-announcements,
	// which arrive through the group after the snapshot transfer.
	rosterDeadline := time.Now().Add(10 * time.Second)
	for len(rep.Roster()) != 3 {
		if time.Now().After(rosterDeadline) {
			t.Fatalf("roster %v", rep.Roster())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Subsequent writes reach the newcomer too.
	if _, err := c.Apply(ctx, []byte("+5")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.value.Load() != 15 {
		if time.Now().After(deadline) {
			t.Fatalf("newcomer stuck at %d", m.value.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWritesSurviveMinorityCrash(t *testing.T) {
	f := newFixture(t, 3)
	c := f.client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Apply(ctx, []byte("+7")); err != nil {
		t.Fatal(err)
	}
	f.net.Sim().Crash("r02")
	out, err := c.Apply(ctx, []byte("+3"))
	if err != nil {
		t.Fatalf("apply after crash: %v", err)
	}
	if decode(out) != 10 {
		t.Fatalf("value %d, want 10", decode(out))
	}
}

func TestBadCommandSurfaces(t *testing.T) {
	f := newFixture(t, 2)
	c := f.client(t)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := c.Apply(ctx, []byte("garbage")); err == nil {
		t.Fatal("bad command must error")
	}
	// The machine must be unharmed.
	if _, err := c.Apply(ctx, []byte("+2")); err != nil {
		t.Fatal(err)
	}
}

func TestServeValidation(t *testing.T) {
	f := newFixture(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := rsm.Serve(ctx, f.services[0], rsm.Config{Group: "x"}, nil); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := rsm.Join(ctx, f.services[0], rsm.Config{Group: "x"}, &counter{}); err == nil {
		t.Fatal("join without contact accepted")
	}
}
