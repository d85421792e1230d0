// Replicated key-value store, grown into the sharded object-group fabric.
//
// Act 1 — one closed group (the paper's fig. 3(i)): a client joins a
// client/server group with three replicas, writes with wait-for-all, and
// a mid-run crash is masked by the view change with no rebinding.
//
// Act 2 — scale-out: the same store sharded across 3 independent server
// groups of 3 replicas each behind one consistent-hash router
// (core.BindSharded). A 1200-key mixed read/write workload routes by key;
// each shard totally orders only its own traffic, so throughput scales
// with shards while per-key ordering and read-your-writes are preserved.
//
// Act 3 — elasticity: a fourth shard group is started and AddShard
// migrates exactly the keys the grown ring reassigns (export → install →
// drop, all as ordered invocations), then a replica of one shard is
// crashed to show each shard group still masks failures independently.
//
//	go run ./examples/replicated-kv
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/shard"
	"newtop/internal/transport/memnet"
)

// kvStore is the act-1 replicated object: a map mutated strictly in
// delivery order, so all replicas stay identical. The sharded acts use
// shard.Store, which adds the migration methods.
type kvStore struct {
	mu sync.Mutex
	m  map[string]string
}

func (kv *kvStore) handle(method string, args []byte) ([]byte, error) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	switch method {
	case "put": // args: "key=value"
		k, v, ok := strings.Cut(string(args), "=")
		if !ok {
			return nil, fmt.Errorf("bad put %q", args)
		}
		kv.m[k] = v
		return []byte("ok"), nil
	case "get":
		return []byte(kv.m[string(args)]), nil
	case "len":
		return []byte(fmt.Sprint(len(kv.m))), nil
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

func timers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    10 * time.Millisecond,
		SuspectTimeout: 150 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   300 * time.Millisecond,
		Tick:           5 * time.Millisecond,
		// LeaseTicks turns on the read path: the sequencer grants every
		// replica a 20-tick (100ms) read lease, and leased reads are served
		// from the replica's own executed prefix — no ordered multicast.
		LeaseTicks: 20,
	}
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the three acts on an in-memory network and prints what
// happened to out; it fails if any claim the output makes does not hold.
func run(ctx context.Context, out io.Writer) error {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))

	if err := closedGroupAct(ctx, net, out); err != nil {
		return err
	}
	return shardedActs(ctx, net, out)
}

// closedGroupAct is the original demo: active replication through one
// closed group, with a crash masked mid-run.
func closedGroupAct(ctx context.Context, net *memnet.Net, out io.Writer) error {
	fmt.Fprintln(out, "=== act 1: one closed group, crash masked ===")
	var contact ids.ProcessID
	for i := 0; i < 3; i++ {
		id := ids.ProcessID(fmt.Sprintf("replica-%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			return err
		}
		svc := core.NewService(ep)
		defer svc.Close()
		store := &kvStore{m: make(map[string]string)}
		if _, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "kv",
			Contact: contact,
			Handler: store.handle,
			GCS:     timers(),
		}); err != nil {
			return err
		}
		if i == 0 {
			contact = id
		}
	}

	cep, err := net.Endpoint("z-closed", netsim.SiteLAN)
	if err != nil {
		return err
	}
	client := core.NewService(cep)
	defer client.Close()

	binding, err := client.Bind(ctx, core.BindConfig{
		ServerGroup: "kv",
		Contact:     contact,
		Style:       core.Closed, // client becomes a member alongside all replicas
		GCS:         timers(),
	})
	if err != nil {
		return err
	}
	defer binding.Close()
	if n := len(binding.Servers()); n != 3 {
		return fmt.Errorf("closed binding formed with %d replicas, want 3", n)
	}
	fmt.Fprintf(out, "closed binding formed with replicas %v\n", binding.Servers())

	if _, err := binding.Call(ctx, "put", []byte("colour=teal"), core.WithMode(core.All)); err != nil {
		return err
	}
	v, err := binding.Read(ctx, "get", []byte("colour"))
	if err != nil {
		return err
	}
	if string(v) != "teal" {
		return fmt.Errorf("leased read -> %q, want %q", v, "teal")
	}
	fmt.Fprintf(out, "put colour=teal; leased read -> %q (session %v)\n", v, binding.SessionStamp())

	victim := binding.Servers()[len(binding.Servers())-1]
	fmt.Fprintf(out, "*** crashing %s ***\n", victim)
	net.Sim().Crash(victim)
	replies, err := binding.Call(ctx, "put", []byte("after-crash=still-works"), core.WithMode(core.All))
	if err != nil {
		return err
	}
	// A wait-for-all call counts the live servers, so it returns only once
	// the view without the victim is installed.
	if len(replies) != 2 {
		return fmt.Errorf("write after crash: %d replies, want 2", len(replies))
	}
	fmt.Fprintf(out, "write after crash acknowledged by %d replicas; membership now %v\n\n", len(replies), binding.Servers())
	return nil
}

// startShard launches nReplicas fresh processes serving one shard group
// and returns the group's contact.
func startShard(ctx context.Context, net *memnet.Net, name string, nReplicas int, closers *[]*core.Service) (ids.ProcessID, error) {
	var contact ids.ProcessID
	short := strings.TrimPrefix(name, "kv/")
	for r := 0; r < nReplicas; r++ {
		id := ids.ProcessID(fmt.Sprintf("%s-r%d", short, r))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			return "", err
		}
		svc := core.NewService(ep)
		*closers = append(*closers, svc)
		st := shard.NewStore(name)
		if _, err := svc.Serve(ctx, core.ServeConfig{
			Group:    ids.GroupID(name),
			Contact:  contact,
			Handler:  st.Handle,
			Snapshot: st.Snapshot,
			Restore:  st.Restore,
			GCS:      timers(),
		}); err != nil {
			return "", err
		}
		if r == 0 {
			contact = id
		}
	}
	return contact, nil
}

// shardedActs runs the fabric: 3 shards x 3 replicas, a mixed workload,
// then live expansion to 4 shards and an independent per-shard crash.
func shardedActs(ctx context.Context, net *memnet.Net, out io.Writer) error {
	fmt.Fprintln(out, "=== act 2: sharded fabric, 3 shards x 3 replicas ===")
	var closers []*core.Service
	defer func() {
		for _, c := range closers {
			_ = c.Close()
		}
	}()

	const ringSeed = 42
	cfg := core.ShardConfig{
		RingSeed: ringSeed,
		Bind:     core.BindConfig{Style: core.Open, GCS: timers()},
	}
	for k := 0; k < 3; k++ {
		name := fmt.Sprintf("kv/s%d", k)
		contact, err := startShard(ctx, net, name, 3, &closers)
		if err != nil {
			return err
		}
		cfg.Shards = append(cfg.Shards, core.ShardSpec{Name: name, Group: ids.GroupID(name), Contact: contact})
	}

	cep, err := net.Endpoint("z-sharded", netsim.SiteLAN)
	if err != nil {
		return err
	}
	client := core.NewService(cep)
	closers = append(closers, client)
	router, err := client.BindSharded(ctx, cfg)
	if err != nil {
		return err
	}
	defer router.Close()
	fmt.Fprintf(out, "router bound to shards %v\n", router.Shards())

	// Mixed workload over a large keyspace: async write pipeline (each
	// write routes to its key's owner and is totally ordered only against
	// that shard's traffic) interleaved with leased reads.
	const keys = 1200
	t0 := time.Now()
	pending := make([]*core.Call, 0, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("user:%04d", i)
		c, err := router.InvokeAsync(ctx, "put", []byte(k+"=v"+fmt.Sprint(i)))
		if err != nil {
			return fmt.Errorf("put %s: %w", k, err)
		}
		pending = append(pending, c)
	}
	for _, c := range pending {
		if _, err := c.Await(ctx); err != nil {
			return err
		}
	}
	wrote := time.Since(t0)

	reads := 0
	for i := 0; i < keys; i += 7 {
		k := fmt.Sprintf("user:%04d", i)
		v, err := router.Read(ctx, "get", []byte(k))
		if err != nil {
			return fmt.Errorf("read %s: %w", k, err)
		}
		if string(v) != "v"+fmt.Sprint(i) {
			return fmt.Errorf("read %s -> %q, want %q", k, v, "v"+fmt.Sprint(i))
		}
		reads++
	}
	fmt.Fprintf(out, "%d writes in %s, %d leased reads verified (read-your-writes per shard)\n", keys, wrote.Round(time.Millisecond), reads)

	counts, err := shardLens(ctx, router)
	if err != nil {
		return err
	}
	if n := sum(counts); n != keys {
		return fmt.Errorf("placement holds %d keys, want %d", n, keys)
	}
	fmt.Fprintf(out, "placement: %v\n\n", counts)

	fmt.Fprintln(out, "=== act 3: live expansion to 4 shards + per-shard crash ===")
	newName := "kv/s3"
	contact, err := startShard(ctx, net, newName, 3, &closers)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := router.AddShard(ctx, core.ShardSpec{Name: newName, Group: ids.GroupID(newName), Contact: contact}); err != nil {
		return err
	}
	after, err := shardLens(ctx, router)
	if err != nil {
		return err
	}
	if total := sum(after); total != keys {
		return fmt.Errorf("keys lost in migration: %d != %d", total, keys)
	}
	fmt.Fprintf(out, "AddShard migrated ~1/4 of the keyspace in %s; placement now %v\n", time.Since(t0).Round(time.Millisecond), after)

	for i := 0; i < keys; i += 101 { // spot-check values across the new ring
		k := fmt.Sprintf("user:%04d", i)
		v, err := router.Read(ctx, "get", []byte(k))
		if err != nil || string(v) != "v"+fmt.Sprint(i) {
			return fmt.Errorf("post-migration read %s -> %q, %v", k, v, err)
		}
	}
	fmt.Fprintln(out, "post-migration spot reads all correct")

	// Crash one replica of s1: only that group reconfigures; the fabric
	// keeps serving and the shard itself masks the failure.
	victimKey := "user:0000"
	owner := router.Ring().Owner(victimKey)
	victim := ids.ProcessID(strings.TrimPrefix(owner, "kv/") + "-r2")
	fmt.Fprintf(out, "*** crashing %s (a replica of %s) ***\n", victim, owner)
	net.Sim().Crash(victim)
	if _, err := router.Call(ctx, "put", []byte(victimKey+"=rewritten"), core.WithMode(core.Majority)); err != nil {
		return err
	}
	// A read goes to one replica at a time. Right after the crash the first
	// may refuse (its lease lapsed), and the read moves on through the pool
	// its binding took at bind time, the crashed replica included: that one
	// never answers, and the binding passes it over after its group's
	// SuspectTimeout.
	v, err := router.Read(ctx, "get", []byte(victimKey))
	if err != nil || string(v) != "rewritten" {
		return fmt.Errorf("post-crash read -> %q, %v", v, err)
	}
	fmt.Fprintf(out, "write+read through %s succeeded with a replica down — failures stay shard-local\n", owner)
	return nil
}

// sum adds up a placement's key counts.
func sum(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// shardLens asks every shard group for its key count.
func shardLens(ctx context.Context, router *core.ShardedBinding) (map[string]int, error) {
	replies, err := router.CallAll(ctx, "len", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(replies))
	for name, rs := range replies {
		if len(rs) == 0 || rs[0].Err != nil {
			return nil, fmt.Errorf("len %s: %v", name, rs)
		}
		n := 0
		fmt.Sscan(string(rs[0].Payload), &n)
		out[name] = n
	}
	return out, nil
}
