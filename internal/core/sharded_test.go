package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/lint/leakcheck"
	"newtop/internal/netsim"
	"newtop/internal/shard"
	"newtop/internal/transport/memnet"
)

// shardTimers is testTimers with the lease-read path enabled, so the
// router's Read surface is exercisable.
func shardTimers() gcs.GroupConfig {
	cfg := testTimers()
	cfg.LeaseTicks = 50
	return cfg
}

// shardWorld is a fixture hosting a sharded fabric: nShards server groups
// of nReplicas each, every replica a separate process, each group serving
// a shard.Store servant, plus one client process.
type shardWorld struct {
	t      *testing.T
	net    *memnet.Net
	ctx    context.Context
	cancel context.CancelFunc
	svcs   []*core.Service
	specs  []core.ShardSpec
	stores map[string][]*shard.Store // shard name → its replicas' stores
	client *core.Service
}

func newShardWorld(t *testing.T, nShards, nReplicas int) *shardWorld {
	t.Helper()
	leakcheck.Check(t)
	w := &shardWorld{
		t:      t,
		net:    memnet.New(netsim.New(netsim.FastProfile(), 7)),
		stores: make(map[string][]*shard.Store),
	}
	w.ctx, w.cancel = context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(w.cancel)
	for i := 0; i < nShards; i++ {
		w.specs = append(w.specs, w.addShardGroup(fmt.Sprintf("kv/s%d", i), nReplicas))
	}
	ep, err := w.net.Endpoint("z-client", netsim.SiteLAN)
	if err != nil {
		t.Fatalf("client endpoint: %v", err)
	}
	w.client = core.NewService(ep)
	t.Cleanup(func() { _ = w.client.Close() })
	return w
}

// addShardGroup spins up one shard: nReplicas processes serving one group
// named after the shard.
func (w *shardWorld) addShardGroup(name string, nReplicas int) core.ShardSpec {
	w.t.Helper()
	gid := ids.GroupID(name)
	var contact ids.ProcessID
	var srvs []*core.Server
	for r := 0; r < nReplicas; r++ {
		id := ids.ProcessID(fmt.Sprintf("%s-r%d", name, r))
		ep, err := w.net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			w.t.Fatalf("endpoint %s: %v", id, err)
		}
		svc := core.NewService(ep)
		w.svcs = append(w.svcs, svc)
		w.t.Cleanup(func() { _ = svc.Close() })
		st := shard.NewStore(name)
		w.stores[name] = append(w.stores[name], st)
		srv, err := svc.Serve(w.ctx, core.ServeConfig{
			Group:    gid,
			Contact:  contact,
			Handler:  st.Handle,
			Snapshot: st.Snapshot,
			Restore:  st.Restore,
			GCS:      shardTimers(),
		})
		if err != nil {
			w.t.Fatalf("serve %s: %v", id, err)
		}
		srvs = append(srvs, srv)
		if r == 0 {
			contact = id
		}
	}
	return core.ShardSpec{Name: name, Group: gid, Contact: contact}
}

func (w *shardWorld) bind(cfg core.ShardConfig) *core.ShardedBinding {
	w.t.Helper()
	cfg.Shards = w.specs
	if cfg.Bind.GCS.Tick == 0 {
		cfg.Bind = core.BindConfig{Style: core.Open, Restricted: true, GCS: testTimers()}
	}
	sb, err := w.client.BindSharded(w.ctx, cfg)
	if err != nil {
		w.t.Fatalf("BindSharded: %v", err)
	}
	w.t.Cleanup(func() { _ = sb.Close() })
	return sb
}

// totalKeys sums key counts across one replica of every shard.
func (w *shardWorld) totalKeys(names ...string) int {
	n := 0
	for _, name := range names {
		n += w.stores[name][0].Len()
	}
	return n
}

// TestShardedRouting writes a keyspace through the router and checks
// every key landed at exactly the ring owner's group — on all replicas —
// and reads route back correctly.
func TestShardedRouting(t *testing.T) {
	w := newShardWorld(t, 3, 2)
	sb := w.bind(core.ShardConfig{RingSeed: 1})

	const keys = 60
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%02d", i)
		if _, err := sb.Call(w.ctx, "put", []byte(k+"=v"+k), core.WithMode(core.All)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}

	ring := sb.Ring()
	if ring.Size() != 3 {
		t.Fatalf("ring size %d", ring.Size())
	}
	placed := 0
	for _, spec := range w.specs {
		for _, st := range w.stores[spec.Name] {
			if st.Len() != w.stores[spec.Name][0].Len() {
				t.Fatalf("replica divergence in %s", spec.Name)
			}
		}
		placed += w.stores[spec.Name][0].Len()
	}
	if placed != keys {
		t.Fatalf("placed %d keys, wrote %d", placed, keys)
	}
	// Spot-check ownership and the read path.
	for i := 0; i < keys; i += 7 {
		k := fmt.Sprintf("k%02d", i)
		owner := ring.Owner(k)
		got, err := sb.Shard(owner).Call(w.ctx, "get", []byte(k))
		if err != nil || string(got[0].Payload) != "v"+k {
			t.Fatalf("key %s not at owner %s: %v %q", k, owner, err, got)
		}
		v, err := sb.Read(w.ctx, "get", []byte(k))
		if err != nil || string(v) != "v"+k {
			t.Fatalf("sharded read %s: %v %q", k, err, v)
		}
	}
	// Args without '=' route whole: a "len" naming k00 reaches k00's
	// shard, whose servant ignores the args.
	reply, err := sb.Call(w.ctx, "len", []byte("k00"))
	if err != nil {
		t.Fatalf("len routed on k00: %v", err)
	}
	want := fmt.Sprint(w.stores[ring.Owner("k00")][0].Len())
	if string(reply[0].Payload) != want {
		t.Fatalf("len = %s, want %s", reply[0].Payload, want)
	}

	// Per-shard session stamps: the stamp map covers every shard we wrote
	// through.
	stamps := sb.SessionStamps()
	if len(stamps) != 3 {
		t.Fatalf("session stamps for %d shards", len(stamps))
	}
}

// TestShardedAsyncPipelines checks InvokeAsync routes and pipelines per
// shard. The puts wait for every replica: the keys are counted at one
// replica of each shard, which a wait-for-first call need not have reached
// yet when it completes (13 red in 400 with the default mode).
func TestShardedAsyncPipelines(t *testing.T) {
	w := newShardWorld(t, 2, 2)
	sb := w.bind(core.ShardConfig{RingSeed: 2})

	var calls []*core.Call
	const n = 40
	for i := 0; i < n; i++ {
		c, err := sb.InvokeAsync(w.ctx, "put", []byte(fmt.Sprintf("a%02d=x", i)), core.WithMode(core.All))
		if err != nil {
			t.Fatalf("async put %d: %v", i, err)
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		if _, err := c.Await(w.ctx); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
	}
	if got := w.totalKeys("kv/s0", "kv/s1"); got != n {
		t.Fatalf("total keys %d, want %d", got, n)
	}
}

// TestCallAll fans one invocation out to every shard.
func TestCallAll(t *testing.T) {
	w := newShardWorld(t, 3, 1)
	sb := w.bind(core.ShardConfig{RingSeed: 3})
	for i := 0; i < 30; i++ {
		if _, err := sb.Call(w.ctx, "put", []byte(fmt.Sprintf("c%02d=1", i))); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	out, err := sb.CallAll(w.ctx, "len", nil)
	if err != nil {
		t.Fatalf("CallAll: %v", err)
	}
	total := 0
	for name, replies := range out {
		var n int
		fmt.Sscan(string(replies[0].Payload), &n)
		if n != w.stores[name][0].Len() {
			t.Fatalf("shard %s len mismatch", name)
		}
		total += n
	}
	if total != 30 {
		t.Fatalf("aggregate len %d", total)
	}
}

// TestAddShardMigration grows a 2-shard fabric to 3 and checks only the
// moved ranges migrated, nothing was lost, and routing serves every key
// at its new owner.
func TestAddShardMigration(t *testing.T) {
	w := newShardWorld(t, 2, 2)
	sb := w.bind(core.ShardConfig{RingSeed: 4})

	const keys = 80
	for i := 0; i < keys; i++ {
		if _, err := sb.Call(w.ctx, "put", []byte(fmt.Sprintf("m%03d=v%d", i, i)), core.WithMode(core.All)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	oldRing := sb.Ring()

	// Start the third shard's group and migrate onto it.
	spec := w.addShardGroup("kv/s2", 2)
	if err := sb.AddShard(w.ctx, spec); err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	newRing := sb.Ring()
	if !newRing.Contains("kv/s2") {
		t.Fatal("ring did not grow")
	}

	moved, kept := 0, 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("m%03d", i)
		if oldRing.Owner(k) != newRing.Owner(k) {
			if newRing.Owner(k) != "kv/s2" {
				t.Fatalf("key %s moved to %s, not the new shard", k, newRing.Owner(k))
			}
			moved++
		} else {
			kept++
		}
		// Every key must read back through the router at full value.
		v, err := sb.Read(w.ctx, "get", []byte(k))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-migration read %s: %v %q", k, err, v)
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved — migration untested")
	}
	if kept == 0 {
		t.Fatal("all keys moved — not a minimal migration")
	}
	// The new shard's replicas hold exactly the moved keys; donors dropped
	// theirs (replicas agree since drop is an ordered invocation).
	for _, st := range w.stores["kv/s2"] {
		if st.Len() != moved {
			t.Fatalf("new shard holds %d keys, want %d", st.Len(), moved)
		}
	}
	if got := w.totalKeys("kv/s0", "kv/s1", "kv/s2"); got != keys {
		t.Fatalf("total keys after migration %d, want %d", got, keys)
	}
}

// TestShardedErrors covers the router's failure surface.
func TestShardedErrors(t *testing.T) {
	w := newShardWorld(t, 2, 1)
	sb := w.bind(core.ShardConfig{RingSeed: 6})
	if err := sb.AddShard(w.ctx, w.specs[0]); err == nil {
		t.Fatal("duplicate AddShard should refuse")
	}
	if _, err := w.client.BindSharded(w.ctx, core.ShardConfig{}); err == nil {
		t.Fatal("empty shard list should refuse")
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := sb.Call(w.ctx, "put", []byte("x=y")); err == nil {
		t.Fatal("call after close should refuse")
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
