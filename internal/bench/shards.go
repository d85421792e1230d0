package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs/flight"
	"newtop/internal/shard"
	"newtop/internal/transport/tcpnet"
)

// shardsFloor is the acceptance bound: 4 shards must deliver at least
// this multiple of the 1-shard aggregate ordered-write throughput (the
// committed BENCH_shards.json from a full run must show ≥3×).
const shardsFloor = 2.5

// shardReplicas is the replication degree of each shard group. Every
// shard gets its own disjoint replica trio: a gcs node ingests all of its
// groups through one receive loop, so co-hosting shards on shared
// processes would serialise exactly the work sharding exists to overlap.
const shardReplicas = 3

// shardClients is the number of client processes driving each point.
const shardClients = 2

// runShards benchmarks the sharded object-group fabric over real
// loopback TCP: N independent shard groups (disjoint replica trios, each
// a totally-ordered group with the evaluation's 2ms simulated service
// cost) behind ShardedBinding routers, swept over Scale.ShardCounts. One
// shard is the single-sequencer baseline every other point is judged
// against; the per-message service cost overlaps across shards, so
// aggregate ordered-write throughput must scale near-linearly. Every
// point runs the flight journal's stall detector and per-shard
// delivery-order verifier over its own window — order agreement within
// each shard group is part of the measurement, not a separate test.
func runShards(ctx context.Context, sc Scale) (*Result, error) {
	counts := sc.ShardCounts
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	opsPerShard := 8 * sc.Requests

	res := &Result{
		ID: "shards",
		Expectation: fmt.Sprintf("aggregate ordered-write throughput scales near-linearly with shard count (>=%.1fx at 4 shards vs 1); per-shard order agreement holds in every run",
			shardsFloor),
		Metrics: map[string]float64{
			"replicas_per_shard": shardReplicas,
			"clients":            shardClients,
			"ops_per_shard":      float64(opsPerShard),
			"ring_seed":          float64(sc.RingSeed),
		},
	}
	tbl := Table{
		Title:  fmt.Sprintf("sharded fabric on loopback tcp, %d replicas/shard, %d clients", shardReplicas, shardClients),
		Header: []string{"shards", "writes/s (aggregate)", "mean write lat (ms)", "allocs/msg", "leased reads ok", "speedup vs 1"},
	}

	base := 0.0
	for _, n := range counts {
		pt, err := runShardsPoint(ctx, sc, n, opsPerShard)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		speedup := 0.0
		if base == 0 {
			base = pt.writesPerSec
			speedup = 1
		} else if base > 0 {
			speedup = pt.writesPerSec / base
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(n), fmtF(pt.writesPerSec), fmtMS(pt.writeLat),
			fmtF(pt.allocsPerMsg), fmt.Sprint(pt.readsOK), fmtF(speedup) + "x",
		})
		pfx := fmt.Sprintf("shards_%d", n)
		res.Metrics[pfx+"_writes_per_sec"] = pt.writesPerSec
		res.Metrics[pfx+"_write_lat_ms"] = ms(pt.writeLat)
		res.Metrics[pfx+"_allocs_per_msg"] = pt.allocsPerMsg
		res.Metrics[pfx+"_speedup"] = speedup
		if n == 4 {
			res.Metrics["speedup_4_shards"] = speedup
			if speedup < shardsFloor {
				return nil, fmt.Errorf("4-shard speedup %.2fx below the %.1fx acceptance floor (%.1f writes/s vs %.1f at 1 shard)",
					speedup, shardsFloor, pt.writesPerSec, base)
			}
		}
	}
	res.Tables = []Table{tbl}
	return res, nil
}

type shardsPoint struct {
	writesPerSec float64
	writeLat     time.Duration
	allocsPerMsg float64
	readsOK      int
}

// shardsServerTimers configures one shard group: the evaluation timers
// (including the 2ms per-message simulated service cost that makes the
// single-group ceiling honest) plus read leases for the verification
// reads.
func shardsServerTimers() gcs.GroupConfig {
	t := evalTimers()
	t.Order = gcs.OrderSequencer
	t.LeaseTicks = 25
	return t
}

// shardsClientTimers configures the client/server binding groups: same
// time scale, no simulated service cost — the clients must not be the
// bottleneck being measured.
func shardsClientTimers() gcs.GroupConfig {
	t := evalTimers()
	t.ProcessingCost = 0
	return t
}

// runShardsPoint measures one shard count: build the fabric, pump
// opsPerShard pipelined ordered writes per shard (split across the client
// processes, keys pre-partitioned by the ring so load is exactly
// balanced), then read a sample back through the leased read path and
// verify the journal invariants over the point's window.
func runShardsPoint(ctx context.Context, sc Scale, nShards, opsPerShard int) (pt shardsPoint, err error) {
	var svcs []*core.Service
	defer func() {
		for _, s := range svcs {
			_ = s.Close()
		}
	}()

	// Endpoints: every process listens on an ephemeral loopback port and
	// learns every other's address (connections only form where traffic
	// flows: within each trio, and client↔replica).
	nProcs := nShards*shardReplicas + shardClients
	eps := make([]*tcpnet.Endpoint, 0, nProcs)
	procID := func(i int) ids.ProcessID {
		if i < nShards*shardReplicas {
			return ids.ProcessID(fmt.Sprintf("s%02d-r%d", i/shardReplicas, i%shardReplicas))
		}
		return ids.ProcessID(fmt.Sprintf("z%02d", i-nShards*shardReplicas))
	}
	for i := 0; i < nProcs; i++ {
		ep, lerr := tcpnet.Listen(procID(i), "127.0.0.1:0")
		if lerr != nil {
			for _, e := range eps {
				_ = e.Close()
			}
			return pt, lerr
		}
		eps = append(eps, ep)
	}
	for _, a := range eps {
		for _, b := range eps {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}

	// Shard groups: disjoint replica trios, each serving a shard.Store.
	specs := make([]core.ShardSpec, 0, nShards)
	serverTimers := shardsServerTimers()
	for s := 0; s < nShards; s++ {
		name := fmt.Sprintf("kv/s%d", s)
		var contact ids.ProcessID
		for r := 0; r < shardReplicas; r++ {
			svc := core.NewService(eps[s*shardReplicas+r])
			svcs = append(svcs, svc)
			st := shard.NewStore(name)
			_, serr := svc.Serve(ctx, core.ServeConfig{
				Group:    ids.GroupID(name),
				Contact:  contact,
				Handler:  st.Handle,
				Snapshot: st.Snapshot,
				Restore:  st.Restore,
				GCS:      serverTimers,
			})
			if serr != nil {
				return pt, fmt.Errorf("serve %s replica %d: %w", name, r, serr)
			}
			if r == 0 {
				contact = svc.ID()
			}
		}
		specs = append(specs, core.ShardSpec{Name: name, Group: ids.GroupID(name), Contact: contact})
	}
	// Client routers: one ShardedBinding per client process, pipelining
	// window 32 per shard.
	shardCfg := func() core.ShardConfig {
		return core.ShardConfig{
			Shards:   specs,
			RingSeed: sc.RingSeed,
			Bind: core.BindConfig{
				Style:        core.Open,
				Restricted:   true,
				AsyncForward: true,
				Window:       32,
				GCS:          shardsClientTimers(),
				ReadRenew:    100 * time.Millisecond,
			},
		}
	}
	routers := make([]*core.ShardedBinding, shardClients)
	for c := 0; c < shardClients; c++ {
		svc := core.NewService(eps[nShards*shardReplicas+c])
		svcs = append(svcs, svc)
		sb, berr := svc.BindSharded(ctx, shardCfg())
		if berr != nil {
			return pt, berr
		}
		defer sb.Close()
		routers[c] = sb
	}

	// Pre-partition the keyspace: for each shard, opsPerShard keys the
	// ring owns there, so every shard receives exactly the same load.
	ring := routers[0].Ring()
	keysByShard := make(map[string][]string, nShards)
	for i := 0; len(keysByShard) < nShards || shortest(keysByShard, nShards) < opsPerShard; i++ {
		k := fmt.Sprintf("k%07d", i)
		owner := ring.Owner(k)
		if len(keysByShard[owner]) < opsPerShard {
			keysByShard[owner] = append(keysByShard[owner], k)
		}
	}

	// Warm-up: one write per shard per client steadies every group and
	// pipeline before the timed window.
	for _, sb := range routers {
		for _, spec := range specs {
			if _, werr := sb.Call(ctx, "put", []byte(keysByShard[spec.Name][0]+"=warm")); werr != nil {
				return pt, fmt.Errorf("warm-up: %w", werr)
			}
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	jr := beginJournal()

	// The timed window: per client, one producer goroutine per shard
	// issuing its slice of that shard's keys through the pipelined async
	// path. Producers never cross shards, so a slow shard only stalls its
	// own keys (exactly the fabric's isolation claim).
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		writeDur time.Duration
		writes   int
	)
	start := time.Now()
	for c, sb := range routers {
		for _, spec := range specs {
			keys := keysByShard[spec.Name]
			lo, hi := c*len(keys)/shardClients, (c+1)*len(keys)/shardClients
			sb, slice := sb, keys[lo:hi]
			wg.Add(1)
			go func() {
				defer wg.Done()
				calls := make([]*core.Call, 0, len(slice))
				t0 := time.Now()
				for _, k := range slice {
					call, aerr := sb.InvokeAsync(ctx, "put", []byte(k+"=v"))
					if aerr != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = aerr
						}
						mu.Unlock()
						return
					}
					calls = append(calls, call)
				}
				for _, call := range calls {
					if _, werr := call.Await(ctx); werr != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = werr
						}
						mu.Unlock()
						return
					}
				}
				mu.Lock()
				writeDur += time.Since(t0)
				writes += len(slice)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return pt, firstErr
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// Order agreement within each shard group is an acceptance invariant
	// of every point, not an optional check: analyze the point's journal
	// window unconditionally. The stall floor is raised to the evaluation
	// time scale — a 32-deep pipeline over 2ms-per-message service cost
	// legitimately holds stability ~1s behind ingest at the sequencer.
	jcfg := flight.StallConfig{MinAge: 3 * time.Second}
	if _, jerr := jr.finishWith(fmt.Sprintf("shards/%d", nShards), true, jcfg); jerr != nil {
		return pt, jerr
	}

	// Verification reads: a leased read per shard per client, checked
	// against the written value — the mixed-traffic read path routed
	// through the same ring.
	readsOK := 0
	for _, sb := range routers {
		for _, spec := range specs {
			k := keysByShard[spec.Name][1]
			v, rerr := sb.Read(ctx, "get", []byte(k))
			if rerr != nil {
				return pt, fmt.Errorf("verify read %s: %w", k, rerr)
			}
			if string(v) != "v" {
				return pt, fmt.Errorf("verify read %s: got %q, want %q", k, v, "v")
			}
			readsOK++
		}
	}

	msgs := float64(writes)
	pt.writesPerSec = msgs / elapsed.Seconds()
	pt.writeLat = writeDur / time.Duration(writes)
	pt.allocsPerMsg = float64(after.Mallocs-before.Mallocs) / msgs
	pt.readsOK = readsOK
	return pt, nil
}

// shortest returns the smallest per-shard key count gathered so far (0
// until every shard appears).
func shortest(m map[string][]string, n int) int {
	if len(m) < n {
		return 0
	}
	min := int(^uint(0) >> 1)
	for _, ks := range m {
		if len(ks) < min {
			min = len(ks)
		}
	}
	return min
}
