package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

// Goroutine headroom allowed over the pre-creation baseline once every
// idle group has parked. The delivery engine's promise is O(1) timer and
// dispatch goroutines per *process*: a wheel goroutine, a bounded worker
// pool and the transport loops all predate group creation, so the delta
// attributable to 10k groups must be near zero. The slack absorbs GC
// workers and netsim delivery goroutines that come and go.
const manyGroupsGoroutineCeiling = 32

// Per-sweep budget for the wheel's collect phase while the node holds the
// full group population. A sweep walks one wheel slot plus the cascade
// levels; with the idle population parked it must not scale with the
// number of groups.
const manyGroupsSweepBudget = 250 * time.Microsecond

// runManyGroups benchmarks the delivery engine at group-count scale: one
// process hosting sc.Groups mostly-idle event-driven groups plus a small
// hot subset doing real multicast traffic. The old engine spent one
// ticker goroutine per group (10k groups = 10k goroutines and 10k timer
// wakeups per tick period); the shared wheel parks idle groups with zero
// scheduled work, so the experiment asserts the goroutine count stays
// O(1) in the group population and the wheel's sweep cost stays flat
// while the hot subset keeps ordinary throughput.
func runManyGroups(ctx context.Context, sc Scale) (*Result, error) {
	idleN := sc.Groups
	if idleN <= 0 {
		idleN = 10000
	}
	hotN := 16
	if idleN < 1024 {
		hotN = 8
	}
	msgs := sc.PeerMessages
	if msgs <= 0 {
		msgs = 50
	}

	sim := netsim.New(netsim.FastProfile(), sc.Seed)
	net := memnet.New(sim)
	oA, oB := obs.New(), obs.New()
	epA, err := net.Endpoint("mg-a", netsim.SiteLAN)
	if err != nil {
		return nil, err
	}
	epB, err := net.Endpoint("mg-b", netsim.SiteLAN)
	if err != nil {
		return nil, err
	}
	nodeA := gcs.NewNodeObs(epA, oA)
	nodeB := gcs.NewNodeObs(epB, oB)
	defer nodeB.Close()
	defer nodeA.Close()

	// Baseline after the nodes exist: the wheel goroutine, dispatch
	// workers and transport loops are per-process cost, charged before
	// any group is created.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	baseGoroutines := runtime.NumGoroutine()

	// The idle population: single-member, event-driven, no leases — each
	// group ticks once after creation, finds itself quiescent and parks
	// off the wheel entirely.
	idleCfg := gcs.GroupConfig{
		Liveness: gcs.EventDriven,
		Tick:     2 * time.Millisecond,
	}
	createStart := time.Now()
	for i := 0; i < idleN; i++ {
		if _, err := nodeA.Create(ids.GroupID(fmt.Sprintf("idle/%05d", i)), idleCfg); err != nil {
			return nil, fmt.Errorf("creating idle group %d: %w", i, err)
		}
	}
	createDur := time.Since(createStart)

	// Wait for the whole population to park (each needs one 2ms tick;
	// the wheel batches them through shared sweeps).
	idleGauge := oA.Reg.Gauge("gcs_groups_idle")
	parkDeadline := time.Now().Add(30 * time.Second)
	for idleGauge.Value() < int64(idleN) {
		if time.Now().After(parkDeadline) {
			return nil, fmt.Errorf("parking stalled: %d/%d groups idle after 30s", idleGauge.Value(), idleN)
		}
		time.Sleep(5 * time.Millisecond)
	}
	parkDur := time.Since(createStart)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	idleGoroutines := runtime.NumGoroutine()
	gorDelta := idleGoroutines - baseGoroutines
	if gorDelta > manyGroupsGoroutineCeiling {
		return nil, fmt.Errorf("goroutine count scales with groups: %d over baseline for %d idle groups (ceiling %d)",
			gorDelta, idleN, manyGroupsGoroutineCeiling)
	}
	heapPerGroup := 0.0
	if after.HeapAlloc > before.HeapAlloc {
		heapPerGroup = float64(after.HeapAlloc-before.HeapAlloc) / float64(idleN)
	}
	depthIdle, sweeps1, nanos1 := nodeA.WheelStats()

	// The hot subset: two-member groups spanning both nodes, symmetric
	// order, real multicast traffic with both sides draining deliveries.
	// They share the wheel and the dispatch pool with the parked 10k.
	hotCfg := gcs.GroupConfig{
		Liveness: gcs.EventDriven,
		Tick:     2 * time.Millisecond,
	}
	payload := make([]byte, 64)
	errc := make(chan error, hotN*2)
	hotStart := time.Now()
	for i := 0; i < hotN; i++ {
		gid := ids.GroupID(fmt.Sprintf("hot/%03d", i))
		gA, err := nodeA.Create(gid, hotCfg)
		if err != nil {
			return nil, fmt.Errorf("creating hot group %s: %w", gid, err)
		}
		jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		gB, err := nodeB.Join(jctx, gid, "mg-a", hotCfg)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("joining hot group %s: %w", gid, err)
		}
		go manyGroupsDrain(gA, msgs, errc)
		go manyGroupsDrain(gB, msgs, errc)
		go func() {
			for m := 0; m < msgs; m++ {
				if err := gA.Multicast(ctx, payload); err != nil {
					errc <- fmt.Errorf("multicast %s: %w", gid, err)
					return
				}
			}
		}()
	}
	for i := 0; i < hotN*2; i++ {
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	hotDur := time.Since(hotStart)
	hotRate := float64(hotN*msgs) / hotDur.Seconds()

	depthHot, sweeps2, nanos2 := nodeA.WheelStats()
	nsPerSweep := 0.0
	if sweeps2 > sweeps1 {
		nsPerSweep = float64(nanos2-nanos1) / float64(sweeps2-sweeps1)
	}
	if nsPerSweep > float64(manyGroupsSweepBudget.Nanoseconds()) {
		return nil, fmt.Errorf("wheel sweep cost %0.f ns exceeds the %v budget with %d parked groups",
			nsPerSweep, manyGroupsSweepBudget, idleN)
	}

	res := &Result{
		ID: "manygroups",
		Expectation: "goroutine count and wheel sweep cost are O(1) in the group population: " +
			"10k parked event-driven groups add no timer goroutines and the hot subset keeps ordinary throughput",
		Metrics: map[string]float64{
			"idle_groups":            float64(idleN),
			"hot_groups":             float64(hotN),
			"messages_per_hot_group": float64(msgs),
			"goroutines_baseline":    float64(baseGoroutines),
			"goroutines_idle":        float64(idleGoroutines),
			"goroutine_delta":        float64(gorDelta),
			"heap_bytes_per_group":   heapPerGroup,
			"wheel_depth_idle":       float64(depthIdle),
			"wheel_depth_hot":        float64(depthHot),
			"wheel_ns_per_sweep":     nsPerSweep,
			"create_ms":              ms(createDur),
			"park_ms":                ms(parkDur),
			"hot_msg_per_sec":        hotRate,
		},
	}
	res.Tables = []Table{{
		Title: fmt.Sprintf("delivery engine at scale: %d idle + %d hot groups, one process", idleN, hotN),
		Header: []string{"idle groups", "goroutine delta", "heap B/group", "wheel depth (idle)",
			"ns/sweep (hot phase)", "park (ms)", "hot msg/s"},
		Rows: [][]string{{
			fmt.Sprint(idleN), fmt.Sprint(gorDelta), fmtF(heapPerGroup), fmt.Sprint(depthIdle),
			fmtF(nsPerSweep), fmtMS(parkDur), fmtF(hotRate),
		}},
	}}
	return res, nil
}

// manyGroupsDrain consumes one hot group's event stream until `want`
// deliveries arrive, reporting the outcome on errc.
func manyGroupsDrain(g *gcs.Group, want int, errc chan<- error) {
	timer := time.NewTimer(60 * time.Second)
	defer timer.Stop()
	got := 0
	for {
		select {
		case ev, ok := <-g.Events():
			if !ok {
				errc <- fmt.Errorf("events channel closed after %d/%d deliveries", got, want)
				return
			}
			if ev.Type == gcs.EventDeliver {
				if got++; got == want {
					errc <- nil
					return
				}
			}
		case <-timer.C:
			errc <- fmt.Errorf("drain timed out at %d/%d deliveries", got, want)
			return
		}
	}
}
