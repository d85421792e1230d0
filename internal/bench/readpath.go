package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/netsim"
	"newtop/internal/obs/flight"
)

// runReadPath measures what the lease-based read path buys on a read-heavy
// workload: a 3-replica LAN server group under a 95/5 read/write mix, once
// with reads served as leased local reads (rotating across replicas, never
// entering the ordering layer) and once with every read pushed through the
// ordered invocation path like any write. The leased mix must clear the
// acceptance floor — at least readPathFloor× the ordered mix's aggregate
// read throughput — and the run's flight journal must show no leased read
// served past its staleness bound (flight.CheckLeases).
func runReadPath(ctx context.Context, sc Scale) (*Result, error) {
	readPct := sc.ReadPct
	if readPct <= 0 || readPct >= 100 {
		readPct = 95
	}
	cfg := readPathConfig{
		seed:     sc.Seed,
		nClients: maxCount(sc.ClientCounts, 8),
		ops:      4 * sc.Requests,
		readPct:  readPct,
	}

	leased, err := runReadPathPoint(ctx, cfg, true)
	if err != nil {
		return nil, fmt.Errorf("leased mix: %w", err)
	}
	ordered, err := runReadPathPoint(ctx, cfg, false)
	if err != nil {
		return nil, fmt.Errorf("ordered mix: %w", err)
	}

	speedup := 0.0
	if ordered.readPerSec > 0 {
		speedup = leased.readPerSec / ordered.readPerSec
	}
	tbl := Table{
		Title: fmt.Sprintf("read path, 3 replicas on the lan, %d clients, %d/%d read/write mix",
			cfg.nClients, readPct, 100-readPct),
		Header: []string{"read path", "reads/s", "read lat (ms)", "write lat (ms)", "local reads", "max lease age/bound (ticks)"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"leased local", fmtF(leased.readPerSec), fmtMS(leased.readLat), fmtMS(leased.writeLat),
			fmt.Sprint(leased.lease.LocalReads), fmt.Sprintf("%d/%d", leased.lease.MaxAgeTicks, leased.lease.BoundTicks)},
		[]string{"all ordered", fmtF(ordered.readPerSec), fmtMS(ordered.readLat), fmtMS(ordered.writeLat), "0", "-"},
		[]string{"speedup", fmtF(speedup) + "x", "", "", "", ""},
	)
	res := &Result{
		ID:          "readpath",
		Expectation: fmt.Sprintf("leased local reads sustain at least %.0fx the read throughput of the all-ordered loop on a read-heavy mix, with every served read inside its staleness bound", readPathFloor),
		Tables:      []Table{tbl},
		Metrics: map[string]float64{
			"clients":               float64(cfg.nClients),
			"read_pct":              float64(readPct),
			"leased_reads_per_sec":  leased.readPerSec,
			"ordered_reads_per_sec": ordered.readPerSec,
			"read_speedup":          speedup,
			"leased_read_lat_ms":    ms(leased.readLat),
			"ordered_read_lat_ms":   ms(ordered.readLat),
			"leased_write_lat_ms":   ms(leased.writeLat),
			"ordered_write_lat_ms":  ms(ordered.writeLat),
			"leased_local_reads":    float64(leased.lease.LocalReads),
			"leased_max_age_ticks":  float64(leased.lease.MaxAgeTicks),
			"leased_bound_ticks":    float64(leased.lease.BoundTicks),
			"lease_grants":          float64(leased.lease.Grants),
			"lease_expiries":        float64(leased.lease.Expiries),
		},
	}
	if speedup < readPathFloor {
		return nil, fmt.Errorf("read path speedup %.1fx below the %.0fx acceptance floor (leased %.1f reads/s vs ordered %.1f)",
			speedup, readPathFloor, leased.readPerSec, ordered.readPerSec)
	}
	return res, nil
}

// readPathFloor is the acceptance bound: the leased read path must deliver
// at least this multiple of the all-ordered read throughput.
const readPathFloor = 5.0

type readPathConfig struct {
	seed     int64
	nClients int
	ops      int // per client
	readPct  int
}

type readPathPoint struct {
	readPerSec        float64
	readLat, writeLat time.Duration
	lease             flight.LeaseReport
}

// runReadPathPoint runs one mix. leasedReads selects the read path: leased
// local reads via Binding.Read, or ordered Calls (wait-for-first, the
// cheapest ordered acknowledgement) — writes always go through the
// ordering layer with a majority acknowledgement.
func runReadPathPoint(ctx context.Context, cfg readPathConfig, leasedReads bool) (readPathPoint, error) {
	envCfg := EnvConfig{
		Profile:  netsim.EvalProfile(),
		Seed:     cfg.seed,
		Place:    PlacementLAN,
		NServers: 3,
		NClients: cfg.nClients,
	}
	if leasedReads {
		// 25 ticks of the 40ms eval tick: a 1s staleness bound, renewed by
		// the 120ms time-silence nulls on an otherwise idle group.
		envCfg.LeaseTicks = 25
	}
	env, err := NewEnv(ctx, envCfg)
	if err != nil {
		return readPathPoint{}, err
	}
	defer env.Close()

	// Every write is a k%writeEvery slot, spreading the 100-readPct write
	// share evenly through each client's loop.
	writeEvery := 100 / (100 - cfg.readPct)

	bindings := make([]*core.Binding, cfg.nClients)
	for i, client := range env.Clients {
		bc := bindConfigFor(RRConfig{Variant: VariantOpen}, env)
		// Rotate leased reads across the replicas well within a measured
		// run, so the read load spreads instead of pinning the contact.
		bc.ReadRenew = 50 * time.Millisecond
		b, err := client.Bind(ctx, bc)
		if err != nil {
			return readPathPoint{}, err
		}
		defer b.Close()
		bindings[i] = b
	}

	// Warm-up: a write and a read per client steadies the protocol (and,
	// on the leased run, lets the first grants land).
	for _, b := range bindings {
		if _, err := b.Call(ctx, "rand", nil, core.WithMode(core.Majority)); err != nil {
			return readPathPoint{}, fmt.Errorf("warm-up write: %w", err)
		}
		if err := doRead(ctx, b, leasedReads); err != nil {
			return readPathPoint{}, fmt.Errorf("warm-up read: %w", err)
		}
	}

	jr := beginJournalOf(env.Obs.Flight)
	var (
		mu                sync.Mutex
		readDur, writeDur time.Duration
		reads, writes     int
		firstErr          error
		wg                sync.WaitGroup
	)
	start := time.Now()
	for _, b := range bindings {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rDur, wDur time.Duration
			r, w := 0, 0
			for k := 0; k < cfg.ops; k++ {
				t0 := time.Now()
				var err error
				if k%writeEvery == 0 {
					err = doWrite(ctx, b)
					wDur += time.Since(t0)
					w++
				} else {
					err = doRead(ctx, b, leasedReads)
					rDur += time.Since(t0)
					r++
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			readDur += rDur
			writeDur += wDur
			reads += r
			writes += w
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return readPathPoint{}, firstErr
	}
	if reads == 0 || writes == 0 {
		return readPathPoint{}, fmt.Errorf("degenerate mix: %d reads, %d writes", reads, writes)
	}

	// The journal invariants over exactly this run's window: a leased read
	// served past its bound, or a call launched and never completed (or
	// completed twice), fails the experiment outright. The stall floor is
	// the evaluation time scale's, as for the shards experiment.
	if _, err := jr.finishWith("readpath", true, flight.StallConfig{MinAge: 3 * time.Second}); err != nil {
		return readPathPoint{}, err
	}
	events, _ := jr.rec.Since(jr.start)
	return readPathPoint{
		readPerSec: float64(reads) / elapsed.Seconds(),
		readLat:    readDur / time.Duration(reads),
		writeLat:   writeDur / time.Duration(writes),
		lease:      flight.LeaseSummary(events),
	}, nil
}

func doWrite(ctx context.Context, b *core.Binding) error {
	_, err := b.Call(ctx, "rand", nil, core.WithMode(core.Majority))
	return err
}

func doRead(ctx context.Context, b *core.Binding, leased bool) error {
	if leased {
		_, err := b.Read(ctx, "rand", nil)
		return err
	}
	_, err := b.Call(ctx, "rand", nil, core.WithMode(core.First))
	return err
}
