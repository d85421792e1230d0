package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload, plain and traced, and the layer ladder
// with one-second windows, so the benchmark itself cannot rot: every metric
// of the catalogue must come out and every correctness check must pass. It
// asserts nothing about speed.
//
// It is opt-in (BENCH_SMOKE=1) rather than part of a bare `go test ./...`:
// it saturates both cores for half a minute, and `go test` runs packages in
// parallel, where the timing-sensitive core and gcs tests (suspicion windows
// of a quarter second) already fail intermittently on this host without a
// CPU hog beside them.
func TestSmoke(t *testing.T) {
	if testing.Short() || os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1: builds thirty-odd worlds over loopback TCP and saturates the host for ~30 s")
	}
	const window = time.Second
	var ladder map[string]float64
	for _, wl := range workloads {
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		plain := runPlain(ctx, wl, 1, window)
		var traced *workloadResult
		traced, ladder = runTraced(ctx, wl, 1, window, ladder)
		cancel()

		for pass, res := range map[string]*workloadResult{"plain": plain, "traced": traced} {
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d problems=%q",
					wl.Name, pass, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
		}
		for _, d := range endToEnd {
			if v, ok := plain.Metrics[d.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be present and positive", wl.Name, d.Name, v.Value)
			}
		}
		for _, d := range perLayer {
			if _, ok := traced.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.Name, d.Name)
			}
		}
		if !wl.peer {
			if got := traced.Metrics["shard.execs_per_write"].Value; got != replicas {
				t.Errorf("%s: shard.execs_per_write = %v, want exactly %d", wl.Name, got, replicas)
			}
		}
	}
	for _, name := range []string{
		"wire.roundtrip_ns", "tcpnet.rtt_us_p50", "tcpnet.stream_frames_per_s", "orb.invoke_us_p50",
		"gcs.seq_deliver_us_p50", "gcs.sym_deliver_us_p50", "gcs.read_index_us_p50", "gcs.lease_read_ns",
		"shard.store_put_ns", "shard.ring_owner_ns", "core.call_first_us_p50", "core.allocs_per_call_first",
	} {
		if ladder[name] <= 0 {
			t.Errorf("ladder rung %s = %v, must be positive", name, ladder[name])
		}
	}
}
