package main

// metricDef describes one reported metric. The end-to-end list and the
// per-layer list below are the benchmark's contract: BENCHMARK.json repeats
// them (TestCatalogueMatchesBenchmarkJSON keeps the two in step), -compare
// reads the bounds from here, and README.md's interaction table is the
// Moves column.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the baseline
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd are the metrics a user of the invocation service sees. Each is
// reported by every workload and is never zero. fail_ratio is deliberately
// not here: it is zero on every accepted run, so it travels as the result's
// attempted/failed pair and as a printed line instead. The time-based bounds
// are the widest the driver admits: the shared bench host slows by a fifth
// or more for minutes at a time (README.md, "Noise"), and a run that is
// noisy from end to end reads low whatever the estimator. allocs_per_op does
// not depend on the host's speed and keeps a bound that catches a small
// regression.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesCore  = "allocs_per_op, then ops_per_s on open_majority, closed_all, pipeline_async; p50_ms on open_majority_paced; none on peer_symmetric"
	movesOrder = "ops_per_s, p50_ms on peer_symmetric, open_majority, closed_all; write_p50_ms (not p50_ms) on read_mix"
	movesRead  = "ops_per_s, p50_ms on read_mix only"
	movesNet   = "ops_per_s on pipeline_async, peer_symmetric; p50_ms on open_majority_paced"
	movesNone  = "none (diagnostic)"
)

// perLayer are the traced pass's metrics, one layer (module) per prefix.
// They carry no bound: they explain an end-to-end movement, they do not
// gate one.
var perLayer = []metricDef{
	// tcpnet, in situ.
	{Name: "tcpnet.frames_per_op", Unit: "count", Better: "lower", Moves: movesNet},
	{Name: "tcpnet.bytes_per_op", Unit: "count", Better: "lower", Moves: movesNet},
	{Name: "tcpnet.send_ns_per_frame", Unit: "ns", Better: "lower", Moves: movesNet},
	{Name: "tcpnet.frames_per_flush", Unit: "count", Better: "higher", Moves: "ops_per_s on pipeline_async up; must not raise p50_ms on open_majority_paced"},
	{Name: "tcpnet.sendq_highwater", Unit: "count", Better: "lower", Moves: movesNone},
	{Name: "tcpnet.drops", Unit: "count", Better: "lower", Moves: "fail ratio everywhere (must stay 0)"},
	// gcs, in situ.
	{Name: "gcs.app_msgs_per_op", Unit: "count", Better: "lower", Moves: movesOrder},
	{Name: "gcs.null_msgs_per_op", Unit: "count", Better: "lower", Moves: movesOrder},
	{Name: "gcs.batch_size", Unit: "count", Better: "higher", Moves: "ops_per_s on pipeline_async up; must not raise p50_ms on open_majority_paced"},
	{Name: "gcs.resent", Unit: "count", Better: "lower", Moves: movesNone},
	{Name: "gcs.views_installed", Unit: "count", Better: "lower", Moves: "must be 0 inside the window"},
	{Name: "gcs.queue_wait_us_p50", Unit: "us", Better: "lower", Moves: movesOrder},
	{Name: "gcs.wire_us_p50", Unit: "us", Better: "lower", Moves: movesNet},
	{Name: "gcs.order_wait_us_p50", Unit: "us", Better: "lower", Moves: movesOrder},
	{Name: "gcs.spread_us_p50", Unit: "us", Better: "lower", Moves: "p50_ms on closed_all, peer_symmetric (wait for the last member)"},
	{Name: "gcs.dispatch_wait_us_p50", Unit: "us", Better: "lower", Moves: movesOrder},
	{Name: "gcs.lease_rejects", Unit: "count", Better: "lower", Moves: movesRead},
	{Name: "gcs.local_reads_per_op", Unit: "count", Better: "higher", Moves: movesRead},
	{Name: "gcs.journal_dropped", Unit: "count", Better: "lower", Moves: "none (completeness of the journal the gcs stage metrics come from)"},
	// orb and core, in situ.
	{Name: "orb.requests_per_op", Unit: "count", Better: "lower", Moves: movesCore},
	{Name: "orb.dispatch_us_p50", Unit: "us", Better: "lower", Moves: movesCore},
	{Name: "core.exec_us_p50", Unit: "us", Better: "lower", Moves: movesCore},
	{Name: "core.read_us_p50", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "core.rm_relays_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s, p50_ms on open_majority only; none on closed_all"},
	{Name: "core.reads_refused", Unit: "count", Better: "lower", Moves: movesRead},
	{Name: "core.invoke_async_us_p50", Unit: "us", Better: "lower", Moves: movesCore},
	{Name: "core.unattributed_us_p50", Unit: "us", Better: "lower", Moves: "none; the observability-unification item must drive it to ~0"},
	// shard (the servant), in situ.
	{Name: "shard.exec_ns_per_op", Unit: "ns", Better: "lower", Moves: "none: the servant is <1% of a call"},
	{Name: "shard.execs_per_write", Unit: "count", Better: "lower", Moves: "must be 3.0 (exactly once per replica)"},
	// runtime, process, generator.
	{Name: "go.alloc_bytes_per_op", Unit: "count", Better: "lower", Moves: movesCore},
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "ops_per_s on the CPU-saturated workloads"},
	{Name: "go.goroutines_peak", Unit: "count", Better: "lower", Moves: movesNone},
	// CPU per operation was specified as an end-to-end metric and demoted by
	// the benchmark's own rule: on open_majority_paced, where the process is
	// mostly idle, it comes out in two modes a third apart from run to run
	// (README.md, "Noise"). On the saturated workloads it is cpu_util over
	// ops_per_s and adds nothing ops_per_s does not gate already.
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "ops_per_s on the CPU-saturated workloads (all but open_majority_paced)"},
	{Name: "proc.ctxsw_per_op", Unit: "count", Better: "lower", Moves: "proc.cpu_us_per_op, p50_ms on open_majority_paced"},
	{Name: "proc.cpu_util", Unit: "cores", Better: "lower", Moves: "when ~nproc, CPU saved is ops_per_s gained"},
	{Name: "proc.sys_cpu_frac", Unit: "ratio", Better: "lower", Moves: movesNet},
	{Name: "gen.late_us_p90", Unit: "us", Better: "lower", Moves: "validity of open_majority_paced: must stay below half its p50_ms"},
	{Name: "tail.p99_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "tail.p999_ms", Unit: "ms", Better: "lower", Moves: movesNone},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none (1 - traced/plain ops_per_s)"},
	// The layer ladder: each layer's public API driven in isolation.
	{Name: "wire.roundtrip_ns", Unit: "ns", Better: "lower", Moves: movesNet},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower", Moves: "allocs_per_op everywhere"},
	{Name: "tcpnet.rtt_us_p50", Unit: "us", Better: "lower", Moves: "p50_ms on open_majority_paced (on the blocking path several times per call)"},
	{Name: "tcpnet.allocs_per_frame", Unit: "count", Better: "lower", Moves: "allocs_per_op everywhere"},
	{Name: "tcpnet.stream_frames_per_s", Unit: "1/s", Better: "higher", Moves: "ops_per_s on pipeline_async, peer_symmetric"},
	{Name: "orb.invoke_us_p50", Unit: "us", Better: "lower", Moves: "p50_ms on read_mix, closed_all"},
	{Name: "orb.allocs_per_call", Unit: "count", Better: "lower", Moves: "allocs_per_op on read_mix, closed_all"},
	{Name: "gcs.seq_deliver_us_p50", Unit: "us", Better: "lower", Moves: movesOrder},
	{Name: "gcs.seq_allocs_per_msg", Unit: "count", Better: "lower", Moves: "allocs_per_op on every core workload"},
	{Name: "gcs.sym_deliver_us_p50", Unit: "us", Better: "lower", Moves: "p50_ms on peer_symmetric"},
	{Name: "gcs.sym_allocs_per_msg", Unit: "count", Better: "lower", Moves: "allocs_per_op on peer_symmetric"},
	{Name: "gcs.read_index_us_p50", Unit: "us", Better: "lower", Moves: movesRead},
	{Name: "gcs.lease_read_ns", Unit: "ns", Better: "lower", Moves: movesRead},
	{Name: "shard.store_put_ns", Unit: "ns", Better: "lower", Moves: "none: the servant is <1% of a call"},
	{Name: "shard.ring_owner_ns", Unit: "ns", Better: "lower", Moves: movesNone},
	{Name: "core.call_first_us_p50", Unit: "us", Better: "lower", Moves: movesCore},
	{Name: "core.allocs_per_call_first", Unit: "count", Better: "lower", Moves: movesCore},
}

// metricValue is one reported number in the result's JSON form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the result map for a list of definitions from measured
// values; a definition with no measured value reports 0 (a layer the
// workload does not use).
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
