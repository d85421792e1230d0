#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh              # gofmt, vet, lint, build, tests, then the same tests under -race
#   CI_SHORT=1 ./ci.sh   # skip the race pass (quick pre-push loop)
#
# The race pass is the slow half; it exists because every layer of this
# stack is concurrent (transport pumps, gcs event loops, per-request ORB
# goroutines, the metrics registry) and plain tests will happily miss an
# unsynchronised counter. newtop-lint is the protocol-aware static pass:
# wire encode/decode symmetry, no blocking under event-loop mutexes, no
# wall clock in ordering decisions, no orphaned goroutines, no silently
# dropped send errors, and static per-entry-point allocation budgets over
# the hot-path call graph (see README "Static analysis").
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

if [ "${CI_SHORT:-0}" = "1" ]; then
	# One combined invocation: every rule (allocflow included) shares the
	# loader's type-checked package cache, so the quick loop pays the
	# standard-library source-import cost exactly once.
	echo "== newtop-lint (all rules, combined) =="
	go run ./cmd/newtop-lint ./...
else
	echo "== newtop-lint =="
	go run ./cmd/newtop-lint -rules wiresym,wirepool,lockblock,detclock,timerwheel,goorphan,errdrop ./...

	# Static allocation budgets: every hot-path entry point in the
	# internal/lint manifest must keep its reachable allocation-site count
	# under its ceiling (see DESIGN.md §13). A new composite literal,
	# boxing conversion or growing append anywhere in an entry point's
	# call closure fails here with the offending sites listed.
	echo "== static alloc budgets =="
	go run ./cmd/newtop-lint -rules allocflow ./...
fi

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

# Allocation budgets for the protocol hot paths: the multicast→deliver
# cycle, wire encode/decode, the pooled writer, the TCP transport's
# enqueue/flush and pooled-read paths, the flight recorder (which must
# journal an event with zero allocations), and the leased local read. A
# regression back to per-message maps, per-attempt sorting, per-encode
# buffers or per-frame read buffers fails here long before it would show
# up in a benchmark.
echo "== alloc budgets =="
go test -run AllocGuard ./internal/gcs/ ./internal/core/ ./internal/wire/ ./internal/transport/tcpnet/ ./internal/obs/flight/
# The two structural guards of the sequence windows ride along: the
# sequencer's ordering table stays bounded by the in-flight window, and
# stability collection costs what it collects, not what is retained.
go test -run 'OrderTableBounded|CompactionCost' ./internal/gcs/

# The server half of an invocation, ten times over: the request manager's
# one path under every policy with its crash sweep, state transfer, the
# retry repairs of a lost reply and a lost answer, the reply fan-in's
# routing and message counts, the session floor wait, the stage journal,
# a binding's zero goroutine cost and its release when the client crashes,
# and the dispatch stage's consumer contract. A test here that fails one
# run in ten is a protocol bug until shown otherwise.
echo "== server path repeats =="
go test -count=10 -run 'RMCrashAtEveryPipelineStage|Joiner|LostDirectReply|LostAnswer|RouteByRole|OpenCallCosts|RMCrashMidCollect|SessionReadsOwnWrites|OneEventPerFact|BindingsCostNoGoroutine|LateConsumer|ClientCrashReleases' ./internal/core/ ./internal/gcs/

# Every group is consumed on the dispatch stage, so the handoffs between
# an ordering decision, its worker and the invocation layer cross
# goroutines: the race detector sees them even when the full race pass
# below is skipped.
echo "== dispatch handoffs under -race =="
go test -race -count=5 -run 'DispatchPool|LateConsumer|BindingsCostNoGoroutine|InvokerConformance|RMCrashAtEveryPipelineStage' ./internal/gcs/ ./internal/core/

if [ "${CI_SHORT:-0}" = "1" ]; then
	echo "ci: CI_SHORT=1, skipping the race pass"
else
	echo "== go test -race =="
	# -p 1: the race pass is CPU-bound and the protocol tests are
	# timing-sensitive; running every package's tests concurrently on a
	# small box is pure oversubscription that starves members past their
	# suspicion windows. Serial packages cost nothing on one core.
	go test -race -p 1 ./...
fi

# Smoke the pipelined invocation path end to end: the async window plus
# sender-side batching must beat the serial loop (the table prints the
# measured speedup; the acceptance floor is 2x on the LAN placement).
echo "== pipeline smoke =="
go run ./cmd/newtop-bench -experiment pipeline -quick

# Smoke the real-socket transport the same way: a loopback TCP peer group
# over the writer-pipeline transport. Catches anything the in-memory
# transports can't — framing, redial, vectored-write batching.
echo "== tcpnet smoke =="
go run ./cmd/newtop-bench -experiment tcpnet -quick

# Journal invariants: replay the flight recorder's protocol journal from
# a quick hotpath run through the stall detector and the delivery-order
# verifier. Any diagnosed stall, ordering regression or (the window being
# complete) unexplained gap fails the stage.
echo "== journal invariants =="
go run ./cmd/newtop-bench -experiment hotpath -quick -journal-check

# Smoke the lease-based read path: the 95/5 read-heavy mix must clear the
# 5x read-throughput floor over the all-ordered loop, and the journal
# must show no leased read served past its staleness bound (both are
# enforced inside the experiment).
echo "== read path smoke =="
go run ./cmd/newtop-bench -experiment readpath -quick

# Smoke the sharded fabric: 1 vs 4 shard groups on loopback TCP must
# clear the 2.5x aggregate-throughput floor, with the per-shard
# delivery-order journal check on in-run (both enforced inside the
# experiment).
echo "== shards smoke =="
go run ./cmd/newtop-bench -experiment shards -quick

# Smoke the delivery engine at group-count scale: 512 idle event-driven
# groups plus a hot subset in one process. The goroutine ceiling (O(1)
# timer goroutines regardless of group count) and the wheel's per-sweep
# budget are enforced inside the experiment. The committed full-scale
# artifact is BENCH_manygroups.json (10k groups, -json run).
echo "== manygroups smoke =="
go run ./cmd/newtop-bench -experiment manygroups -quick

echo "ci: all checks passed"
