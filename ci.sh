#!/bin/sh
# ci.sh — the checks a change must pass before merging.
#
#   ./ci.sh              # gofmt, vet, lint, build, tests, then the same tests under -race
#   CI_SHORT=1 ./ci.sh   # skip the race pass (quick pre-push loop)
#
# The race pass is the slow half; it exists because every layer of this
# stack is concurrent (transport pumps, gcs event loops, the ORB's receive
# loop and its fallback goroutines, the metrics registry) and plain tests will happily miss an
# unsynchronised counter. newtop-lint is the protocol-aware static pass:
# wire encode/decode symmetry, no pooled writer used after it is recycled,
# no blocking under event-loop mutexes, no wall clock in ordering
# decisions, recurring timers only on the shared wheel, no orphaned
# goroutines and no silently dropped send errors (see README "Static
# analysis"). Allocation budgets are runtime guards, the "alloc budgets"
# stage below.
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

echo "== newtop-lint =="
go run ./cmd/newtop-lint ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

# Allocation budgets for the protocol hot paths: the multicast→deliver
# cycle, wire encode/decode, the pooled writer, the TCP transport's
# enqueue/flush and pooled-read paths, the flight recorder (which must
# journal an event with zero allocations), the leased local read and its
# whole round trip, the ORB's inline two-way call, memnet's idle-link
# send (so the memnet-based guards measure the product, not the simulator),
# the KV servant's overwrite of an existing key and the shard router's
# key lookup. These are the repo's only allocation guard: DESIGN.md §13
# records which of them fires for each known regression.
# A regression back to per-message maps, per-attempt sorting, per-encode
# buffers, per-frame read buffers or a channel and goroutine per call fails
# here long before it would show up in a benchmark.
echo "== alloc budgets =="
go test -run AllocGuard ./internal/gcs/ ./internal/core/ ./internal/orb/ ./internal/wire/ ./internal/transport/tcpnet/ ./internal/transport/memnet/ ./internal/obs/flight/ ./internal/shard/
# The two structural guards of the sequence windows ride along: the
# sequencer's ordering table stays bounded by the in-flight window, and
# stability collection costs what it collects, not what is retained.
go test -run 'OrderTableBounded|CompactionCost' ./internal/gcs/

# The two decoders every inbound frame meets, under the fuzzer: no input may
# panic them, and a list count the frame cannot hold must fail the decode
# (the seeds include such frames). Ten seconds each on top of the seed
# corpus that go test runs anyway.
echo "== decoder fuzz =="
go test -run '^$' -fuzz '^FuzzDecodeMessage$' -fuzztime=10s ./internal/gcs/
go test -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime=10s ./internal/core/

# The server half of an invocation, ten times over: the request manager's
# one path under every policy with its crash sweep, state transfer, the
# retry repairs of a lost reply and a lost answer, the reply fan-in's
# routing and message counts, the session floor wait, the stage journal,
# a binding's zero goroutine cost and its release when the client crashes,
# the dispatch stage's consumer contract, and the view changes that
# group-to-group invocation rides on (a proposal that overtakes the
# previous view's commit is held, or resent, not lost), the joins and binds
# that return when their view installs, and the traffic of a new view held
# until it installs. So do exactly-once's pins: an async-forward primary
# is the server group's sequencer and relays before it runs and answers
# (a relay sent only at the sequencer, a non-sequencer request manager
# serving the call as a collected one), a primary whose own relays come
# back more than 4,096 calls late runs none of them again, a later call's
# floor never overtakes an earlier async-forward relay — answered or
# abandoned — a retry below its client's floor is refused, by the client
# and wherever a late copy is served, a request's floor never refuses its
# own call, and a reused collection takes no late reply for the call it
# served before. A test here that fails one run in ten is a protocol bug
# until shown otherwise.
echo "== server path repeats =="
go test -count=10 -run 'RMCrashAtEveryPipelineStage|Joiner|LostDirectReply|LostAnswer|RouteByRole|OpenCallCosts|RMCrashMidCollect|SessionReadsOwnWrites|OneEventPerFact|BindingsCostNoGoroutine|LateConsumer|ClientCrashReleases|GroupToGroupFiltersDuplicates|TracePropagationGroupToGroup|ProposalThatOvertakesTheCommit|EarlyTrafficIsHeld|JoinReturnsWhenItsViewInstalls|BindReturnsAtItsViewInstall|PrimaryRunsNothingWhenItsRelaysComeBackLate|AsyncForwardForwardsBeforeItAnswers|AsyncForwardThroughANonSequencerIsCollected|MulticastAsSequencerSendsOnlyAtTheSequencer|AsyncForwardFloorWaitsFor|StaleRetry|StaleRequestIsRefusedWhereItIsServed|RequestFloorNeverPassesItsOwnCall|EngineHoldsAnAbandonedAsyncCall|ReusedCollectionRefusesTheOldCallsReplies' ./internal/core/ ./internal/gcs/
# The two that a join returning at its install exposed: a joiner's
# exactly-once at the join cut, and a read pool taken from a contact that
# has just joined. Fifty runs each.
go test -count=50 -run 'TestJoinerNeverReexecutesWhatItsSnapshotCovers|TestSessionReadsOwnWritesUnderConcurrentManagers' ./internal/core/

# Every group is consumed on the dispatch stage, so the handoffs between
# an ordering decision, its worker and the invocation layer cross
# goroutines, and every worker decodes through its service's one intern
# table: the race detector sees them even when the full race pass below
# is skipped. The outbound ownership contract rides along: every transport
# and Multicast copy what they keep, so a sender recycles its buffer while
# the bytes are still in flight, and the race detector would see a send
# that kept the caller's buffer instead. So does the ORB's: a read answered
# on the receive loop, one handed back to a goroutine while the execution
# mutex is held, and the pending-call slots that calls reuse, late replies
# and Close racing them; and the window slots a binding's calls reuse — the
# signal its synchronous calls wait on, with a caller that gives up before
# its answer arrives, and the storage its closed calls gather in, with a
# reply that comes too late. So do a binding's hooks on its callers'
# contexts, one per context, shared by that context's calls, ended by it,
# by Close or by the last call's end, and the pooled signals an Await parks
# on, with a waiter that gives up as its call completes. So does the flight
# journal every stage above records into: more writers than Ps, each on its
# P's segment, against a reader merging the segments.
echo "== dispatch handoffs under -race =="
go test -race -count=5 -run 'DispatchPool|LateConsumer|BindingsCostNoGoroutine|InvokerConformance|RMCrashAtEveryPipelineStage|InternTable|SendCopiesPayload|MulticastCopiesPayload|LeasedReadsSpawnNoGoroutine|ReadFallsOffTheLoop|SyncCallSlot|ClosedCallSlot|ContextHook|Await|RecordConcurrent' ./internal/gcs/ ./internal/core/ ./internal/transport/ ./internal/obs/flight/
go test -race -count=5 ./internal/orb/

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
# transports can't — framing, redial, write batching.
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
