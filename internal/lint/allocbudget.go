package lint

// This file is the checked-in static allocation-budget manifest the
// allocflow analyzer enforces (ci.sh "static alloc budgets" stage). Each
// entry names one hot-path entry point and the maximum number of
// unsuppressed allocation sites that may be statically reachable from it.
//
// The numbers are ceilings on *sites in the source*, not allocations per
// operation: static analysis walks every branch, including cold ones
// (view installation, flush, resend), so a budget here is always well
// above the runtime AllocGuard budgets — the cross-check test in
// internal/gcs asserts exactly that ordering. What the manifest buys is
// regression detection: a new composite literal, boxing conversion or
// growing append anywhere in an entry point's call closure pushes the
// count over its ceiling and fails CI with the offending sites listed.
//
// Raising a budget is allowed but must be deliberate: prefer annotating
// the specific cold-path site with //lint:ok allocflow <reason>, which
// discounts it from every entry, and keep the ceilings tight around the
// counts the current code produces.

// AllocBudget is one entry-point ceiling.
type AllocBudget struct {
	Entry string // pkg.Func, pkg.(*T).Method or pkg.T.Method
	Max   int    // maximum unsuppressed reachable allocation sites
	Note  string // which hot-path stage this entry guards
}

// DefaultAllocBudgets returns the manifest for the real module.
func DefaultAllocBudgets() []AllocBudget {
	return []AllocBudget{
		{Entry: "newtop/internal/gcs.(*Group).Multicast", Max: 37, Note: "application send path: copy the payload into the group's arena, batch, emit, encode into a pooled writer, transport handoff (39 with the frame detached)"},
		{Entry: "newtop/internal/gcs.(*Node).dispatch", Max: 99, Note: "ingest path: decode, accept, order, deliver tail; ordering decisions decode into and are announced from a message's inline block, spilling to the heap past maxInlineAssigns"},
		{Entry: "newtop/internal/gcs.encodeFramed", Max: 4, Note: "wire encode of one protocol envelope behind the node's frame header, into a pooled writer the caller recycles after the send (8 with the frame detached)"},
		{Entry: "newtop/internal/gcs.decodeMessage", Max: 25, Note: "wire decode of one protocol envelope; every count-prefixed list fails the reader when the frame cannot hold it"},
		{Entry: "newtop/internal/transport.(*muxChannel).SendFrame", Max: 3, Note: "mux send of a pre-framed buffer: no copy, no allocation per destination"},
		{Entry: "newtop/internal/transport/tcpnet.(*Endpoint).Send", Max: 40, Note: "transport enqueue: copy the frame onto the per-peer queue buffer (48 with a ring of retained payloads)"},
		{Entry: "newtop/internal/transport/tcpnet.(*pipe).run", Max: 29, Note: "writer pipeline: swap the queue buffer for the spare, one write (38 with the vectored write's batch, header and net.Buffers scratch)"},
		{Entry: "newtop/internal/transport/tcpnet.(*Endpoint).readLoop", Max: 19, Note: "reader: frame split, arena carve, inbound handoff"},
		{Entry: "newtop/internal/obs/flight.(*Recorder).Record", Max: 3, Note: "flight-recorder event append"},
		{Entry: "newtop/internal/core.(*Server).serveReadLocal", Max: 9, Note: "leased local read: lease check, session floor, handler run, reply into the caller's storage (13 with the reply on the heap)"},
		{Entry: "newtop/internal/core.(*Service).readInline", Max: 24, Note: "leased read on the ORB's receive loop: decode (identifiers interned), TryLock, covered floor, lease check, handler run, reply written into the reply frame; TestAllocGuardReadRoundTrip measures the whole round trip at 0.0 allocs/op"},
		{Entry: "newtop/internal/orb.(*ORB).Invoke", Max: 9, Note: "two-way call: a pending slot from the free list, the request encoded into a pooled frame, the wait (a channel per call before)"},
		{Entry: "newtop/internal/orb.(*ORB).dispatch", Max: 20, Note: "receive loop: one-way sinks and two-way handlers inline, a servant's goroutine only as the fallback, replies into their callers' slots"},
		{Entry: "newtop/internal/core.(*Server).execute", Max: 51, Note: "replica's half of the reply fan-in: execute once, answer the request manager with one ORB one-way (51 before the collection became one allocation); +2 for the two chunk refills of the payload arena Multicast copies into, reached through a monitor group's reply-set multicast, while TestAllocGuardForwardedReply fell 1.0 → 0.0 allocs/op with the frames sent from pooled writers"},
		{Entry: "newtop/internal/core.(*Server).collectReply", Max: 47, Note: "request manager's half: file one direct reply; the one that completes the quorum builds the reply set and answers it, one-way to an open binding's client or multicast in a monitor group (44 with the multicast alone: +3 for the one-way branch's group-name bytes, frame send and args writer); the reply set is the collection's own (47 with it allocated at conclude); +2 for the payload arena's chunk refills behind Multicast, while TestAllocGuardCollectReply fell 2.0 → 1.0 allocs/op"},
		{Entry: "newtop/internal/core.(*Server).serveAsRM", Max: 55, Note: "request manager, every policy: retry filters, receive, relay into the server group, gather or execute first, answer one-way or, in a monitor group, by multicast (56 with the multicast alone: +3 for the one-way branch, as collectReply); one allocation per collection, no deadline timer or closure, a primary's set with its reply inline (58 before); +2 for the payload arena's chunk refills behind Multicast, while TestAllocGuardRequestManager fell 5.0 → 2.0 allocs/op with the relayed request and every frame sent from pooled writers"},
		{Entry: "newtop/internal/core.(*engine).launch", Max: 60, Note: "client's half of a call, every shape: admit, file in the table, encode and multicast the request (with the completions it can run itself); was 73 with the span tracer's store and note strings behind every completion, 62 with reply sets converted to Reply values after decoding; +1: the payload arena's two chunk refills behind Multicast, less the request's Detach, while TestAllocGuardInvoke fell 5.0 → 3.0 (open First) and 10.0 → 8.0 (closed All) allocs/op"},
		{Entry: "newtop/internal/core.(*Call).finish", Max: 2, Note: "completing a call: the one epilogue (table, window slot, attention, histogram, the client.invoke stage event); was 14 with the span tracer"},
		{Entry: "newtop/internal/shard.(*Ring).OwnerBytes", Max: 0, Note: "sharded routing: per-invocation key->shard lookup must not allocate"},
	}
}
