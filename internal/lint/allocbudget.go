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
		{Entry: "newtop/internal/gcs.(*Group).Multicast", Max: 39, Note: "application send path: batch, emit, encode, transport handoff"},
		{Entry: "newtop/internal/gcs.(*Node).dispatch", Max: 102, Note: "ingest path: decode, accept, order, deliver tail"},
		{Entry: "newtop/internal/gcs.encodeFramed", Max: 8, Note: "wire encode of one protocol envelope behind the node's frame header"},
		{Entry: "newtop/internal/gcs.decodeMessage", Max: 28, Note: "wire decode of one protocol envelope"},
		{Entry: "newtop/internal/transport.(*muxChannel).SendFrame", Max: 3, Note: "mux send of a pre-framed buffer: no copy, no allocation per destination"},
		{Entry: "newtop/internal/transport/tcpnet.(*Endpoint).Send", Max: 48, Note: "transport enqueue onto the per-peer pipe"},
		{Entry: "newtop/internal/transport/tcpnet.(*pipe).run", Max: 38, Note: "writer pipeline: coalesce, frame, flush"},
		{Entry: "newtop/internal/transport/tcpnet.(*Endpoint).readLoop", Max: 22, Note: "reader: frame split, arena carve, inbound handoff"},
		{Entry: "newtop/internal/obs/flight.(*Recorder).Record", Max: 3, Note: "flight-recorder event append"},
		{Entry: "newtop/internal/core.(*Server).serveReadLocal", Max: 20, Note: "leased local read: lease check, session floor, handler run, reply"},
		{Entry: "newtop/internal/core.(*Server).execute", Max: 51, Note: "replica's half of the reply fan-in: execute once, answer the request manager with one ORB one-way"},
		{Entry: "newtop/internal/core.(*Server).collectReply", Max: 47, Note: "request manager's half: file one direct reply; the one that completes the quorum builds the reply set and answers it, one-way to an open binding's client or multicast in a monitor group (44 with the multicast alone: +3 for the one-way branch's group-name bytes, frame send and args writer)"},
		{Entry: "newtop/internal/core.(*Server).serveAsRM", Max: 59, Note: "request manager, every policy: retry filters, receive, relay into the server group, gather or execute first, answer one-way or, in a monitor group, by multicast (56 with the multicast alone: +3 for the one-way branch, as collectReply)"},
		{Entry: "newtop/internal/core.(*engine).launch", Max: 62, Note: "client's half of a call, every shape: admit, file in the table, encode and multicast the request (with the completions it can run itself); was 73 with the span tracer's store and note strings behind every completion"},
		{Entry: "newtop/internal/core.(*Call).finish", Max: 2, Note: "completing a call: the one epilogue (table, window slot, attention, histogram, the client.invoke stage event); was 14 with the span tracer"},
		{Entry: "newtop/internal/shard.(*Ring).OwnerBytes", Max: 0, Note: "sharded routing: per-invocation key->shard lookup must not allocate"},
	}
}
