package main

import (
	"context"
	"time"

	"newtop/internal/core"
)

// workload is one named traffic shape. The names are fixed: later issues
// cite them. Why is the one-line rationale BENCHMARK.json repeats.
type workload struct {
	Name string
	Why  string

	peer bool // gcs-only world (peer.go); everything below is for core worlds

	style        core.Style
	restricted   bool
	asyncForward bool
	mode         core.ReplyMode
	opts         []core.CallOption // WithMode(mode), built once: no per-call option allocation

	readsPerWrite int // closed loop: leased reads between consecutive writes
	rate          int // paced: calls per second over all clients (0: not paced)
	pipelined     bool

	// gcsHops and orbHops are how many ordered multicasts and point-to-point
	// orb invocations sit on one operation's blocking path; the traced pass
	// subtracts that many stage medians from the call median to report what
	// no existing instrument explains.
	gcsHops, orbHops int
}

// generate runs this workload's generator for one client until the plan's
// window ends and every operation it issued is accounted.
func (wl *workload) generate(ctx context.Context, cl *client, p plan, nClients int, launched time.Time) {
	switch {
	case wl.rate > 0:
		cl.paced(ctx, wl, p, nClients, launched)
	case wl.pipelined:
		cl.pipeline(ctx, wl, p)
	default:
		cl.closedLoop(ctx, wl, p)
	}
}

func withMode(wl workload) *workload {
	wl.opts = []core.CallOption{core.WithMode(wl.mode)}
	return &wl
}

var workloads = []*workload{
	withMode(workload{
		Name:  "open_majority",
		Why:   "closed-loop majority writes through one request manager per client: the paper's canonical open-group call, core's serveAsRM and reply collectors do most of the work",
		style: core.Open, mode: core.Majority,
		gcsHops: 4,
	}),
	withMode(workload{
		Name:  "open_majority_paced",
		Why:   "the same calls open-loop at a fixed 1000/s timed from their due time: groups go idle between calls, so a throughput trick that delays sends shows as a p50_ms loss",
		style: core.Open, mode: core.Majority, rate: 1000,
		gcsHops: 4,
	}),
	withMode(workload{
		Name:  "closed_all",
		Why:   "closed binding, wait-for-all, closed loop: bypasses the request manager (serveClosed, reply fan-in at the client), so an RM-path optimisation must show no change here",
		style: core.Closed, mode: core.All,
		gcsHops: 1, orbHops: 1,
	}),
	withMode(workload{
		Name:  "pipeline_async",
		Why:   "open+restricted+async-forward, wait-for-first, 32 calls in flight per client: per-call cost is amortised, so tcpnet coalescing, the wire codec and gcs sequencing dominate",
		style: core.Open, restricted: true, asyncForward: true, mode: core.First, pipelined: true,
		gcsHops: 2,
	}),
	withMode(workload{
		Name:  "read_mix",
		Why:   "19 leased reads per majority write, closed loop: 95% of operations never enter the ordering layer; the 5% writes expose a read gain bought at writes' expense",
		style: core.Open, mode: core.Majority, readsPerWrite: 19,
		gcsHops: 0, orbHops: 1,
	}),
	{
		Name:    "peer_symmetric",
		Why:     "no core, no orb: four lively symmetric-order gcs members all multicasting with a window of 16; gcs+tcpnet+wire are the whole cost, and a core change must show nothing",
		peer:    true,
		gcsHops: 1,
	},
}

func workloadNamed(name string) *workload {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl
		}
	}
	return nil
}
