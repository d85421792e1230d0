// Package obs is the observability layer of the NewTop reproduction: a
// stdlib-only metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms with percentile snapshots) plus the protocol flight
// journal (package flight), the one event model of the stack: ordering-layer
// transitions and invocation stages are typed events in one ring, and the
// per-invocation stage tree at /traces (request manager receive → group
// multicast → replica executions → reply collection) is a view derived from
// it, as the per-message latency decomposition is.
//
// The paper's whole argument is quantitative — where latency is spent
// decides between open and closed bindings, sequencer and symmetric
// order, and the four reply modes — so every layer of the stack
// (transport, gcs, core, orb, bench) registers named instruments here and
// the node binary exports them over HTTP. Instruments are pre-resolved at
// construction time: the hot paths touch only atomics, never the registry
// map, and the transport send path performs no allocation.
package obs

import "newtop/internal/obs/flight"

// Obs bundles one process's (or one experiment's) registry and protocol
// flight recorder. Layers receive an *Obs at construction;
// passing nil is not supported — use Default() for the process-wide
// instance or New() for an isolated one (the bench harness isolates each
// experiment world this way).
type Obs struct {
	Reg *Registry
	// Flight is the protocol event journal, served at /journal. The
	// default ring is small; processes that want deep history (benches,
	// newtop-node -journal) swap in a larger one at startup, before any
	// instrumented layer is constructed.
	Flight *flight.Recorder
}

// New returns a fresh, independent observability domain.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Flight: flight.New(flight.DefaultCap)}
}

// defaultObs is the process-wide domain used by constructors that were not
// handed an explicit one.
var defaultObs = New()

// Default returns the process-wide observability domain.
func Default() *Obs { return defaultObs }
