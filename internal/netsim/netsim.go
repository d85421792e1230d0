// Package netsim models the networked environment of the paper's
// evaluation: processes placed at named sites, a latency matrix between
// sites (low-latency LAN, high-latency WAN paths between Newcastle, London
// and Pisa), per-message CPU costs that make servers and sequencers
// saturate, plus partition and message-loss injection for failure tests.
//
// The model is pure bookkeeping: it answers "what does delivering this
// message cost?"; the in-memory transport (internal/transport/memnet) turns
// those answers into actual delays. The evaluation profile's times are
// scaled up ~2x from the paper's 1999-era numbers so every modeled duration
// clears the host kernel's sleep granularity, preserving every LAN/WAN ratio
// the paper reports (see EvalProfile).
package netsim

import (
	"math/rand"
	"sync"
	"time"

	"newtop/internal/ids"
)

// Canonical site names used throughout the evaluation harness.
const (
	SiteLAN       = "lan"
	SiteNewcastle = "newcastle"
	SiteLondon    = "london"
	SitePisa      = "pisa"
)

// Profile fixes the timing constants of an environment.
type Profile struct {
	// Name labels the profile in experiment output.
	Name string
	// Local is the one-way latency between two processes at the same site.
	Local time.Duration
	// Wide maps an unordered site pair (keyed with PairKey) to its one-way
	// latency. Pairs not present fall back to DefaultWide.
	Wide map[[2]string]time.Duration
	// DefaultWide is the one-way latency between distinct sites that have
	// no entry in Wide.
	DefaultWide time.Duration
	// JitterFrac adds a uniform random [0, JitterFrac) fraction of the
	// latency to each message.
	JitterFrac float64
	// SendCPU is the processing cost charged synchronously to the sender
	// for each outgoing message (the ORB marshals and issues a synchronous
	// invocation per destination, so multicasting to n members costs n of
	// these).
	SendCPU time.Duration
	// RecvCPU is the processing cost charged at the receiver per inbound
	// message; inbound processing is serialized per process, which is what
	// saturates a server or a sequencer under load.
	RecvCPU time.Duration
}

// PairKey returns the canonical (sorted) key for a site pair.
func PairKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// EvalProfile is the calibrated profile used by the reproduction of the
// paper's evaluation: ~100 Mbit switched LAN and 1999-era Internet paths
// between Newcastle, London and Pisa. Times are scaled UP ~2x from the
// paper's real scale so that every modeled duration is comfortably above
// the host kernel's sleep granularity (~1.2 ms) — sub-millisecond sleeps
// are silently rounded up and would destroy the LAN/WAN ratios the
// evaluation depends on. Only ratios matter for reproducing the paper's
// shapes; EXPERIMENTS.md discusses the scaling.
func EvalProfile() Profile {
	return Profile{
		Name:        "eval",
		Local:       2 * time.Millisecond,
		DefaultWide: 24 * time.Millisecond,
		Wide: map[[2]string]time.Duration{
			PairKey(SiteNewcastle, SiteLondon): 16 * time.Millisecond,
			PairKey(SiteNewcastle, SitePisa):   28 * time.Millisecond,
			PairKey(SiteLondon, SitePisa):      24 * time.Millisecond,
		},
		JitterFrac: 0.05,
		SendCPU:    1500 * time.Microsecond,
		RecvCPU:    2500 * time.Microsecond,
	}
}

// FastProfile is an aggressively scaled profile for unit and integration
// tests: the same shape as EvalProfile but an order of magnitude quicker,
// with no jitter so tests are deterministic.
func FastProfile() Profile {
	return Profile{
		Name:        "fast",
		Local:       0,
		DefaultWide: 300 * time.Microsecond,
		Wide:        map[[2]string]time.Duration{},
		JitterFrac:  0,
		SendCPU:     0,
		RecvCPU:     0,
	}
}

// Latency returns the one-way latency between two sites (excluding jitter).
// An empty site is treated as its own site distinct from every other, so
// unplaced processes still get DefaultWide paths to everything else.
func (p Profile) Latency(a, b string) time.Duration {
	if a == b {
		return p.Local
	}
	if d, ok := p.Wide[PairKey(a, b)]; ok {
		return d
	}
	return p.DefaultWide
}

// Network places processes at sites and tracks dynamic conditions:
// partitions, crashed processes and probabilistic message loss. It is safe
// for concurrent use.
type Network struct {
	profile Profile

	mu        sync.Mutex
	rng       *rand.Rand
	sites     map[ids.ProcessID]string
	partition map[ids.ProcessID]int
	crashed   map[ids.ProcessID]bool
	lossProb  float64
}

// New returns a network with the given profile. Seed fixes the jitter and
// loss randomness so experiments are repeatable.
func New(profile Profile, seed int64) *Network {
	return &Network{
		profile:   profile,
		rng:       rand.New(rand.NewSource(seed)),
		sites:     make(map[ids.ProcessID]string),
		partition: make(map[ids.ProcessID]int),
		crashed:   make(map[ids.ProcessID]bool),
	}
}

// Profile returns the timing profile of the network.
func (n *Network) Profile() Profile { return n.profile }

// Place assigns a process to a site. Calling Place again moves the process.
func (n *Network) Place(p ids.ProcessID, site string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sites[p] = site
}

// SiteOf returns the site a process was placed at ("" if never placed).
func (n *Network) SiteOf(p ids.ProcessID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sites[p]
}

// SetPartition puts a process into a numbered partition; processes in
// different partitions cannot exchange messages. All processes start in
// partition 0. Heal by setting everything back to the same number.
func (n *Network) SetPartition(p ids.ProcessID, part int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition[p] = part
}

// Crash marks a process as crashed: nothing is delivered to or from it.
func (n *Network) Crash(p ids.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[p] = true
}

// Crashed reports whether a process has been crashed.
func (n *Network) Crashed(p ids.ProcessID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[p]
}

// SetLoss sets the probability in [0, 1] that any given message is dropped.
func (n *Network) SetLoss(prob float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossProb = prob
}

// Verdict is the simulator's decision about one message.
type Verdict struct {
	// Deliver is false when the message must be dropped (partition, crash
	// or random loss).
	Deliver bool
	// Latency is the one-way propagation delay, jitter included.
	Latency time.Duration
}

// Judge decides the fate of a message from one process to another.
func (n *Network) Judge(from, to ids.ProcessID) Verdict {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[from] || n.crashed[to] || n.partition[from] != n.partition[to] {
		return Verdict{}
	}
	if n.lossProb > 0 && n.rng.Float64() < n.lossProb {
		return Verdict{}
	}
	lat := n.profile.Latency(n.sites[from], n.sites[to])
	if n.profile.JitterFrac > 0 && lat > 0 {
		lat += time.Duration(n.rng.Float64() * n.profile.JitterFrac * float64(lat))
	}
	return Verdict{Deliver: true, Latency: lat}
}

// SendCost returns the CPU cost charged to a sender per outgoing message.
func (n *Network) SendCost() time.Duration { return n.profile.SendCPU }

// RecvCost returns the CPU cost charged at a receiver per inbound message.
func (n *Network) RecvCost() time.Duration { return n.profile.RecvCPU }
