// Package core implements the paper's contribution: the NewTop object
// group invocation layer. A Service is the process's NewTop service
// object (NSO); on top of the group communication service (internal/gcs)
// and the mini-ORB (internal/orb) it provides:
//
//   - request-reply invocation of a server group through closed groups
//     (the client joins a client/server group containing every server;
//     best on LANs, masks server failures automatically) and open groups
//     (the client/server group contains one server — the request manager —
//     which re-multicasts requests inside the server group and returns
//     gathered replies; best over WANs);
//   - the restricted-group and asynchronous-message-forwarding
//     optimisations of §4.2 (single request manager that is also the
//     group's sequencer, and primary-style immediate replies);
//   - group-to-group request-reply through a client monitor group (§4.3);
//   - one-way, wait-for-first, wait-for-majority and wait-for-all reply
//     modes;
//   - call numbering with retained replies so retries after a request
//     manager failure never re-execute (§4.1), plus a smart proxy that
//     rebinds automatically.
//
// The client side is four shapes behind one Invoker surface — Binding, G2G,
// Proxy, ShardedBinding — over one engine (engine.go): closed, open and
// group-to-group calls are launched, completed and read through the same
// code, and differ in a policy fixed at bind time.
package core

import (
	"errors"
	"fmt"

	"newtop/internal/ids"
	"newtop/internal/vclock"
)

// ReplyMode selects how many server replies an invocation waits for
// (paper §2.1).
type ReplyMode int

const (
	// OneWay sends the request and returns immediately; no replies.
	OneWay ReplyMode = iota + 1
	// First waits for a reply from a single member of the server group.
	First
	// Majority waits for replies from a strict majority of the group.
	Majority
	// All waits for replies from every member of the server group.
	All
)

// String implements fmt.Stringer.
func (m ReplyMode) String() string {
	switch m {
	case OneWay:
		return "one-way"
	case First:
		return "wait-for-first"
	case Majority:
		return "wait-for-majority"
	case All:
		return "wait-for-all"
	default:
		return fmt.Sprintf("ReplyMode(%d)", int(m))
	}
}

// need returns how many replies the mode requires from n servers.
func (m ReplyMode) need(n int) int {
	switch m {
	case OneWay:
		return 0
	case First:
		return 1
	case Majority:
		return ids.Majority(n)
	default:
		if n < 1 {
			return 1
		}
		return n
	}
}

// Style selects how a client interacts with a server group (paper §2.1).
type Style int

const (
	// Closed makes the client a member of a client/server group that
	// contains every server: it multicasts requests itself and receives
	// replies directly from each server.
	Closed Style = iota + 1
	// Open pairs the client with a single server, the request manager,
	// in a two-member client/server group.
	Open
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Errors of the invocation layer.
var (
	// ErrBindingBroken is returned when the binding's client/server group
	// lost its request manager (open) or all servers (closed); the caller
	// should rebind (the smart proxy does this automatically).
	ErrBindingBroken = errors.New("core: binding broken")
	// ErrClosed is returned after a binding, server or service closed.
	ErrClosed = errors.New("core: closed")
	// ErrNoServers is returned when a server group has no members.
	ErrNoServers = errors.New("core: no servers")
	// ErrReadDisabled is returned by Read when the server group has no
	// read path (the server group's gcs configuration has LeaseTicks
	// zero); callers that must work either way fall back to an ordered
	// Call.
	ErrReadDisabled = errors.New("core: read path disabled (server group has no LeaseTicks)")
	// ErrLeaseExpired is returned when every contacted replica refused a
	// leased read because its lease evidence was older than the staleness
	// bound (e.g. the replica is partitioned from the grantor).
	ErrLeaseExpired = errors.New("core: read lease expired at every replica")
	// ErrNotLinearizable is returned when the linearizable read barrier
	// could not run (no replica is the ordering authority, or the
	// frontier wait failed).
	ErrNotLinearizable = errors.New("core: linearizable read barrier unavailable")
)

// Reply is one server's answer to an invocation.
type Reply struct {
	// Server is the responding member.
	Server ids.ProcessID
	// Payload is the application result (nil on error).
	Payload []byte
	// Err is the application error raised by that server, if any.
	Err error
	// Stamp is the total-order stamp of the write as applied at that
	// server: the session token of read-your-writes. A binding remembers
	// the newest stamp it has seen and sends it as the floor of its
	// subsequent reads, so a read served by a different replica waits
	// until that replica's executed prefix covers the session's writes.
	Stamp vclock.Stamp
}
