package core

import (
	"context"
	"fmt"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
)

// BindConfig configures a client's binding to a server group.
type BindConfig struct {
	// ServerGroup is the group to invoke.
	ServerGroup ids.GroupID
	// Contact is any member of the server group (the bootstrap address).
	Contact ids.ProcessID
	// Style selects closed or open interaction (default Open).
	Style Style
	// Restricted, for open bindings, binds to the server group's leader
	// instead of an arbitrary member, so every client shares one request
	// manager — the restricted-group optimisation of §4.2, under which
	// the request manager never waits for its own forwarding multicast.
	Restricted bool
	// AsyncForward additionally enables the asynchronous-message-
	// forwarding optimisation for wait-for-first calls (§4.2): the
	// request manager forwards the call one-way, executes it and replies
	// from its own execution. Only the server group's sequencer serves a
	// call so; any other request manager gathers its replies from the
	// order instead. Combined with Restricted, and a sequencer-ordered
	// server group led by its lowest member, this is the paper's
	// passive-replication configuration.
	AsyncForward bool
	// GCS is the configuration template for the client/server group
	// (ordering protocol, timers). Leader is filled in automatically with
	// the request manager. Defaults: sequencer order, event-driven.
	GCS gcs.GroupConfig
	// BindTimeout bounds group formation (default 10s).
	BindTimeout time.Duration
	// Window bounds the outstanding InvokeAsync calls on the binding —
	// the pipelining depth. When the window is full, InvokeAsync blocks
	// until a call completes (backpressure). Synchronous calls occupy a
	// slot for their whole duration too, since they are an InvokeAsync
	// awaited immediately. Default 16.
	Window int
	// ReadRenew is how long a binding's leased/stale reads favour one
	// replica before rotating to the next — long enough that a replica's
	// caches stay warm, short enough that read load spreads across the
	// group and a replica with an expiring lease is abandoned promptly.
	// Default 1s.
	ReadRenew time.Duration
}

// Binding is a client's attachment to a server group through a
// client/server group (closed: client + every server; open: client +
// request manager). Call, InvokeAsync, Read, Close, Broken, SessionStamp,
// RequestManager and Group are the engine's.
type Binding struct{ *engine }

// Bind forms a client/server group with the configured style and returns
// the binding (paper fig. 3). The client learns the server group's
// membership from the contact, creates the group, and pulls the chosen
// server in.
func (s *Service) Bind(ctx context.Context, cfg BindConfig) (*Binding, error) {
	if cfg.Style == 0 {
		cfg.Style = Open
	}
	if cfg.BindTimeout <= 0 {
		cfg.BindTimeout = 10 * time.Second
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	ctx, cancel := context.WithTimeout(ctx, cfg.BindTimeout)
	defer cancel()

	members, err := s.ServerGroupMembers(ctx, cfg.Contact, cfg.ServerGroup)
	if err != nil {
		return nil, fmt.Errorf("core: bind %q: %w", cfg.ServerGroup, err)
	}
	if len(members) == 0 {
		return nil, ErrNoServers
	}
	members = ids.SortProcesses(members)
	if cfg.Style == Closed {
		return s.bindClosed(ctx, cfg, members)
	}

	// Choose the request manager: the restricted optimisation pins it to
	// the server group's leader.
	rm := cfg.Contact
	if !ids.ContainsProcess(members, rm) || cfg.Restricted {
		rm = ids.MinProcess(members)
	}
	gid := ids.GroupID(fmt.Sprintf("cs/%s/%s/%d", cfg.ServerGroup, s.ID(), s.binds.Add(1)))
	cfg.GCS.Leader = rm
	group, err := s.node.Create(gid, cfg.GCS)
	if err != nil {
		return nil, fmt.Errorf("core: bind %q: %w", cfg.ServerGroup, err)
	}
	b := &Binding{s.newEngine(group, cfg, Open, rm, members)}
	if err := b.pullRM(ctx, &bindRequest{Group: gid, Style: Open, AsyncFwd: cfg.AsyncForward, Config: cfg.GCS}); err != nil {
		return nil, err
	}
	return b, nil
}

// bindClosed forms a closed binding (paper fig. 3(i)): the client becomes
// a member of the server group itself — its client/server group fully
// overlaps the server group — so its requests travel through the group's
// own total-order multicast and it participates in the group's protocol
// traffic like any member. That participation is exactly what the paper
// identifies as the closed approach's cost on high-latency paths and at
// high client counts, and its benefit: server failures are masked by the
// membership service with no rebinding.
//
// The client's cfg.GCS must match the configuration the server group was
// created with (ordering protocol and liveness), as for any group join.
func (s *Service) bindClosed(ctx context.Context, cfg BindConfig, members []ids.ProcessID) (*Binding, error) {
	group, err := s.node.Join(ctx, cfg.ServerGroup, cfg.Contact, cfg.GCS)
	if err != nil {
		return nil, fmt.Errorf("core: closed bind %q: %w", cfg.ServerGroup, err)
	}
	b := &Binding{s.newEngine(group, cfg, Closed, ids.MinProcess(members), members)}
	if err := b.start(ctx); err != nil {
		return nil, err
	}
	return b, nil
}

// KnownServers returns the server group membership observed at bind time.
func (b *Binding) KnownServers() []ids.ProcessID {
	return append([]ids.ProcessID(nil), b.servers...)
}

// Servers returns the live servers reachable through the binding: for an
// open binding, the members of the client/server group besides the client;
// for a closed binding, the known servers still present in the (shared)
// group view — the view also contains this client and possibly other
// closed clients, which must not count towards reply quorums.
func (b *Binding) Servers() []ids.ProcessID {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.style == Closed {
		return b.liveLocked(nil)
	}
	return b.view.Others(b.svc.ID())
}
