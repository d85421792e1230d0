package core

import (
	"context"
	"fmt"

	"newtop/internal/ids"
	"newtop/internal/wire"
)

// GroupRef is this library's analogue of the FT-CORBA Interoperable
// Object Group Reference the paper anticipates in §2.2: a serializable
// reference to an object group that embeds the identities of its members,
// with one designated primary. A client holding a GroupRef can bind to
// the group with no other configuration; if the primary is unreachable
// the remaining embedded members are tried in order, and the smart proxy
// built on top keeps retrying across request-manager failures — "the
// process is transparent to the client".
type GroupRef struct {
	// Group is the server group identifier.
	Group ids.GroupID
	// Members are the group members, primary first.
	Members []ids.ProcessID
}

// Primary returns the designated first member (empty if none).
func (r GroupRef) Primary() ids.ProcessID {
	if len(r.Members) == 0 {
		return ""
	}
	return r.Members[0]
}

// String implements fmt.Stringer.
func (r GroupRef) String() string {
	return fmt.Sprintf("%s%v", r.Group, r.Members)
}

// Encode serialises the reference for embedding in configuration, naming
// services or other messages.
func (r GroupRef) Encode() []byte {
	w := wire.GetWriter()
	w.String(string(r.Group))
	w.Uvarint(uint64(len(r.Members)))
	for _, m := range r.Members {
		w.String(string(m))
	}
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

// DecodeGroupRef parses an encoded reference.
func DecodeGroupRef(b []byte) (GroupRef, error) {
	rd := wire.NewReader(b)
	ref := GroupRef{Group: ids.GroupID(rd.String())}
	if n := rd.Count(1); rd.Err() == nil {
		ref.Members = make([]ids.ProcessID, 0, n)
		for i := 0; i < n; i++ {
			ref.Members = append(ref.Members, ids.ProcessID(rd.String()))
		}
	}
	if err := rd.Done(); err != nil {
		return GroupRef{}, err
	}
	return ref, nil
}

// GroupRefOf builds a current reference for a server group by asking a
// member for the roster; the contacted member becomes the primary.
func (s *Service) GroupRefOf(ctx context.Context, contact ids.ProcessID, group ids.GroupID) (GroupRef, error) {
	members, err := s.ServerGroupMembers(ctx, contact, group)
	if err != nil {
		return GroupRef{}, err
	}
	ordered := make([]ids.ProcessID, 0, len(members))
	if ids.ContainsProcess(members, contact) {
		ordered = append(ordered, contact)
	}
	for _, m := range members {
		if m != contact {
			ordered = append(ordered, m)
		}
	}
	return GroupRef{Group: group, Members: ordered}, nil
}

// DialRef binds to the group named by a reference, trying the embedded
// members in order (primary first) until one answers, and returns a smart
// proxy that transparently rebinds on request-manager failure. cfg's
// ServerGroup and Contact are taken from the reference; the remaining
// fields (style, ordering template, timers) apply as usual.
func (s *Service) DialRef(ctx context.Context, ref GroupRef, cfg BindConfig) (*Proxy, error) {
	if len(ref.Members) == 0 {
		return nil, ErrNoServers
	}
	cfg.ServerGroup = ref.Group
	var lastErr error
	for _, m := range ref.Members {
		attempt := cfg
		attempt.Contact = m
		p, err := s.NewProxy(ctx, attempt)
		if err == nil {
			return p, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("core: dial %s: %w", ref, lastErr)
}
