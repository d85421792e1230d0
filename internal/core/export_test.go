package core

import (
	"context"
	"fmt"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// ReadAt sends one read straight to target's NSO — no attachment's replica
// choice in between — and returns its payload, or its refusal as an error.
func (s *Service) ReadAt(ctx context.Context, target ids.ProcessID, group ids.GroupID, method string, args []byte, cons Consistency, min vclock.Stamp) ([]byte, error) {
	raw, err := s.invokeControl(ctx, target, "read", encodeReadRequest(&readRequest{
		Group: group, Method: method, Args: args, Consistency: cons, MinStamp: min,
	}))
	if err != nil {
		return nil, err
	}
	var rep readReply
	if err := decodeReadReply(raw, &s.strs, &rep); err != nil {
		return nil, err
	}
	if rep.Code != readOK {
		return nil, fmt.Errorf("read refused (code %d): %s", rep.Code, rep.Err)
	}
	return rep.Payload, nil
}

// ExecutedPrefix returns the membership the delivery stream of this
// service's server of group last showed, and the senders its executed
// prefix holds an entry for; ok is false when the service serves no such
// group.
func (s *Service) ExecutedPrefix(group ids.GroupID) (view gcs.View, senders []ids.ProcessID, ok bool) {
	srv := s.serverFor(group)
	if srv == nil {
		return gcs.View{}, nil, false
	}
	srv.execMu.Lock()
	defer srv.execMu.Unlock()
	for p := range srv.applied {
		senders = append(senders, p)
	}
	return srv.view.Clone(), ids.SortProcesses(senders), true
}

// RaceEnabled exposes raceEnabled to the external tests.
const RaceEnabled = raceEnabled

// DebugFloor returns the floor this process's requests carry and the last
// call number it allocated.
func (s *Service) DebugFloor() (floor, next uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls.Floor() + 1, s.nextCall
}

// DebugRetained returns what this service's server of group retains for
// client: the client's floor there and how many of its calls it holds.
func (s *Service) DebugRetained(group ids.GroupID, client ids.ProcessID) (floor uint64, held int) {
	srv := s.serverFor(group)
	if srv == nil {
		return 0, 0
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	l := srv.clients[client]
	if l == nil {
		return 0, 0
	}
	l.win.Each(func(uint64, *retained) { held++ })
	return l.win.Floor() + 1, held
}

// hookCounts returns how many hooks on caller contexts the engine holds
// live, and how many it keeps to reuse.
func (e *engine) hookCounts() (live, spare int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.hooks), len(e.spare)
}

// ID returns the invocation's call identifier.
func (c *Call) ID() ids.CallID { return c.id }

// Mode returns the invocation's reply mode.
func (c *Call) Mode() ReplyMode { return c.mode }

// DebugGroup exposes the server group for white-box diagnostics.
func (srv *Server) DebugGroup() *gcs.Group { return srv.group }

// DebugNewCall allocates a call identifier for a test to issue, and retry,
// by hand (WithCallID). Nothing releases it: the process's floor stays at
// it, so the servers retain every call from it on.
func (s *Service) DebugNewCall() ids.CallID {
	id, _ := s.newCall()
	return id
}

// Shard returns the live binding of one shard (nil if unknown) — for
// diagnostics and cross-shard administration.
func (sb *ShardedBinding) Shard(name string) *Binding {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.bindings[name]
}

// WithTrace threads an explicit trace identifier through the invocation
// instead of allocating (Binding/Proxy) or deriving (G2G) one, so a test
// can find the call's stages in the journal.
func WithTrace(t obs.TraceID) CallOption {
	return func(o callOpts) callOpts { o.trace = t; return o }
}
