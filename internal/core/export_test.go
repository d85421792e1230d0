package core

import (
	"context"
	"fmt"

	"newtop/internal/gcs"
	"newtop/internal/ids"
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
