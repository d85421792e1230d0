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
	rep, err := decodeReadReply(raw)
	if err != nil {
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
