package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
)

// G2G is a group-to-group binding (paper §4.3): the members of a client
// group gx invoke a server group gy through a client monitor group
// gz = gx ∪ {request manager ∈ gy}. Every gx member issues each call with
// the same deterministic call number; the request manager filters the
// duplicates, forwards one copy into gy, gathers the replies and
// multicasts the aggregate in gz so every member of gx receives it
// atomically. Only one inter-group multicast occurs per call — the design
// goal the paper states for minimising gx↔gy traffic.
//
// The methods are the engine's. For Call and InvokeAsync WithCallID is
// mandatory (ErrNeedCallNumber): its Number is the deterministic per-call
// number every client-group member must share so the request manager can
// filter the duplicate copies; the Client component is overridden with the
// monitor group's identity. Reads need no shared number: each member reads
// independently, at the request manager, against its own session floor.
type G2G struct{ *engine }

// BindGroupToGroup attaches this member of clientGroup to a server group
// through a shared client monitor group. Every member of the client group
// must call it with the same configuration; cfg.Contact names the server
// that acts as request manager. The client group's leader (lowest member)
// creates the monitor group and pulls the request manager in; the other
// members join through the leader.
func (s *Service) BindGroupToGroup(ctx context.Context, clientGroup *gcs.Group, cfg BindConfig) (*G2G, error) {
	if cfg.Contact.Nil() {
		return nil, errors.New("core: group-to-group bind needs a contact (the request manager)")
	}
	if cfg.BindTimeout <= 0 {
		cfg.BindTimeout = 10 * time.Second
	}
	cfg.GCS = requestReplyDefaults(cfg.GCS)
	ctx, cancel := context.WithTimeout(ctx, cfg.BindTimeout)
	defer cancel()

	gzID := ids.GroupID(fmt.Sprintf("gz/%s/%s", clientGroup.ID(), cfg.ServerGroup))
	rm := cfg.Contact
	cfg.GCS.Leader = rm
	leader := ids.MinProcess(clientGroup.View().Members)

	var gz *gcs.Group
	var err error
	if s.ID() == leader {
		gz, err = s.node.Create(gzID, cfg.GCS)
	} else {
		gz, err = s.node.Join(ctx, gzID, leader, cfg.GCS)
	}
	if err != nil {
		return nil, fmt.Errorf("core: monitor group %q: %w", gzID, err)
	}
	g := &G2G{s.newEngine(gz, cfg, Open, rm, []ids.ProcessID{rm})}
	g.groupClient = ids.ProcessID("g2g/" + string(gzID))
	g.early = newBounded[ids.CallID, *invReplySet](earlyCap)
	if s.ID() == leader {
		err = g.pullRM(ctx, &bindRequest{Group: gzID, Style: Open, Monitor: true, AsyncFwd: cfg.AsyncForward, Config: cfg.GCS})
	} else {
		err = g.start(ctx)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}
