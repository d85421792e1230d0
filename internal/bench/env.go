// Package bench is the evaluation harness: it reconstructs every table and
// figure of the paper's §5 on top of the simulated network (LAN and the
// Newcastle/London/Pisa Internet paths), with workload generators for
// request-reply and peer-participation interactions and collectors for the
// paper's two metrics, per-client invocation latency and aggregate
// throughput.
package bench

import (
	"context"
	"fmt"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

// Placement fixes where servers and clients live, mirroring the three
// configurations of §5.1: all-LAN, servers-LAN + distant clients, and
// fully geographically distributed.
type Placement struct {
	Name string
	// ServerSite returns the site for server i.
	ServerSite func(i int) string
	// ClientSite returns the site for client i.
	ClientSite func(i int) string
}

// Placements used by the paper.
var (
	// PlacementLAN is §5.1 configuration (i): everything on one LAN.
	PlacementLAN = Placement{
		Name:       "lan",
		ServerSite: func(int) string { return netsim.SiteLAN },
		ClientSite: func(int) string { return netsim.SiteLAN },
	}
	// PlacementMixed is configuration (ii): servers in Newcastle, clients
	// split between London and Pisa.
	PlacementMixed = Placement{
		Name:       "servers-lan-clients-distant",
		ServerSite: func(int) string { return netsim.SiteNewcastle },
		ClientSite: func(i int) string {
			if i%2 == 0 {
				return netsim.SiteLondon
			}
			return netsim.SitePisa
		},
	}
	// PlacementGeo is configuration (iii): servers and clients spread over
	// Newcastle, London and Pisa.
	PlacementGeo = Placement{
		Name:       "geo-distributed",
		ServerSite: func(i int) string { return geoSites[i%len(geoSites)] },
		ClientSite: func(i int) string { return geoSites[i%len(geoSites)] },
	}
)

var geoSites = []string{netsim.SiteNewcastle, netsim.SiteLondon, netsim.SitePisa}

// evalTimers are the gcs timers used throughout the evaluation, matched to
// the eval profile's scaled-down latencies.
func evalTimers() gcs.GroupConfig {
	return gcs.GroupConfig{
		// Time-silence trades liveness traffic against symmetric-order
		// latency when a group is otherwise quiet; 120ms at this time
		// scale keeps null load well below the per-message CPU budget.
		TimeSilence: 120 * time.Millisecond,
		// The evaluation never crashes members, so suspicion must not
		// fire even under full CPU saturation (queued heartbeats).
		SuspectTimeout: 10 * time.Second,
		Resend:         2 * time.Second,
		FlushTimeout:   10 * time.Second,
		Tick:           40 * time.Millisecond,
		ProcessingCost: 2 * time.Millisecond,
	}
}

// Env is one experiment's world: a simulated network, a server group, and
// a set of client services.
type Env struct {
	Net     *memnet.Net
	Servers []*core.Service
	Srvs    []*core.Server
	Clients []*core.Service
	// ServerGroup is the group the servers form.
	ServerGroup ids.GroupID
	// Obs is the world's private observability domain: every service in
	// the environment records into it, isolated from the process default
	// and from other worlds, so per-stage latency snapshots attribute to
	// exactly this experiment's traffic.
	Obs *obs.Obs
}

// EnvConfig sizes an environment.
type EnvConfig struct {
	Profile  netsim.Profile
	Seed     int64
	Place    Placement
	NServers int
	NClients int
	// Order is the server group's ordering protocol (default sequencer).
	Order gcs.OrderMode
	// Batch enables sender-side multicast batching on the server group
	// (the pipeline experiment's amortisation lever).
	Batch bool
	// LeaseTicks enables read leases on the server group (the readpath
	// experiment's lever); zero leaves the read path disabled.
	LeaseTicks int
	// Handler is the replicated service; nil installs the paper's
	// pseudo-random-number object.
	Handler core.Handler
}

// randomNumberHandler reproduces the paper's benchmark servant: "a CORBA
// object that simply returns a pseudo random number when requested".
func randomNumberHandler() core.Handler {
	state := uint64(0x9e3779b97f4a7c15)
	return func(method string, args []byte) ([]byte, error) {
		// xorshift64*: deterministic, negligible compute, like the paper's
		// pseudo-random servant.
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		v := state * 0x2545f4914f6cdd1d
		out := make([]byte, 8)
		for i := 0; i < 8; i++ {
			out[i] = byte(v >> (8 * i))
		}
		return out, nil
	}
}

// NewEnv builds the world: servers first (they found and join the server
// group), then the client services.
func NewEnv(ctx context.Context, cfg EnvConfig) (*Env, error) {
	if cfg.Order == 0 {
		cfg.Order = gcs.OrderSequencer
	}
	env := &Env{
		Net:         memnet.New(netsim.New(cfg.Profile, cfg.Seed)),
		ServerGroup: "sg",
		Obs:         obs.New(),
	}
	timers := evalTimers()
	timers.Order = cfg.Order
	timers.Batch = cfg.Batch
	timers.LeaseTicks = cfg.LeaseTicks

	var contact ids.ProcessID
	for i := 0; i < cfg.NServers; i++ {
		// Server identifiers sort below client identifiers so the default
		// leader (coordinator/sequencer/restricted request manager) is
		// always a server.
		id := ids.ProcessID(fmt.Sprintf("s%02d.%s", i, cfg.Place.ServerSite(i)))
		ep, err := env.Net.Endpoint(id, cfg.Place.ServerSite(i))
		if err != nil {
			env.Close()
			return nil, err
		}
		svc := core.NewServiceObs(ep, env.Obs)
		env.Servers = append(env.Servers, svc)
		handler := cfg.Handler
		if handler == nil {
			handler = randomNumberHandler()
		}
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:   env.ServerGroup,
			Contact: contact,
			Handler: handler,
			GCS:     timers,
		})
		if err != nil {
			env.Close()
			return nil, fmt.Errorf("bench: serve %s: %w", id, err)
		}
		env.Srvs = append(env.Srvs, srv)
		if i == 0 {
			contact = id
		}
	}
	// Wait for every server's roster to converge before admitting clients:
	// a binding learns the membership from whichever server it binds
	// through, and the newest joiner's roster is the last to fill.
	for _, srv := range env.Srvs {
		for len(srv.ServerRoster()) != cfg.NServers {
			select {
			case <-ctx.Done():
				env.Close()
				return nil, fmt.Errorf("bench: roster: %w", ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	for i := 0; i < cfg.NClients; i++ {
		id := ids.ProcessID(fmt.Sprintf("z%02d.%s", i, cfg.Place.ClientSite(i)))
		ep, err := env.Net.Endpoint(id, cfg.Place.ClientSite(i))
		if err != nil {
			env.Close()
			return nil, err
		}
		env.Clients = append(env.Clients, core.NewServiceObs(ep, env.Obs))
	}
	return env, nil
}

// Contact returns the bootstrap server.
func (e *Env) Contact() ids.ProcessID {
	if len(e.Servers) == 0 {
		return ""
	}
	return e.Servers[0].ID()
}

// Close tears the world down.
func (e *Env) Close() {
	for _, c := range e.Clients {
		_ = c.Close()
	}
	for _, s := range e.Servers {
		_ = s.Close()
	}
}
