package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/shard"
	"newtop/internal/transport"
	"newtop/internal/transport/tcpnet"
)

const (
	replicas      = 3
	serverGroup   = ids.GroupID("kv")
	keysPerClient = 1000
	valueBytes    = 100 // the paper's payload
	bindWindow    = 32
	warmupCalls   = 20
)

// pinnedGCS is the one group configuration every workload shares. Only the
// knobs the benchmark must fix are set (timers short enough that an idle
// group re-arms within a call, long enough that a loaded 2-core host never
// false-suspects); everything else stays at the product's default, so a
// later change of a default is measured, not masked.
func pinnedGCS(order gcs.OrderMode) gcs.GroupConfig {
	return gcs.GroupConfig{
		Order:          order,
		Tick:           5 * time.Millisecond,
		TimeSilence:    20 * time.Millisecond,
		SuspectTimeout: 10 * time.Second,
		Resend:         500 * time.Millisecond,
		FlushTimeout:   10 * time.Second,
	}
}

// serverGCS adds the read leases the server group grants.
func serverGCS() gcs.GroupConfig {
	c := pinnedGCS(gcs.OrderSequencer)
	c.LeaseTicks = 100
	return c
}

// sendTap is the traced pass's transport decorator: it measures the
// tcpnet layer from outside, around Endpoint.Send.
type sendTap struct {
	transport.Endpoint
	frames, bytes, nanos atomic.Uint64
}

func (t *sendTap) Send(to ids.ProcessID, payload []byte) error {
	start := time.Now()
	err := t.Endpoint.Send(to, payload)
	t.nanos.Add(uint64(time.Since(start)))
	t.frames.Add(1)
	t.bytes.Add(uint64(len(payload)))
	return err
}

// execTap wraps the servant: it counts executions in every pass (the
// exactly-once check needs them) and times them in the traced pass.
type execTap struct {
	timed              bool
	puts, other, nanos atomic.Uint64
}

func (e *execTap) wrap(h core.Handler) core.Handler {
	return func(method string, args []byte) ([]byte, error) {
		var start time.Time
		if e.timed {
			start = time.Now()
		}
		out, err := h(method, args)
		if e.timed {
			e.nanos.Add(uint64(time.Since(start)))
		}
		if method == "put" {
			e.puts.Add(1)
		} else {
			e.other.Add(1)
		}
		return out, err
	}
}

// mesh is a set of loopback TCP endpoints that all know each other.
type mesh struct {
	eps  []*tcpnet.Endpoint
	taps []*sendTap // parallel to eps in the traced pass, nil otherwise
}

func listenMesh(names []string, traced bool) (*mesh, error) {
	m := &mesh{}
	for _, n := range names {
		ep, err := tcpnet.Listen(ids.ProcessID(n), "127.0.0.1:0")
		if err != nil {
			m.close()
			return nil, err
		}
		m.eps = append(m.eps, ep)
		if traced {
			m.taps = append(m.taps, &sendTap{Endpoint: ep})
		}
	}
	for _, a := range m.eps {
		for _, b := range m.eps {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	return m, nil
}

// endpoint returns what a layer above should be built on: the decorator in
// the traced pass, the bare endpoint otherwise.
func (m *mesh) endpoint(i int) transport.Endpoint {
	if m.taps != nil {
		return m.taps[i]
	}
	return m.eps[i]
}

// close closes endpoints no node or service took ownership of.
func (m *mesh) close() {
	for _, ep := range m.eps {
		_ = ep.Close()
	}
}

// netTotals sums the endpoints' own counters and the decorators'.
type netTotals struct {
	frames, bytes, flushes, drops uint64
	sendqHigh                     int64
	tapFrames, tapNanos           uint64
}

func (m *mesh) totals() netTotals {
	var t netTotals
	for _, ep := range m.eps {
		st := ep.Stats()
		t.frames += st.FramesSent
		t.bytes += st.BytesSent
		t.flushes += st.Flushes
		t.drops += st.DropsFull + st.DropsConn
		if st.QueueHighwater > t.sendqHigh {
			t.sendqHigh = st.QueueHighwater
		}
	}
	for _, tap := range m.taps {
		t.tapFrames += tap.frames.Load()
		t.tapNanos += tap.nanos.Load()
	}
	return t
}

// world is one built system under test: the kv server group, the client
// services and their bindings, over a loopback TCP mesh.
type world struct {
	spec     *workload
	net      *mesh
	svcs     []*core.Service // replicas first, then clients
	stores   []*shard.Store
	servers  []*core.Server
	bindings []*core.Binding
	execs    *execTap
	clients  []*client
	setup    time.Duration
}

// buildWorld brings the system up and times it: listen, roster converged,
// clients bound, first warm-up reply from every client.
func buildWorld(ctx context.Context, spec *workload, nClients int, seed int64, traced bool) (w *world, err error) {
	start := time.Now()
	names := make([]string, 0, replicas+nClients)
	for r := 0; r < replicas; r++ {
		names = append(names, fmt.Sprintf("r%d", r))
	}
	for c := 0; c < nClients; c++ {
		names = append(names, fmt.Sprintf("z%d", c)) // sorts after every replica: a closed client never becomes sequencer
	}
	net, err := listenMesh(names, traced)
	if err != nil {
		return nil, err
	}
	w = &world{spec: spec, net: net, execs: &execTap{timed: traced}}
	defer func() {
		if err != nil {
			w.close()
			w = nil
		}
	}()
	for i := range names {
		w.svcs = append(w.svcs, core.NewService(net.endpoint(i)))
	}

	var contact ids.ProcessID
	for r := 0; r < replicas; r++ {
		st := shard.NewStore("")
		srv, serr := w.svcs[r].Serve(ctx, core.ServeConfig{
			Group:    serverGroup,
			Contact:  contact,
			Handler:  w.execs.wrap(st.Handle),
			Snapshot: st.Snapshot,
			Restore:  st.Restore,
			GCS:      serverGCS(),
		})
		if serr != nil {
			return nil, fmt.Errorf("serve replica %d: %w", r, serr)
		}
		if r == 0 {
			contact = w.svcs[0].ID()
		}
		w.stores = append(w.stores, st)
		w.servers = append(w.servers, srv)
	}
	for _, srv := range w.servers {
		for len(srv.ServerRoster()) != replicas {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("server roster: %w", ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
	}

	for c := 0; c < nClients; c++ {
		cfg := core.BindConfig{
			ServerGroup:  serverGroup,
			Contact:      w.svcs[c%replicas].ID(), // open clients spread over request managers
			Style:        spec.style,
			Restricted:   spec.restricted,
			AsyncForward: spec.asyncForward,
			GCS:          pinnedGCS(gcs.OrderSequencer),
			Window:       bindWindow,
			ReadRenew:    100 * time.Millisecond,
		}
		if spec.style == core.Closed {
			cfg.GCS = serverGCS() // a closed client joins the server group itself
		}
		b, berr := w.svcs[replicas+c].Bind(ctx, cfg)
		if berr != nil {
			return nil, fmt.Errorf("bind client %d: %w", c, berr)
		}
		w.bindings = append(w.bindings, b)
		w.clients = append(w.clients, newClient(c, b, seed))
	}
	for _, cl := range w.clients {
		if err := cl.warm(ctx, spec, 1); err != nil {
			return nil, fmt.Errorf("first warm-up call: %w", err)
		}
	}
	w.setup = time.Since(start)
	return w, nil
}

// close tears the world down; safe on a partly built one.
func (w *world) close() {
	for _, b := range w.bindings {
		_ = b.Close()
	}
	for _, s := range w.svcs {
		_ = s.Close() // a service owns (and closes) its endpoint
	}
}

// writes is the number of puts the clients have had acknowledged so far, in
// every phase of the run.
func (w *world) writes() (n uint64) {
	for _, cl := range w.clients {
		n += cl.writes.Load()
	}
	return n
}

// quiesce waits until every acknowledged write has executed at every
// replica (a majority call returns before the third replica runs it).
func (w *world) quiesce(ctx context.Context) error {
	writes := w.writes()
	deadline := time.Now().Add(20 * time.Second)
	for w.execs.puts.Load() < writes*replicas {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("quiesce: %d handler execs for %d writes x %d replicas", w.execs.puts.Load(), writes, replicas)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// verify runs the end-of-run state checks: exactly-once execution, the
// three replicas hold identical state, that state is every client's last
// acknowledged write, and nothing else.
func (w *world) verify() error {
	var errs []error
	writes := w.writes()
	want := make(map[string]string)
	for _, cl := range w.clients {
		cl.lastWritten(want)
	}
	if got := w.execs.puts.Load(); got != writes*replicas {
		errs = append(errs, fmt.Errorf("handler execs = %d, want writes x replicas = %d x %d", got, writes, replicas))
	}
	// Snapshot encodes a Go map, so its byte order is per-call random;
	// replica agreement is checked on the decoded pairs.
	for r, st := range w.stores {
		snap, err := st.Snapshot()
		if err != nil {
			errs = append(errs, fmt.Errorf("replica %d snapshot: %w", r, err))
			continue
		}
		got, err := shard.DecodePairs(snap)
		if err != nil {
			errs = append(errs, fmt.Errorf("replica %d snapshot decode: %w", r, err))
			continue
		}
		if st.Len() != len(want) {
			errs = append(errs, fmt.Errorf("replica %d holds %d keys, %d distinct keys were written", r, st.Len(), len(want)))
		}
		if !reflect.DeepEqual(got, want) {
			errs = append(errs, fmt.Errorf("replica %d state differs from the clients' last acknowledged writes", r))
		}
	}
	return errors.Join(errs...)
}
