// Command newtop-node runs a real NewTop process over TCP — the same
// stack the simulator exercises, on real sockets. It demonstrates the
// three interaction modes of the paper on an actual network:
//
// Run a replicated server group on one machine (three shells):
//
//	newtop-node serve -id s1 -listen :7101 -group calc
//	newtop-node serve -id s2 -listen :7102 -group calc -peers s1=127.0.0.1:7101 -contact s1
//	newtop-node serve -id s3 -listen :7103 -group calc -peers s1=127.0.0.1:7101,s2=127.0.0.1:7102 -contact s1
//
// Invoke it (open binding, wait-for-all):
//
//	newtop-node invoke -id c1 -listen :7201 -group calc \
//	    -peers s1=127.0.0.1:7101,s2=127.0.0.1:7102,s3=127.0.0.1:7103 \
//	    -contact s1 -mode all -method echo -args hello
//
// Peer participation (run several, type lines, watch identical order):
//
//	newtop-node peer -id p1 -listen :7301 -group room
//	newtop-node peer -id p2 -listen :7302 -group room -peers p1=127.0.0.1:7301 -contact p1
//
// Sharded fabric (-shards N makes serve host kv/s0..sN-1 as N independent
// ordered groups backed by shard KV stores; invoke/read route by key over
// a consistent-hash ring — all processes must agree on -shards/-ring-seed):
//
//	newtop-node serve  -id s1 -listen :7101 -group kv -shards 4
//	newtop-node invoke -id c1 -listen :7201 -group kv -shards 4 \
//	    -peers s1=127.0.0.1:7101 -contact s1 -method put -args user:7=ada
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/shard"
	"newtop/internal/transport/tcpnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "newtop-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: newtop-node serve|invoke|read|peer [flags]")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		id      = fs.String("id", "", "process identifier (required)")
		listen  = fs.String("listen", "127.0.0.1:0", "listen address")
		peers   = fs.String("peers", "", "comma separated peer address book: id=host:port,...")
		group   = fs.String("group", "demo", "group name")
		contact = fs.String("contact", "", "existing member to join/bind through")
		method  = fs.String("method", "echo", "method to invoke (invoke)")
		cargs   = fs.String("args", "", "invocation argument (invoke)")
		mode    = fs.String("mode", "first", "reply mode: oneway|first|majority|all (invoke)")
		style   = fs.String("style", "open", "binding style: open|closed (invoke)")
		order   = fs.String("order", "sequencer", "ordering: sequencer|symmetric|causal")
		batch   = fs.Bool("batch", false, "coalesce same-tick multicasts into batch envelopes (sender-local)")
		cons    = fs.String("consistency", "leased", "read consistency: leased|linearizable|stale (read)")
		leases  = fs.Int("lease-ticks", 0, "read-lease bound in group ticks; 0 disables the read path (serve must set it for read to work)")
		timeout = fs.Duration("timeout", 30*time.Second, "operation deadline")
		metrics = fs.String("metrics", "", "address to serve /metrics, /traces and /journal on (serve)")
		statsEv = fs.Duration("stats", 10*time.Second, "interval between stats lines (serve; 0 disables)")
		journal = fs.Int("journal", 0, "flight-recorder capacity in events (0 keeps the default 4096-event ring); inspect via /journal on the metrics address")
		pprofOn = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the metrics address (serve)")

		shards   = fs.Int("shards", 0, "shard the fabric: serve hosts <group>/s0..N-1 as N independent ordered groups; invoke/read route by key over a consistent-hash ring (0 = unsharded)")
		ringSeed = fs.Uint64("ring-seed", 0, "consistent-hash placement seed; every router and migration driver of one fabric must agree on it")

		advertise  = fs.String("advertise", "", "address peers should dial back (required when -listen binds a wildcard behind NAT/containers)")
		sendQueue  = fs.Int("send-queue", 0, "per-peer send queue depth in frames (0 = transport default)")
		flushDelay = fs.Duration("flush-delay", 0, "wait this long for more frames before flushing (0 = flush immediately; trades latency for fewer syscalls)")
	)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	if *journal > 0 {
		// Swap the process-wide recorder before any component interns its
		// IDs against it; everything built below records into this ring.
		obs.Default().Flight = flight.New(*journal)
	}

	ep, err := tcpnet.ListenConfig(ids.ProcessID(*id), *listen, tcpnet.Config{
		AdvertiseAddr: *advertise,
		QueueLen:      *sendQueue,
		FlushDelay:    *flushDelay,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s listening on %s\n", *id, ep.Addr())
	for _, pair := range strings.Split(*peers, ",") {
		if pair == "" {
			continue
		}
		name, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("bad -peers entry %q (want id=host:port)", pair)
		}
		ep.AddPeer(ids.ProcessID(name), addr)
	}

	gcfg := gcs.GroupConfig{Order: parseOrder(*order), Batch: *batch, LeaseTicks: *leases}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd {
	case "serve":
		return serveCmd(ctx, ep, *group, ids.ProcessID(*contact), gcfg, *metrics, *statsEv, *pprofOn, *shards)
	case "invoke":
		return invokeCmd(ctx, ep, *group, ids.ProcessID(*contact), gcfg, *style, *method, *cargs, *mode, *shards, *ringSeed)
	case "read":
		return readCmd(ctx, ep, *group, ids.ProcessID(*contact), gcfg, *method, *cargs, *cons, *shards, *ringSeed)
	case "peer":
		return peerCmd(ep, *group, ids.ProcessID(*contact), gcfg)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func parseOrder(s string) gcs.OrderMode {
	switch s {
	case "symmetric":
		return gcs.OrderSymmetric
	case "causal":
		return gcs.OrderCausal
	default:
		return gcs.OrderSequencer
	}
}

func parseMode(s string) core.ReplyMode {
	switch s {
	case "oneway":
		return core.OneWay
	case "majority":
		return core.Majority
	case "all":
		return core.All
	default:
		return core.First
	}
}

// shardGroups names the N groups of a sharded fabric: <group>/s0..sN-1.
// Serve, invoke and read all derive the same names from -group and
// -shards, so pointing them at the same flags composes a fabric.
func shardGroups(group string, shards int) []string {
	names := make([]string, shards)
	for k := range names {
		names[k] = fmt.Sprintf("%s/s%d", group, k)
	}
	return names
}

// serveCmd hosts one replica of a simple echo/uppercase service, or — with
// -shards N — one replica of each of the fabric's N shard groups, each
// backed by a shard.Store (put/get/del/len plus the migration protocol).
func serveCmd(ctx context.Context, ep *tcpnet.Endpoint, group string, contact ids.ProcessID, gcfg gcs.GroupConfig, metricsAddr string, statsEvery time.Duration, pprofOn bool, shards int) error {
	svc := core.NewServiceObs(ep, obs.Default())
	defer svc.Close()
	me := svc.ID()

	var servers []*core.Server
	if shards > 0 {
		for _, name := range shardGroups(group, shards) {
			st := shard.NewStore(name)
			srv, err := svc.Serve(ctx, core.ServeConfig{
				Group:    ids.GroupID(name),
				Contact:  contact,
				Handler:  st.Handle,
				Snapshot: st.Snapshot,
				Restore:  st.Restore,
				GCS:      gcfg,
			})
			if err != nil {
				return fmt.Errorf("shard group %q: %w", name, err)
			}
			servers = append(servers, srv)
		}
		fmt.Printf("serving %d shard groups %q/s0..s%d; view %v\n", shards, group, shards-1, servers[0].GroupView())
	} else {
		srv, err := svc.Serve(ctx, core.ServeConfig{
			Group:   ids.GroupID(group),
			Contact: contact,
			Handler: func(method string, args []byte) ([]byte, error) {
				switch method {
				case "echo":
					return args, nil
				case "upper":
					return []byte(strings.ToUpper(string(args))), nil
				case "whoami":
					return []byte(me), nil
				default:
					return nil, fmt.Errorf("unknown method %q", method)
				}
			},
			GCS: gcfg,
		})
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		fmt.Printf("serving group %q; view %v\n", group, srv.GroupView())
	}

	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			for _, srv := range servers {
				_ = srv.Close()
			}
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(svc.Obs()))
		endpoints := "/metrics, /traces, /journal and /journal/analyze"
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			endpoints += " and /debug/pprof/"
		}
		fmt.Printf("metrics on http://%s: %s\n", ln.Addr(), endpoints)
		go func() { _ = http.Serve(ln, mux) }()
	}

	stop := make(chan struct{})
	defer close(stop)
	if statsEvery > 0 {
		go func() {
			t := time.NewTicker(statsEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					// With -shards this is the cross-shard aggregate: the
					// field-wise sum of every hosted group's counters.
					var agg gcs.Stats
					for _, srv := range servers {
						agg = agg.Plus(srv.Stats())
					}
					fmt.Printf("stats: %s\n", agg)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("leaving group")
	var firstErr error
	for _, srv := range servers {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// shardedConfig assembles the router config for a -shards fabric: every
// shard group is reached through the same -contact process (which serves
// all N groups when started with the same -shards value).
func shardedConfig(group string, shards int, ringSeed uint64, contact ids.ProcessID, bc core.BindConfig) core.ShardConfig {
	cfg := core.ShardConfig{RingSeed: ringSeed, Bind: bc}
	for _, name := range shardGroups(group, shards) {
		cfg.Shards = append(cfg.Shards, core.ShardSpec{
			Name:    name,
			Group:   ids.GroupID(name),
			Contact: contact,
		})
	}
	return cfg
}

// invokeCmd binds and performs one invocation. With -shards N it binds the
// whole fabric and routes the call by key ("put k=v" / "get k" route on
// k), printing which shard the ring resolved.
func invokeCmd(ctx context.Context, ep *tcpnet.Endpoint, group string, contact ids.ProcessID, gcfg gcs.GroupConfig, style, method, args, mode string, shards int, ringSeed uint64) error {
	svc := core.NewServiceObs(ep, obs.Default())
	defer svc.Close()
	bc := core.BindConfig{
		Contact: contact,
		Style:   core.Open,
		GCS:     gcfg,
	}
	if style == "closed" {
		bc.Style = core.Closed
	}

	var inv core.Invoker
	if shards > 0 {
		sb, err := svc.BindSharded(ctx, shardedConfig(group, shards, ringSeed, contact, bc))
		if err != nil {
			return err
		}
		defer sb.Close()
		key := args
		if k, _, ok := strings.Cut(args, "="); ok {
			key = k
		}
		fmt.Printf("bound %d shards (%s); key %q -> %s\n", shards, bc.Style, key, sb.Ring().Owner(key))
		inv = sb
	} else {
		bc.ServerGroup = ids.GroupID(group)
		b, err := svc.Bind(ctx, bc)
		if err != nil {
			return err
		}
		defer b.Close()
		fmt.Printf("bound (%s) via %s; servers %v\n", bc.Style, b.RequestManager(), b.Servers())
		inv = b
	}

	t0 := time.Now()
	replies, err := inv.Call(ctx, method, []byte(args), core.WithMode(parseMode(mode)))
	if err != nil {
		return err
	}
	fmt.Printf("%d replies in %s:\n", len(replies), time.Since(t0).Round(time.Microsecond))
	for _, r := range replies {
		if r.Err != nil {
			fmt.Printf("  %s -> error: %v\n", r.Server, r.Err)
		} else {
			fmt.Printf("  %s -> %q\n", r.Server, r.Payload)
		}
	}
	return nil
}

// readCmd binds and performs one read through the lease-based read path
// (DESIGN.md §14). The server group must be serving with -lease-ticks set
// or the read is refused with ErrReadDisabled.
func readCmd(ctx context.Context, ep *tcpnet.Endpoint, group string, contact ids.ProcessID, gcfg gcs.GroupConfig, method, args, cons string, shards int, ringSeed uint64) error {
	svc := core.NewServiceObs(ep, obs.Default())
	defer svc.Close()
	bc := core.BindConfig{Contact: contact, Style: core.Open, GCS: gcfg}

	if shards > 0 {
		sb, err := svc.BindSharded(ctx, shardedConfig(group, shards, ringSeed, contact, bc))
		if err != nil {
			return err
		}
		defer sb.Close()
		fmt.Printf("bound %d shards (open); key %q -> %s\n", shards, args, sb.Ring().Owner(args))
		t0 := time.Now()
		payload, err := sb.Read(ctx, method, []byte(args), core.WithConsistency(parseConsistency(cons)))
		if err != nil {
			return err
		}
		fmt.Printf("%s read in %s: %q (sessions %v)\n", cons, time.Since(t0).Round(time.Microsecond), payload, sb.SessionStamps())
		return nil
	}

	bc.ServerGroup = ids.GroupID(group)
	b, err := svc.Bind(ctx, bc)
	if err != nil {
		return err
	}
	defer b.Close()
	fmt.Printf("bound (open) via %s; servers %v\n", b.RequestManager(), b.Servers())

	t0 := time.Now()
	payload, err := b.Read(ctx, method, []byte(args), core.WithConsistency(parseConsistency(cons)))
	if err != nil {
		return err
	}
	fmt.Printf("%s read in %s: %q (session %v)\n", cons, time.Since(t0).Round(time.Microsecond), payload, b.SessionStamp())
	return nil
}

func parseConsistency(s string) core.Consistency {
	switch s {
	case "linearizable":
		return core.Linearizable
	case "stale":
		return core.Stale
	default:
		return core.Leased
	}
}

// peerCmd joins (or creates) a lively peer group and relays stdin lines.
func peerCmd(ep *tcpnet.Endpoint, group string, contact ids.ProcessID, gcfg gcs.GroupConfig) error {
	node := gcs.NewNodeObs(ep, obs.Default())
	defer node.Close()
	gcfg.Liveness = gcs.Lively

	var g *gcs.Group
	var err error
	if contact.Nil() {
		g, err = node.Create(ids.GroupID(group), gcfg)
	} else {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		g, err = node.Join(ctx, ids.GroupID(group), contact, gcfg)
	}
	if err != nil {
		return err
	}
	fmt.Printf("in group %q as %s; type lines to multicast\n", group, node.ID())

	go func() {
		for ev := range g.Events() {
			switch ev.Type {
			case gcs.EventDeliver:
				fmt.Printf("[%s] %s\n", ev.Deliver.Sender, ev.Deliver.Payload)
			case gcs.EventView:
				fmt.Printf("** view %v\n", ev.View.Members)
			}
		}
	}()

	scan := bufio.NewScanner(os.Stdin)
	for scan.Scan() {
		line := scan.Text()
		if line == "/quit" {
			break
		}
		if err := g.Multicast(context.Background(), []byte(line)); err != nil {
			return err
		}
	}
	return g.Leave()
}
