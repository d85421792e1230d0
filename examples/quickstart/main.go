// Quickstart: a three-replica counter service invoked through the NewTop
// object group service.
//
// Three server processes form a server group ("counter"); a client binds
// to it with an open client/server group and invokes it with each of the
// reply modes, then pipelines calls through InvokeAsync under a deadline.
// Everything runs inside one OS process on the in-memory simulated network,
// but the code is identical for real deployments over TCP (see
// examples/wan-client and cmd/newtop-node).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// timers suited to the fast in-memory profile.
func timers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    10 * time.Millisecond,
		SuspectTimeout: 200 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   300 * time.Millisecond,
		Tick:           5 * time.Millisecond,
	}
}

// counterOf decodes a counter value.
func counterOf(payload []byte) uint64 { return binary.BigEndian.Uint64(payload) }

// agree checks that replies come from want replicas and report the counter
// value n.
func agree(what string, replies []core.Reply, want int, n uint64) error {
	if len(replies) != want {
		return fmt.Errorf("%s: %d replies, want %d", what, len(replies), want)
	}
	for _, r := range replies {
		if r.Err != nil {
			return fmt.Errorf("%s: %s: %w", what, r.Server, r.Err)
		}
		if got := counterOf(r.Payload); got != n {
			return fmt.Errorf("%s: %s reports %d, want %d", what, r.Server, got, n)
		}
	}
	return nil
}

// run builds the server group and the client on an in-memory network,
// invokes it and prints what happened to out; it fails if any claim the
// output makes does not hold.
func run(ctx context.Context, out io.Writer) error {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))

	// --- three replicas form the server group ---
	var contact ids.ProcessID
	var counters [3]atomic.Int64
	for i := 0; i < 3; i++ {
		id := ids.ProcessID(fmt.Sprintf("server-%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			return err
		}
		svc := core.NewService(ep)
		defer svc.Close()

		// Each replica applies invocations in the group's total order, so
		// the counters stay identical without any extra coordination.
		counter := &counters[i]
		handler := func(method string, args []byte) ([]byte, error) {
			switch method {
			case "increment":
				v := counter.Add(1)
				out := make([]byte, 8)
				binary.BigEndian.PutUint64(out, uint64(v))
				return out, nil
			case "read":
				out := make([]byte, 8)
				binary.BigEndian.PutUint64(out, uint64(counter.Load()))
				return out, nil
			default:
				return nil, fmt.Errorf("unknown method %q", method)
			}
		}
		if _, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "counter",
			Contact: contact,
			Handler: handler,
			GCS:     timers(),
		}); err != nil {
			return err
		}
		if i == 0 {
			contact = id
		}
		fmt.Fprintf(out, "replica %s joined the server group\n", id)
	}

	// --- a client binds and invokes ---
	cep, err := net.Endpoint("client", netsim.SiteLAN)
	if err != nil {
		return err
	}
	client := core.NewService(cep)
	defer client.Close()

	binding, err := client.Bind(ctx, core.BindConfig{
		ServerGroup: "counter",
		Contact:     contact,
		Style:       core.Open,
		GCS:         timers(),
	})
	if err != nil {
		return err
	}
	defer binding.Close()
	fmt.Fprintf(out, "client bound; request manager is %s\n\n", binding.RequestManager())

	for i := 1; i <= 3; i++ {
		replies, err := binding.Call(ctx, "increment", nil, core.WithMode(core.All))
		if err != nil {
			return err
		}
		what := fmt.Sprintf("increment #%d (wait-for-all)", i)
		if err := agree(what, replies, 3, uint64(i)); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: all 3 replicas -> %d\n", what, i)
	}

	replies, err := binding.Call(ctx, "read", nil, core.WithMode(core.Majority))
	if err != nil {
		return err
	}
	if len(replies) < 2 {
		return fmt.Errorf("read (wait-for-majority): %d replies, want at least 2", len(replies))
	}
	if err := agree("read (wait-for-majority)", replies, len(replies), 3); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nread (wait-for-majority): %d replicas -> 3\n", len(replies))

	if _, err := binding.Call(ctx, "increment", nil, core.WithMode(core.OneWay)); err != nil {
		return err
	}
	fmt.Fprintln(out, "\none-way increment issued (no reply expected)")

	// The read is ordered after the one-way increment, its own client's
	// earlier call, at every replica.
	replies, err = binding.Call(ctx, "read", nil) // wait-for-first is the default mode
	if err != nil {
		return err
	}
	if err := agree("read (wait-for-first)", replies, 1, 4); err != nil {
		return err
	}
	fmt.Fprintf(out, "read (wait-for-first): %s -> 4\n", replies[0].Server)

	// --- pipelined asynchronous invocation ---
	// InvokeAsync returns a future immediately, so a window of calls can
	// be in flight at once instead of one blocking round trip at a time
	// (see README "Pipelined invocation"). The futures complete in issue
	// order, each within the deadline of the context it was launched under.
	pipeCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	calls := make([]*core.Call, 0, 3)
	for i := 0; i < 3; i++ {
		c, err := binding.InvokeAsync(pipeCtx, "increment", nil, core.WithMode(core.All))
		if err != nil {
			return err
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		replies, err := c.Await(pipeCtx)
		if err != nil {
			return err
		}
		if err := agree(fmt.Sprintf("pipelined increment #%d", i+1), replies, 3, uint64(5+i)); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "\npipelined 3 increments through one outstanding-call window: all 3 replicas -> 5, 6, 7")

	// Every replica has answered the last wait-for-all call, so each has
	// applied everything before it.
	for i := range counters {
		if n := counters[i].Load(); n != 7 {
			return fmt.Errorf("replica server-%d holds %d, want 7", i, n)
		}
	}
	fmt.Fprintln(out, "\nall three replicas hold the same counter, 7: total-order delivery at work")
	return nil
}
