// WAN client: open groups, request-manager failure and smart-proxy
// rebinding over simulated Internet paths.
//
// Three replicas run on a Newcastle LAN; the client sits in Pisa behind a
// high-latency path — exactly the situation where the paper's open-group
// configuration wins. The client invokes through a smart proxy; when its
// request manager is crashed mid-session, the proxy rebinds to a
// surviving replica and retries with the same call number, and the
// retained-reply mechanism guarantees the retry does not re-execute.
//
//	go run ./examples/wan-client
package main

import (
	"context"
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

func timers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    40 * time.Millisecond,
		SuspectTimeout: 400 * time.Millisecond,
		Resend:         150 * time.Millisecond,
		FlushTimeout:   600 * time.Millisecond,
		Tick:           10 * time.Millisecond,
	}
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the WAN world, invokes through the proxy across a request
// manager's crash and prints what happened to out; it fails if any claim
// the output makes does not hold.
func run(ctx context.Context, out io.Writer) error {
	// The evaluation profile: ~ms LAN, tens-of-ms Internet paths.
	net := memnet.New(netsim.New(netsim.EvalProfile(), 1))

	var contact ids.ProcessID
	var executions [3]atomic.Int64
	for i := 0; i < 3; i++ {
		i := i
		id := ids.ProcessID(fmt.Sprintf("srv-%d.newcastle", i))
		ep, err := net.Endpoint(id, netsim.SiteNewcastle)
		if err != nil {
			return err
		}
		svc := core.NewService(ep)
		defer svc.Close()
		if _, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "quotes",
			Contact: contact,
			Handler: func(method string, args []byte) ([]byte, error) {
				executions[i].Add(1)
				return []byte(fmt.Sprintf("quote %q served by srv-%d", args, i)), nil
			},
			GCS: timers(),
		}); err != nil {
			return err
		}
		if i == 0 {
			contact = id
		}
	}

	cep, err := net.Endpoint("client.pisa", netsim.SitePisa)
	if err != nil {
		return err
	}
	client := core.NewService(cep)
	defer client.Close()

	proxy, err := client.NewProxy(ctx, core.BindConfig{
		ServerGroup: "quotes",
		Contact:     "srv-1.newcastle", // bind via a non-leader replica
		Style:       core.Open,
		GCS:         timers(),
	})
	if err != nil {
		return err
	}
	defer proxy.Close()
	rm := proxy.Binding().RequestManager()
	fmt.Fprintf(out, "client in Pisa bound over the WAN; request manager: %s\n\n", rm)

	invoke := func(label string) error {
		t0 := time.Now()
		replies, err := proxy.Call(ctx, "get", []byte(label), core.WithMode(core.First))
		if err != nil {
			return fmt.Errorf("invoke %s: %w", label, err)
		}
		fmt.Fprintf(out, "%-12s -> %-35q  (%.1f ms, via %s)\n",
			label, string(replies[0].Payload),
			float64(time.Since(t0))/float64(time.Millisecond), replies[0].Server)
		return nil
	}

	before := []string{"ACME", "GLOBEX", "INITECH"}
	for _, l := range before {
		if err := invoke(l); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "\n*** crashing the request manager %s ***\n", rm)
	net.Sim().Crash(rm)

	// The next call finds the binding broken, rebinds to a survivor and
	// retries with the same call number — served exactly once.
	after := []string{"AFTER-CRASH", "HOOLI", "PIEDPIPER"}
	if err := invoke(after[0]); err != nil {
		return err
	}
	fmt.Fprintf(out, "rebound to request manager: %s\n", proxy.Binding().RequestManager())
	for _, l := range after[1:] {
		if err := invoke(l); err != nil {
			return err
		}
	}

	// Open-group distribution runs every call at every live replica: the
	// calls before the crash at all three, the rest at the two survivors.
	// A wait-for-first call returns at its first reply, so the other
	// replicas may still be running the last one: wait for the count to
	// arrive, then check that nothing ran twice.
	want := int64(len(before)*3 + len(after)*2)
	total := func() int64 {
		n := int64(0)
		for i := range executions {
			n += executions[i].Load()
		}
		return n
	}
	for total() < want {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("executions: %d of %d (srv-0/1/2 ran %d/%d/%d): %w", total(), want,
				executions[0].Load(), executions[1].Load(), executions[2].Load(), err)
		}
		time.Sleep(time.Millisecond)
	}
	if n := total(); n != want {
		return fmt.Errorf("executions: %d, want %d: a call ran twice", n, want)
	}
	fmt.Fprintf(out, "\ntotal executions across replicas: %d (%d calls x 3 replicas before the crash + %d calls x 2 survivors after it = %d; the retry ran once)\n",
		total(), len(before), len(after), want)
	return nil
}
