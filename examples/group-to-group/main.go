// Group-to-group invocation (paper §4.3): a replicated client group gx
// invokes a replicated server group gy through a client monitor group gz.
//
// Three workers (gx) each process the same totally-ordered stream of jobs;
// for every job, every worker issues the same call (same call number) to
// the audit service gy. The request manager in gy filters the duplicate
// requests, forwards one copy into gy, and multicasts the aggregated reply
// in gz so all workers receive it atomically — the audit service executes
// each job exactly once, even though three clients asked.
//
//	go run ./examples/group-to-group
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"newtop/internal/core"
	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/obs"
	"newtop/internal/transport/memnet"
)

func timers() gcs.GroupConfig {
	return gcs.GroupConfig{
		TimeSilence:    10 * time.Millisecond,
		SuspectTimeout: 300 * time.Millisecond,
		Resend:         60 * time.Millisecond,
		FlushTimeout:   400 * time.Millisecond,
		Tick:           5 * time.Millisecond,
	}
}

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the three groups on an in-memory network, runs the jobs and
// prints what happened to out; it fails if any claim the output makes does
// not hold.
func run(ctx context.Context, out io.Writer) error {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	// One observability domain for the run: the request manager's duplicate
	// filter counts into it.
	o := obs.New()

	// --- the server group gy: a replicated audit log ---
	var auditExecutions atomic.Int64
	var gyContact ids.ProcessID
	for i := 0; i < 2; i++ {
		id := ids.ProcessID(fmt.Sprintf("audit-%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			return err
		}
		svc := core.NewServiceObs(ep, o)
		defer svc.Close()
		if _, err := svc.Serve(ctx, core.ServeConfig{
			Group:   "gy-audit",
			Contact: gyContact,
			Handler: func(method string, args []byte) ([]byte, error) {
				auditExecutions.Add(1)
				return []byte("recorded: " + string(args)), nil
			},
			GCS: timers(),
		}); err != nil {
			return err
		}
		if i == 0 {
			gyContact = id
		}
	}

	// --- the client group gx: three workers sharing a job stream ---
	const workers = 3
	services := make([]*core.Service, workers)
	gxGroups := make([]*gcs.Group, workers)
	for i := 0; i < workers; i++ {
		id := ids.ProcessID(fmt.Sprintf("worker-%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			return err
		}
		services[i] = core.NewServiceObs(ep, o)
		defer services[i].Close()

		cfg := timers()
		cfg.Order = gcs.OrderSymmetric
		var g *gcs.Group
		if i == 0 {
			g, err = services[i].Node().Create("gx-workers", cfg)
		} else {
			g, err = services[i].Node().Join(ctx, "gx-workers", services[0].ID(), cfg)
		}
		if err != nil {
			return err
		}
		gxGroups[i] = g
	}
	for _, g := range gxGroups {
		for len(g.View().Members) != workers {
			time.Sleep(2 * time.Millisecond)
		}
	}
	fmt.Fprintf(out, "client group gx: %v\n", gxGroups[0].View().Members)

	// --- every worker attaches gx to gy through the monitor group gz ---
	g2gs := make([]*core.G2G, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g2g, err := services[i].BindGroupToGroup(ctx, gxGroups[i], core.BindConfig{
				ServerGroup: "gy-audit",
				Contact:     gyContact, // the request manager
				GCS:         timers(),
			})
			if err != nil {
				errs <- fmt.Errorf("worker-%d bind: %w", i, err)
				return
			}
			g2gs[i] = g2g
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	defer func() {
		for _, g := range g2gs {
			if g != nil {
				_ = g.Close()
			}
		}
	}()
	fmt.Fprintf(out, "monitor group gz formed; request manager: %s\n\n", g2gs[0].RequestManager())

	// --- the jobs: every worker issues every call; gy executes each once ---
	jobs := []string{"payment#1", "payment#2", "refund#3"}
	for n, job := range jobs {
		results := make([]string, workers)
		var answered atomic.Int64
		for i := 0; i < workers; i++ {
			i, job := i, job
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Every worker names the same deterministic call number, so the
				// request manager can filter the duplicates (WithCallID is
				// mandatory on the group-to-group surface).
				replies, err := g2gs[i].Call(ctx, "audit", []byte(job),
					core.WithCallID(ids.CallID{Number: uint64(n + 1)}), core.WithMode(core.All))
				if err != nil {
					errs <- fmt.Errorf("worker-%d job %s: %w", i, job, err)
					return
				}
				results[i] = string(replies[0].Payload)
				answered.Add(1)
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
		}
		for i := 1; i < workers; i++ {
			if results[i] != results[0] {
				return fmt.Errorf("workers disagree: %q vs %q", results[0], results[i])
			}
		}
		fmt.Fprintf(out, "job %-10s -> %d of %d workers answered, each once, with %q\n", job, answered.Load(), workers, results[0])
	}

	perJob := int64(2) // two gy replicas execute each forwarded call once
	want := int64(len(jobs)) * perJob
	got := auditExecutions.Load()
	fmt.Fprintf(out, "\naudit executions: %d (want %d = %d jobs x %d replicas)\n", got, want, len(jobs), perJob)
	if got != want {
		return fmt.Errorf("exactly-once violated: %d executions, want %d", got, want)
	}
	// A worker may hold its answer before the request manager has seen its
	// own copy of the call (the answer overtook it): wait for every copy.
	dups := o.Reg.Counter("core_monitor_dup_filtered")
	wantDups := uint64(len(jobs) * (workers - 1))
	for dups.Value() < wantDups && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintf(out, "duplicate requests filtered by the request manager: %d (want %d = %d jobs x %d extra copies)\n",
		dups.Value(), wantDups, len(jobs), workers-1)
	if dups.Value() != wantDups {
		return fmt.Errorf("duplicate filter: %d copies filtered, want %d", dups.Value(), wantDups)
	}
	return nil
}
