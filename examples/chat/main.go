// Chat: peer participation through the group communication service.
//
// Five conference members join one lively group with symmetric total
// ordering (the paper's recommendation for peer-to-peer interaction) and
// chat concurrently with one-way sends. Every member prints its delivered
// transcript; the transcripts are byte-identical — causality-preserving
// total order without any sequencer.
//
//	go run ./examples/chat
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/netsim"
	"newtop/internal/transport/memnet"
)

const (
	members  = 5
	perPeer  = 4
	expected = members * perPeer
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run forms the conference on an in-memory network, lets every member
// talk at once and prints the delivered transcript to out; it fails if
// the members' transcripts differ.
func run(ctx context.Context, out io.Writer) error {
	net := memnet.New(netsim.New(netsim.FastProfile(), 1))
	cfg := gcs.GroupConfig{
		Order:          gcs.OrderSymmetric,
		Liveness:       gcs.Lively, // peers heartbeat for the group's lifetime
		TimeSilence:    10 * time.Millisecond,
		SuspectTimeout: 300 * time.Millisecond,
		Resend:         50 * time.Millisecond,
		FlushTimeout:   400 * time.Millisecond,
		Tick:           5 * time.Millisecond,
		// Batch coalesces messages multicast within one tick into a single
		// wire envelope — invisible to delivery order, cheaper on the wire.
		Batch: true,
	}

	var nodes []*gcs.Node
	var groups []*gcs.Group
	for i := 0; i < members; i++ {
		id := ids.ProcessID(fmt.Sprintf("lan/peer-%d", i))
		ep, err := net.Endpoint(id, netsim.SiteLAN)
		if err != nil {
			return err
		}
		node := gcs.NewNode(ep)
		defer node.Close()
		nodes = append(nodes, node)

		var g *gcs.Group
		if i == 0 {
			g, err = node.Create("conference", cfg)
		} else {
			g, err = node.Join(ctx, "conference", nodes[0].ID(), cfg)
		}
		if err != nil {
			return err
		}
		groups = append(groups, g)
	}
	// Wait for the full view everywhere.
	for _, g := range groups {
		for len(g.View().Members) != members {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("conference formation: %w", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	fmt.Fprintf(out, "conference formed: %v\n\n", groups[0].View().Members)

	// A member that never delivers everything would keep its consumer
	// waiting: when ctx ends, closing the nodes closes their streams.
	defer context.AfterFunc(ctx, func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	})()

	// Each member collects its transcript.
	transcripts := make([][]string, members)
	var consumers sync.WaitGroup
	for i, g := range groups {
		i, g := i, g
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for ev := range g.Events() {
				if ev.Type != gcs.EventDeliver {
					continue
				}
				transcripts[i] = append(transcripts[i], string(ev.Deliver.Payload))
				if len(transcripts[i]) == expected {
					return
				}
			}
		}()
	}

	// Everyone talks at once (one-way sends, fully asynchronous).
	var speakers sync.WaitGroup
	lines := []string{"hello", "how is everyone", "nice weather in %s", "bye from %s"}
	for i, g := range groups {
		i, g := i, g
		speakers.Add(1)
		go func() {
			defer speakers.Done()
			for k := 0; k < perPeer; k++ {
				msg := fmt.Sprintf("peer-%d: %s", i, strings.ReplaceAll(lines[k%len(lines)], "%s", g.Me().Site()))
				if err := g.Multicast(ctx, []byte(msg)); err != nil {
					log.Printf("peer-%d multicast: %v", i, err)
					return
				}
			}
		}()
	}
	speakers.Wait()
	consumers.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transcripts: %w", err)
	}

	fmt.Fprintln(out, "transcript as delivered at peer-0:")
	for _, line := range transcripts[0] {
		fmt.Fprintln(out, "  "+line)
	}
	for i := 1; i < members; i++ {
		for j := range transcripts[0] {
			if transcripts[i][j] != transcripts[0][j] {
				return fmt.Errorf("TRANSCRIPTS DIVERGE at line %d: peer-0=%q peer-%d=%q",
					j, transcripts[0][j], i, transcripts[i][j])
			}
		}
	}
	fmt.Fprintf(out, "\nall %d transcripts are identical — symmetric total order, no sequencer\n", members)
	return nil
}
