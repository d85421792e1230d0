package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// The example runs on an in-memory network and checks its own claims; this
// runs it and reads them back from its output: the closed binding holds all
// three replicas, a wait-for-all write survives a crash with the two
// survivors' replies, the sharded writes are all read back and all placed,
// a live AddShard loses no key, and a shard masks its own replica's crash.
func TestReplicatedKVExample(t *testing.T) {
	budget := 5 * time.Second
	if raceEnabled {
		budget = 30 * time.Second // the race detector slows every process tenfold
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	var out bytes.Buffer
	start := time.Now()
	if err := run(ctx, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	t.Logf("ran in %v:\n%s", time.Since(start), out.String())
	for _, want := range []string{
		"closed binding formed with replicas [replica-0 replica-1 replica-2]",
		`put colour=teal; leased read -> "teal"`,
		"*** crashing replica-2 ***",
		"write after crash acknowledged by 2 replicas; membership now [replica-0 replica-1]",
		"1200 writes in ",
		"172 leased reads verified",
		"AddShard migrated ~1/4 of the keyspace",
		"post-migration spot reads all correct",
		"succeeded with a replica down — failures stay shard-local",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
