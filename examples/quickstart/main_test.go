package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// The example runs on an in-memory network and checks its own claims; this
// runs it and reads them back from its output: every wait-for-all call is
// answered by all three replicas with the same counter, the reads see every
// earlier increment, the pipelined futures complete in issue order within
// their deadline, and the replicas end in the same state.
func TestQuickstartExample(t *testing.T) {
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
		"increment #1 (wait-for-all): all 3 replicas -> 1",
		"increment #3 (wait-for-all): all 3 replicas -> 3",
		"read (wait-for-majority): ",
		"read (wait-for-first): server-",
		"pipelined 3 increments through one outstanding-call window: all 3 replicas -> 5, 6, 7",
		"all three replicas hold the same counter, 7",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
