package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// The example runs on the simulated WAN and checks its own claims; this
// runs it and reads them back from its output: the proxy rebinds to a
// survivor when its request manager crashes, and every call runs exactly
// once at every replica that was live for it — 3 calls at 3 replicas, then
// 3 at the 2 survivors, 15 executions, the retried call among them once.
func TestWANClientExample(t *testing.T) {
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
		"request manager: srv-1.newcastle",
		"*** crashing the request manager srv-1.newcastle ***",
		`AFTER-CRASH  -> "quote \"AFTER-CRASH\" served by srv-`,
		"rebound to request manager: srv-",
		"total executions across replicas: 15 (3 calls x 3 replicas before the crash + 3 calls x 2 survivors after it = 15; the retry ran once)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
