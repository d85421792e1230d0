package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// The example runs on an in-memory network and checks its own claim; this
// runs it and reads it back from its output: all five members deliver the
// same transcript of every member's four lines, with no sequencer.
func TestChatExample(t *testing.T) {
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
	if got := strings.Count(out.String(), "\n  peer-"); got != expected {
		t.Errorf("transcript has %d lines, want %d", got, expected)
	}
	for _, want := range []string{
		"conference formed: [lan/peer-0 lan/peer-1 lan/peer-2 lan/peer-3 lan/peer-4]",
		"all 5 transcripts are identical — symmetric total order, no sequencer",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
