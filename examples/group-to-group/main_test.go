package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// The example runs on an in-memory network and checks its own claims; this
// runs it and reads them back from its output: every worker's call is
// answered, once, with the same reply; each job executes once per audit
// replica; and the request manager filters every duplicate copy.
func TestGroupToGroupExample(t *testing.T) {
	budget := 2 * time.Second
	if raceEnabled {
		budget = 20 * time.Second // the race detector slows every process tenfold
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
		`job payment#1  -> 3 of 3 workers answered, each once, with "recorded: payment#1"`,
		`job payment#2  -> 3 of 3 workers answered, each once, with "recorded: payment#2"`,
		`job refund#3   -> 3 of 3 workers answered, each once, with "recorded: refund#3"`,
		"audit executions: 6 (want 6 ",
		"duplicate requests filtered by the request manager: 6 (want 6 ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}
