// Package flighttest holds the flight recorder's test helper: a failed
// protocol test logs the journal it recorded.
package flighttest

import (
	"strings"
	"testing"
	"time"

	"newtop/internal/obs/flight"
)

// DumpOnFailure registers a cleanup that, if the test fails, logs the
// tail of the journal recorded since this call — the flight-recorder
// twin of leakcheck.Check. max bounds the dumped event count (0 means
// 200). Usage, first line of a protocol test:
//
//	flighttest.DumpOnFailure(t, obs.Default().Flight, 0)
func DumpOnFailure(t testing.TB, r *flight.Recorder, max int) {
	t.Helper()
	if !r.Enabled() {
		return
	}
	if max <= 0 {
		max = 200
	}
	start := r.Cursor()
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		events, droppedU := r.Since(start)
		dropped := int(droppedU)
		if len(events) > max {
			dropped += len(events) - max
			events = events[len(events)-max:]
		}
		if len(events) == 0 {
			return
		}
		m := r.Meta()
		var sb strings.Builder
		flight.WriteText(&sb, events, m)
		t.Logf("flight journal (%d events, %d older dropped):\n%s", len(events), dropped, sb.String())
		if stalls := flight.DetectStalls(events, m, flight.StallConfig{MinAge: 250 * time.Millisecond}); len(stalls) > 0 {
			for _, s := range stalls {
				t.Logf("flight stall: %s", s)
			}
		}
	})
}
