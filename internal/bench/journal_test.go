package bench

import (
	"strings"
	"testing"

	"newtop/internal/obs/flight"
)

// TestJournalCheckEnforcesCallConservation: the journal check every smoke
// stage runs fails a window in which a call was launched and never
// completed, or completed twice.
func TestJournalCheckEnforcesCallConservation(t *testing.T) {
	rec := flight.New(64)
	launch := flight.Event{Type: flight.EvCallStart, Proc: 1, Sender: flight.NoSender, MsgSeq: 7}
	complete := flight.Event{Type: flight.EvStage, Proc: 1, Sender: flight.NoSender, MsgSeq: 7, A: flight.StageWord(flight.StClientInvoke, 0)}

	jr := beginJournalOf(rec)
	rec.Record(launch)
	rec.Record(complete)
	if _, err := jr.finish("clean", true); err != nil {
		t.Fatalf("a launched and completed call: %v", err)
	}
	rec.Record(launch)
	if _, err := jr.finish("lost completion", true); err == nil || !strings.Contains(err.Error(), "1 calls launched in the window never completed") {
		t.Fatalf("a call never completed: %v", err)
	}
	rec.Record(complete)
	rec.Record(complete)
	if _, err := jr.finish("double completion", true); err == nil || !strings.Contains(err.Error(), "completed more often than launched") {
		t.Fatalf("a call completed twice: %v", err)
	}
}
