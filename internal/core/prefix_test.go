package core

import (
	"testing"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/vclock"
)

// The sequencer may order a later-stamped message of one sender before an
// earlier-stamped one of another. A member that has applied only the first
// must not claim the second — comparing whole stamps did, which let a
// session's read overtake its own write at a lagging replica and let a
// joiner skip a write its snapshot did not contain.
func TestExecutedPrefixIsPerSender(t *testing.T) {
	_, srv := soloServer(t, "m")
	covers := func(s vclock.Stamp) bool {
		srv.execMu.Lock()
		defer srv.execMu.Unlock()
		return srv.coversLocked(s)
	}
	srv.onGroupView(&gcs.View{Seq: 2, Members: []ids.ProcessID{"m", "s0", "s1"}})
	late, early := vclock.Stamp{Time: 10, Sender: "s1"}, vclock.Stamp{Time: 8, Sender: "s0"}

	srv.noteApplied(late)
	if !covers(late) || !covers(vclock.Stamp{Time: 9, Sender: "s1"}) {
		t.Fatal("a sender's applied delivery, or an earlier one of its, is not covered")
	}
	if covers(early) {
		t.Fatal("covers s0's delivery after applying only a later-stamped one of s1")
	}
	if !covers(vclock.Stamp{}) {
		t.Fatal("the zero stamp (no floor) must always be covered")
	}
	srv.cfg.Snapshot = func() ([]byte, error) { return nil, nil }
	snap, err := srv.takeSnapshot()
	if err != nil || len(snap.Applied) == 0 {
		t.Fatalf("snapshot: %+v, %v", snap, err)
	}
	for _, a := range snap.Applied {
		if a.Sender == "s0" {
			t.Fatalf("snapshot claims a delivery of s0: %+v", snap.Applied)
		}
	}

	srv.noteApplied(early)
	if !covers(early) {
		t.Fatal("s0's delivery not covered after applying it")
	}
	srv.execMu.Lock()
	pos := srv.lastExec
	srv.execMu.Unlock()
	if pos != early {
		t.Fatalf("position %v, want the newest applied delivery %v, not the largest stamp", pos, early)
	}

	// A sender that left the group has nothing more to deliver: its entry
	// goes, and whatever it sent counts as covered.
	srv.onGroupView(&gcs.View{Seq: 3, Members: []ids.ProcessID{"m", "s0"}})
	srv.execMu.Lock()
	_, kept := srv.applied["s1"]
	srv.execMu.Unlock()
	if kept || !covers(vclock.Stamp{Time: 99, Sender: "s1"}) {
		t.Fatalf("departed sender: entry kept=%v, covered=%v", kept, covers(vclock.Stamp{Time: 99, Sender: "s1"}))
	}
	if covers(vclock.Stamp{Time: 99, Sender: "s0"}) {
		t.Fatal("covers a delivery a present sender has yet to make")
	}
}
