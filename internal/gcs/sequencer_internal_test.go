package gcs

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"newtop/internal/ids"
)

// countEP is a null endpoint that counts the frames sent through it.
type countEP struct {
	*nullEP
	frames atomic.Int64
}

func (e *countEP) Send(ids.ProcessID, []byte) error {
	e.frames.Add(1)
	return nil
}

// MulticastAsSequencer sends only at the view's sequencer, and there the
// message holds its global slot when the call returns. Anywhere else it
// returns ErrNotSequencer having sent nothing: no frame leaves, and the
// member's own multicasts are as they were.
func TestMulticastAsSequencerSendsOnlyAtTheSequencer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		peers  []ids.ProcessID
		leader bool
	}{
		{"sequencer", []ids.ProcessID{"c/p1", "c/p2"}, true}, // b/me sorts first: it leads
		{"follower", []ids.ProcessID{"a/p1", "c/p2"}, false}, // a/p1 leads
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := &countEP{nullEP: newNullEP("b/me")}
			n := NewNode(ep)
			defer n.Close()
			g, err := n.Create("seq", quiescentConfig(OrderSequencer))
			if err != nil {
				t.Fatal(err)
			}
			members := ids.SortProcesses(append([]ids.ProcessID{"b/me"}, tc.peers...))
			g.mu.Lock()
			g.installViewLocked(View{Seq: 2, Installer: members[0], Members: members})
			g.mu.Unlock()
			for i := 0; i < 2; i++ {
				<-g.Events() // founding + forced view
			}

			g.mu.Lock()
			sent, assigned := g.stats.AppSent, g.assignHigh
			g.mu.Unlock()
			frames := ep.frames.Load()
			err = g.MulticastAsSequencer(context.Background(), []byte("relay"))
			g.mu.Lock()
			dSent, dAssigned := g.stats.AppSent-sent, g.assignHigh-assigned
			g.mu.Unlock()
			dFrames := ep.frames.Load() - frames

			if tc.leader {
				if err != nil || dSent != 1 || dAssigned != 1 || dFrames != int64(len(tc.peers)) {
					t.Fatalf("at the sequencer: err %v, %d sent, %d assigned, %d frames; want nil, 1, 1, %d",
						err, dSent, dAssigned, dFrames, len(tc.peers))
				}
				return
			}
			if !errors.Is(err, ErrNotSequencer) || dSent != 0 || dAssigned != 0 || dFrames != 0 {
				t.Fatalf("at a follower: err %v, %d sent, %d assigned, %d frames; want ErrNotSequencer and nothing sent",
					err, dSent, dAssigned, dFrames)
			}
		})
	}
}
