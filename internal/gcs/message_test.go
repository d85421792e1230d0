package gcs

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"newtop/internal/ids"
)

// randomData builds an arbitrary dataMsg from a rand source.
// encodeMessage serialises msg unframed, as a node on a bare endpoint
// does. Product code encodes through Node.encode only: a frame without
// the node's header would be refused by a Mux channel.
func encodeMessage(msg any) []byte { return encodeFramed(nil, msg) }

func randomData(r *rand.Rand) *dataMsg {
	procs := []ids.ProcessID{"a", "b", "c", "d"}
	m := &dataMsg{
		Group:         ids.GroupID("g" + string(rune('0'+r.Intn(3)))),
		ViewSeq:       ids.ViewSeq(r.Uint64() % 1000),
		ViewInstaller: procs[r.Intn(len(procs))],
		Sender:        procs[r.Intn(len(procs))],
		Seq:           r.Uint64() % 10000,
		Lamport:       r.Uint64() % 100000,
		Null:          r.Intn(2) == 0,
	}
	if n := r.Intn(5); n > 0 {
		m.VC = make([]uint64, n)
		for i := range m.VC {
			m.VC[i] = r.Uint64() % 500
		}
	}
	if n := r.Intn(20); n > 0 {
		m.Payload = make([]byte, n)
		r.Read(m.Payload)
	}
	if n := r.Intn(5); n > 0 {
		m.Acks = make([]uint64, n)
		for i := range m.Acks {
			m.Acks[i] = r.Uint64() % 500
		}
	}
	for i := 0; i < r.Intn(4); i++ {
		m.Assigns = append(m.Assigns, assign{
			Sender: procs[r.Intn(len(procs))],
			Seq:    r.Uint64() % 100,
			Global: r.Uint64() % 100,
		})
	}
	return m
}

// eqData compares messages treating nil and empty containers alike.
func eqData(a, b *dataMsg) bool {
	if a.Group != b.Group || a.ViewSeq != b.ViewSeq || a.ViewInstaller != b.ViewInstaller ||
		a.Sender != b.Sender || a.Seq != b.Seq || a.Lamport != b.Lamport || a.Null != b.Null {
		return false
	}
	if string(a.Payload) != string(b.Payload) {
		return false
	}
	if len(a.VC) != len(b.VC) || len(a.Acks) != len(b.Acks) || len(a.Assigns) != len(b.Assigns) {
		return false
	}
	for i, v := range a.VC {
		if b.VC[i] != v {
			return false
		}
	}
	for i, v := range a.Acks {
		if b.Acks[i] != v {
			return false
		}
	}
	for i := range a.Assigns {
		if a.Assigns[i] != b.Assigns[i] {
			return false
		}
	}
	return true
}

func TestDataMsgRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		m := randomData(r)
		dec, err := decodeMessage(encodeMessage(m))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got, ok := dec.(*dataMsg)
		if !ok {
			t.Fatalf("decoded %T", dec)
		}
		if !eqData(m, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", m, got)
		}
	}
}

func TestControlMsgRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	msgs := []any{
		&joinMsg{Group: "g", Joiner: "p"},
		&leaveMsg{Group: "g", Leaver: "q"},
		&suspectMsg{Group: "g", Accused: "r"},
		&proposeMsg{Group: "g", NewSeq: 9, Proposer: "a", Members: []ids.ProcessID{"a", "b"}},
		&flushAckMsg{
			Group: "g", NewSeq: 9, Proposer: "a", From: "b", Joining: false,
			Unstable: []*dataMsg{randomData(r), randomData(r)},
			Assigns:  []assign{{Sender: "a", Seq: 1, Global: 3}},
		},
		&flushAckMsg{Group: "g", NewSeq: 2, Proposer: "a", From: "c", Joining: true},
		&commitMsg{
			Group: "g", NewSeq: 9, Proposer: "a",
			Members: []ids.ProcessID{"a", "b", "c"},
			Order:   OrderSequencer, Liveness: EventDriven, Leader: "a",
			Cut:     []*dataMsg{randomData(r)},
			Assigns: []assign{{Sender: "b", Seq: 2, Global: 1}},
		},
		&batchMsg{Group: "g", Msgs: []*dataMsg{randomData(r), randomData(r), randomData(r)}},
	}
	for _, m := range msgs {
		dec, err := decodeMessage(encodeMessage(m))
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		switch want := m.(type) {
		case *flushAckMsg:
			got := dec.(*flushAckMsg)
			if got.Group != want.Group || got.NewSeq != want.NewSeq || got.From != want.From ||
				got.Joining != want.Joining || len(got.Unstable) != len(want.Unstable) {
				t.Fatalf("flushAck mismatch: %+v vs %+v", got, want)
			}
			for i := range want.Unstable {
				if !eqData(want.Unstable[i], got.Unstable[i]) {
					t.Fatalf("flushAck unstable %d mismatch", i)
				}
			}
		case *batchMsg:
			got := dec.(*batchMsg)
			if got.Group != want.Group || len(got.Msgs) != len(want.Msgs) {
				t.Fatalf("batch mismatch: %+v vs %+v", got, want)
			}
			for i := range want.Msgs {
				if !eqData(want.Msgs[i], got.Msgs[i]) {
					t.Fatalf("batch msg %d mismatch", i)
				}
			}
		case *commitMsg:
			got := dec.(*commitMsg)
			if got.NewSeq != want.NewSeq || got.Order != want.Order ||
				got.Liveness != want.Liveness || got.Leader != want.Leader ||
				!reflect.DeepEqual(got.Members, want.Members) || len(got.Cut) != len(want.Cut) {
				t.Fatalf("commit mismatch: %+v vs %+v", got, want)
			}
		default:
			if !reflect.DeepEqual(dec, m) {
				t.Fatalf("%T mismatch: %+v vs %+v", m, dec, m)
			}
		}
	}
}

func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(input []byte) bool {
		_, _ = decodeMessage(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupOf(t *testing.T) {
	cases := []any{
		&dataMsg{Group: "g1"},
		&joinMsg{Group: "g2"},
		&leaveMsg{Group: "g3"},
		&suspectMsg{Group: "g4"},
		&proposeMsg{Group: "g5"},
		&flushAckMsg{Group: "g6"},
		&commitMsg{Group: "g7"},
		&batchMsg{Group: "g8"},
	}
	for i, m := range cases {
		want := ids.GroupID("g" + string(rune('1'+i)))
		if got := groupOf(m); got != want {
			t.Errorf("groupOf(%T) = %q, want %q", m, got, want)
		}
	}
	if groupOf(42) != "" {
		t.Error("groupOf(unknown) should be empty")
	}
}
