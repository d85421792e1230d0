package core

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"newtop/internal/gcs"
	"newtop/internal/ids"
	"newtop/internal/vclock"
	"newtop/internal/wire"
	"newtop/internal/wire/wiretest"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &invRequest{
		Call:      ids.CallID{Client: "c1", Number: 42},
		Mode:      Majority,
		Method:    "transfer",
		Args:      []byte{1, 2, 3},
		Client:    "c1",
		Style:     Open,
		Forwarded: true,
		AsyncFwd:  true,
		Trace:     0xdeadbeefcafe,
	}
	msg, err := decodePayload(encodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*invRequest)
	if got.Call != req.Call || got.Mode != req.Mode || got.Method != req.Method ||
		string(got.Args) != string(req.Args) || got.Client != req.Client ||
		got.Style != req.Style || got.Forwarded != req.Forwarded || got.AsyncFwd != req.AsyncFwd ||
		got.Trace != req.Trace {
		t.Fatalf("mismatch:\n%+v\n%+v", got, req)
	}
}

func TestReplyAndSetRoundTrip(t *testing.T) {
	rep := invReply{
		Call:    ids.CallID{Client: "c", Number: 7},
		Server:  "s1",
		Payload: []byte("result"),
		Err:     "partial failure",
		Stamp:   vclock.Stamp{Time: 42, Sender: "s0"},
	}
	for _, to := range []byte{toRM, toClosed} {
		got, err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: to, Group: []byte("sg"), Reply: rep}))
		if err != nil {
			t.Fatal(err)
		}
		if got.To != to || string(got.Group) != "sg" || got.Set != nil || !reflect.DeepEqual(got.Reply, rep) {
			t.Fatalf("reply to %d mismatch: %+v", to, got)
		}
	}

	set := &invReplySet{
		Call:    rep.Call,
		Replies: []invReply{rep, {Call: rep.Call, Server: "s2", Payload: []byte("x")}},
		Err:     "",
	}
	msg, err := decodePayload(encodeReplySet(set))
	if err != nil {
		t.Fatal(err)
	}
	gotSet := msg.(*invReplySet)
	if gotSet.Call != set.Call || len(gotSet.Replies) != 2 || gotSet.Replies[1].Server != "s2" ||
		!reflect.DeepEqual(gotSet.Replies[0], rep) {
		t.Fatalf("set mismatch: %+v", gotSet)
	}
	answer, err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toOpen, Group: []byte("cs/sg/c/1"), Set: set}))
	if err != nil {
		t.Fatal(err)
	}
	if answer.To != toOpen || string(answer.Group) != "cs/sg/c/1" || !reflect.DeepEqual(answer.Set, gotSet) {
		t.Fatalf("answer mismatch: %+v", answer)
	}
	if _, err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: 9, Group: []byte("sg")})); err == nil {
		t.Fatal("a reply to an unknown addressee decoded")
	}
}

// encodeReplyMsg is a "reply" one-way's args as its ORB frame carries them.
func encodeReplyMsg(m replyMsg) []byte {
	w := wire.NewWriter()
	m.put(w)
	return w.Bytes()
}

func TestHelloRoundTrip(t *testing.T) {
	msg, err := decodePayload(encodeHello())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(helloMsg); !ok {
		t.Fatalf("hello decoded as %T", msg)
	}
}

func TestBindRequestRoundTrip(t *testing.T) {
	req := &bindRequest{
		Group:       "cs/sg/c/1",
		ServerGroup: "sg",
		Contact:     "c",
		Style:       Open,
		Monitor:     true,
		AsyncFwd:    true,
		Config: gcs.GroupConfig{
			Order:          gcs.OrderSequencer,
			Leader:         "s0",
			Liveness:       gcs.EventDriven,
			TimeSilence:    time.Millisecond,
			SuspectTimeout: time.Second,
			Resend:         3 * time.Millisecond,
			FlushTimeout:   4 * time.Second,
			Tick:           5 * time.Millisecond,
		},
	}
	got, err := decodeBindRequest(encodeBindRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *req {
		t.Fatalf("mismatch:\n%+v\n%+v", got, req)
	}
}

// bindLocalFields are bindRequest.Config fields that deliberately do not
// cross the wire: Domain is a node-local delivery-domain name and
// ProcessingCost a node-local simulation knob (see encodeBindRequest).
var bindLocalFields = []string{"Config.Domain", "Config.ProcessingCost"}

// TestReflectionRoundTrips fills every exported field of each invocation
// envelope with a distinct non-zero value and round-trips it. Unlike the
// hand-written tests above, these fail automatically when someone adds a
// field to a struct and misses the encoder or the decoder — the runtime
// twin of the wiresym lint rule.
func TestReflectionRoundTrips(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		req := &invRequest{}
		wiretest.Fill(req)
		if z := wiretest.Unfilled(req); len(z) != 0 {
			t.Fatalf("filler left fields zero (extend wiretest.Fill): %v", z)
		}
		msg, err := decodePayload(encodeRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := msg.(*invRequest)
		if !ok {
			t.Fatalf("decoded as %T", msg)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*req, *got))
		}
	})
	t.Run("reply", func(t *testing.T) {
		var rep invReply
		wiretest.Fill(&rep)
		if z := wiretest.Unfilled(&rep); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toRM, Group: []byte("sg"), Reply: rep}))
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Group) != "sg" || !reflect.DeepEqual(got.Reply, rep) {
			t.Fatalf("encode/decode asymmetry (for %q):\n%s", got.Group, wiretest.Diff(rep, got.Reply))
		}
	})
	t.Run("replyset", func(t *testing.T) {
		set := &invReplySet{}
		wiretest.Fill(set)
		if z := wiretest.Unfilled(set); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		msg, err := decodePayload(encodeReplySet(set))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := msg.(*invReplySet)
		if !ok {
			t.Fatalf("decoded as %T", msg)
		}
		if !reflect.DeepEqual(got, set) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*set, *got))
		}
		answer, err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toOpen, Group: []byte("cs"), Set: set}))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(answer.Set, set) {
			t.Fatalf("answer encode/decode asymmetry:\n%s", wiretest.Diff(*set, *answer.Set))
		}
	})
	t.Run("bind", func(t *testing.T) {
		req := &bindRequest{}
		wiretest.Fill(req, bindLocalFields...)
		if z := wiretest.Unfilled(req, bindLocalFields...); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := decodeBindRequest(encodeBindRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*req, *got))
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		snap := &stateSnapshot{}
		wiretest.Fill(snap)
		if z := wiretest.Unfilled(snap); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := decodeStateSnapshot(encodeStateSnapshot(snap))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*snap, *got))
		}
	})
	t.Run("groupref", func(t *testing.T) {
		ref := GroupRef{}
		wiretest.Fill(&ref)
		if z := wiretest.Unfilled(&ref); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		got, err := DecodeGroupRef(ref.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(ref, got))
		}
	})
}

func TestPayloadDecodeGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = decodePayload(b)
		_, _ = decodeBindRequest(b)
		_, _ = decodeProcs(b)
		_, _ = decodeReplyMsg(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyModeNeed(t *testing.T) {
	cases := []struct {
		mode ReplyMode
		n    int
		want int
	}{
		{OneWay, 5, 0},
		{First, 5, 1},
		{Majority, 5, 3},
		{Majority, 4, 3},
		{All, 5, 5},
		{All, 0, 1},
		{Majority, 0, 1},
	}
	for _, c := range cases {
		if got := c.mode.need(c.n); got != c.want {
			t.Errorf("%v.need(%d) = %d, want %d", c.mode, c.n, got, c.want)
		}
	}
}

func TestModeAndStyleStrings(t *testing.T) {
	for _, m := range []ReplyMode{OneWay, First, Majority, All, ReplyMode(42)} {
		if m.String() == "" {
			t.Errorf("mode %d renders empty", int(m))
		}
	}
	for _, s := range []Style{Closed, Open, Style(42)} {
		if s.String() == "" {
			t.Errorf("style %d renders empty", int(s))
		}
	}
}

func TestReplyCacheEviction(t *testing.T) {
	rc := newBounded[ids.CallID, invReply](3)
	for i := uint64(1); i <= 5; i++ {
		rc.put(ids.CallID{Client: "c", Number: i}, invReply{Server: "s"})
	}
	if _, ok := rc.get(ids.CallID{Client: "c", Number: 1}); ok {
		t.Fatal("oldest entry should be evicted")
	}
	if _, ok := rc.get(ids.CallID{Client: "c", Number: 5}); !ok {
		t.Fatal("newest entry should be present")
	}
	// Re-putting an existing call must not duplicate.
	rc.put(ids.CallID{Client: "c", Number: 5}, invReply{Server: "other"})
	if rep, _ := rc.get(ids.CallID{Client: "c", Number: 5}); rep.Server != "s" {
		t.Fatal("put must not overwrite the retained reply")
	}
}

// The retained-reply cache is a map keyed by call; Go keeps a map value
// inline only up to 128 bytes and allocates every larger one separately.
// invReply sits just under that line: this pins it there (one more string
// field cost pipeline_async three allocations per call, one per replica).
func TestReplyCacheHoldsRepliesInline(t *testing.T) {
	if size := unsafe.Sizeof(invReply{}); size > 128 {
		t.Fatalf("invReply is %d bytes: over 128 the reply cache allocates per execution", size)
	}
}
