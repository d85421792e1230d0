package core

import (
	"fmt"
	"reflect"
	"sync"
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

// encodeRequest and encodeReadRequest are the detached encodings the codec
// tests keep; product code encodes into a pooled writer it recycles once
// the bytes are sent.
func encodeRequest(m *invRequest) []byte {
	w := wire.GetWriter()
	putRequest(w, m)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

func encodeReadRequest(m *readRequest) []byte {
	w := wire.GetWriter()
	putReadRequest(w, m)
	out := w.Detach()
	wire.PutWriter(w)
	return out
}

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
		Floor:     40,
	}
	var p payload
	if err := decodePayload(encodeRequest(req), nil, &p); err != nil || p.Kind != payloadRequest {
		t.Fatalf("kind %d, err %v", p.Kind, err)
	}
	got := &p.Req
	if got.Call != req.Call || got.Mode != req.Mode || got.Method != req.Method ||
		string(got.Args) != string(req.Args) || got.Client != req.Client ||
		got.Style != req.Style || got.Forwarded != req.Forwarded || got.AsyncFwd != req.AsyncFwd ||
		got.Trace != req.Trace || got.Floor != req.Floor {
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
		var got inboundReply
		if err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: to, Group: []byte("sg"), Reply: rep}), nil, &got); err != nil {
			t.Fatal(err)
		}
		if got.To != to || string(got.Group) != "sg" || got.Answer.Body != nil || !reflect.DeepEqual(got.Reply, rep) {
			t.Fatalf("reply to %d mismatch: %+v", to, got)
		}
	}

	set := &invReplySet{
		Call:    rep.Call,
		Replies: []invReply{rep, {Call: rep.Call, Server: "s2", Payload: []byte("x")}},
		Err:     "",
	}
	var p payload
	if err := decodePayload(encodeReplySet(set), nil, &p); err != nil || p.Kind != payloadReplySet {
		t.Fatalf("kind %d, err %v", p.Kind, err)
	}
	gotSet := decodeSet(t, p.Set)
	if p.Set.Call != set.Call || len(gotSet.Replies) != 2 || gotSet.Replies[1].Server != "s2" ||
		!reflect.DeepEqual(gotSet.Replies[0], rep.toReply()) {
		t.Fatalf("set mismatch: %+v", gotSet)
	}
	var answer inboundReply
	if err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toOpen, Group: []byte("cs/sg/c/1"), Set: set}), nil, &answer); err != nil {
		t.Fatal(err)
	}
	if answer.To != toOpen || string(answer.Group) != "cs/sg/c/1" || answer.Answer.Call != set.Call ||
		!reflect.DeepEqual(decodeSet(t, answer.Answer), gotSet) {
		t.Fatalf("answer mismatch: %+v", answer)
	}
	if err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: 9, Group: []byte("sg")}), nil, &answer); err == nil {
		t.Fatal("a reply to an unknown addressee decoded")
	}
}

// asAnswer is set as its client receives it.
func asAnswer(set *invReplySet) answer {
	w := wire.NewWriter()
	putReplySet(w, set)
	return getAnswer(wire.NewReader(w.Bytes()), nil)
}

// decodeSet decodes a's body as the call it answers does.
func decodeSet(t *testing.T, a answer) decodedSet {
	t.Helper()
	replies, rmErr, err := decodeAnswer(a.Body, nil, nil)
	if err != nil {
		t.Fatalf("decode the answer to %v: %v", a.Call, err)
	}
	return decodedSet{replies, rmErr}
}

// wantSet is what set decodes to at its client.
func wantSet(set *invReplySet) decodedSet {
	return decodedSet{appendReplies(nil, set.Replies), set.Err}
}

// encodeReplyMsg is a "reply" one-way's args as its ORB frame carries them.
func encodeReplyMsg(m replyMsg) []byte {
	w := wire.NewWriter()
	m.put(w)
	return w.Bytes()
}

func TestHelloRoundTrip(t *testing.T) {
	var p payload
	if err := decodePayload(encodeHello(), nil, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != payloadHello {
		t.Fatalf("hello decoded as kind %d", p.Kind)
	}
}

func TestForgetRoundTrip(t *testing.T) {
	var p payload
	if err := decodePayload(encodeForget("z07"), nil, &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != payloadForget || p.Forget != "z07" {
		t.Fatalf("forget decoded as kind %d naming %q", p.Kind, p.Forget)
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
		var p payload
		if err := decodePayload(encodeRequest(req), nil, &p); err != nil {
			t.Fatal(err)
		}
		if p.Kind != payloadRequest {
			t.Fatalf("decoded as kind %d", p.Kind)
		}
		if !reflect.DeepEqual(p.Req, *req) {
			t.Fatalf("encode/decode asymmetry:\n%s", wiretest.Diff(*req, p.Req))
		}
	})
	t.Run("reply", func(t *testing.T) {
		var rep invReply
		wiretest.Fill(&rep)
		if z := wiretest.Unfilled(&rep); len(z) != 0 {
			t.Fatalf("filler left fields zero: %v", z)
		}
		var got inboundReply
		if err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toRM, Group: []byte("sg"), Reply: rep}), nil, &got); err != nil {
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
		want := wantSet(set)
		var p payload
		if err := decodePayload(encodeReplySet(set), nil, &p); err != nil {
			t.Fatal(err)
		}
		if p.Kind != payloadReplySet {
			t.Fatalf("decoded as kind %d", p.Kind)
		}
		if got := decodeSet(t, p.Set); p.Set.Call != set.Call || !reflect.DeepEqual(got, want) {
			t.Fatalf("encode/decode asymmetry (call %v):\n%s", p.Set.Call, wiretest.Diff(want, got))
		}
		var m inboundReply
		if err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toOpen, Group: []byte("cs"), Set: set}), nil, &m); err != nil {
			t.Fatal(err)
		}
		if got := decodeSet(t, m.Answer); m.Answer.Call != set.Call || !reflect.DeepEqual(got, want) {
			t.Fatalf("answer encode/decode asymmetry (call %v):\n%s", m.Answer.Call, wiretest.Diff(want, got))
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
	var in interner
	f := func(b []byte) bool {
		var p payload
		var m inboundReply
		_ = decodePayload(b, &in, &p)
		_, _ = decodeBindRequest(b)
		_, _ = decodeProcs(b)
		_ = decodeReplyMsg(b, &in, &m)
		_, _, _ = decodeAnswer(b, &in, nil)
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

// A server retains each executed reply inline in its client's log, one
// ring slot per call outstanding, so the reply's size is what every retained
// call costs. It sat under 128 bytes when the retained replies were a map
// keyed by call, which allocates every larger value separately (one more
// string field cost pipeline_async three allocations per call, one per
// replica); the log allocates nothing per call at any size, but keeps the
// pin: a larger reply is a larger window for every client.
func TestReplyCacheHoldsRepliesInline(t *testing.T) {
	if size := unsafe.Sizeof(invReply{}); size > 128 {
		t.Fatalf("invReply is %d bytes: over 128 every retained call costs more", size)
	}
}

// impossibleCountFrames are envelopes whose list counts promise more
// elements than the rest of the frame can hold, each with the decoder that
// must refuse it. Each used to decode without error, the list silently
// dropped and the bytes after the count read as the following fields.
func impossibleCountFrames() []namedFrame {
	set := func(w *wire.Writer) {
		w.String("c")
		w.Uvarint(1) // call number
		w.Uvarint(1000)
		w.String("") // the set's error
	}
	w := wire.NewWriter()
	w.Byte(payloadReplySet)
	set(w)
	replySet := w.Detach()

	w.Reset()
	w.Byte(toOpen)
	w.String("cs")
	set(w)
	answer := w.Detach()

	w.Reset()
	w.String("sg")
	w.Uvarint(1000)
	ref := w.Detach()

	w.Reset()
	w.Bool(true)
	w.Uvarint(5)
	w.String("s")
	w.Uvarint(1000)
	w.Blob(nil)
	snap := w.Detach()

	return []namedFrame{
		// A reply set's replies are decoded into the call it answers.
		{"reply set of 1000 replies", replySet, func(b []byte) error {
			var p payload
			if err := decodePayload(b, nil, &p); err != nil {
				return err
			}
			_, _, err := decodeAnswer(p.Set.Body, nil, nil)
			return err
		}},
		{"answer of 1000 replies", answer, func(b []byte) error {
			var m inboundReply
			if err := decodeReplyMsg(b, nil, &m); err != nil {
				return err
			}
			_, _, err := decodeAnswer(m.Answer.Body, nil, nil)
			return err
		}},
		{"group ref of 1000 members", ref, func(b []byte) error {
			_, err := DecodeGroupRef(b)
			return err
		}},
		{"snapshot of 1000 applied stamps", snap, func(b []byte) error {
			_, err := decodeStateSnapshot(b)
			return err
		}},
	}
}

type namedFrame struct {
	name   string
	frame  []byte
	decode func([]byte) error
}

func TestDecodeRejectsImpossibleCounts(t *testing.T) {
	for _, f := range impossibleCountFrames() {
		if err := f.decode(f.frame); err == nil {
			t.Errorf("%s: decoded, want an error", f.name)
		}
	}
}

// The intern table is bounded: a stream of more unique client and server
// identifiers than it holds stops growing it at the cap, and every decoded
// value stays what was sent, whether it came from the table or not.
func TestInternTableIsBounded(t *testing.T) {
	var in interner
	for i := 0; i < internCap+1000; i++ {
		rep := invReply{
			Call:    ids.CallID{Client: ids.ProcessID(fmt.Sprintf("client-%d", i)), Number: uint64(i)},
			Server:  ids.ProcessID(fmt.Sprintf("server-%d", i)),
			Payload: []byte("p"),
			Stamp:   vclock.Stamp{Time: 1, Sender: ids.ProcessID(fmt.Sprintf("server-%d", i))},
		}
		var got inboundReply
		if err := decodeReplyMsg(encodeReplyMsg(replyMsg{To: toRM, Group: []byte("sg"), Reply: rep}), &in, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Reply, rep) {
			t.Fatalf("reply %d decoded as %+v, want %+v", i, got.Reply, rep)
		}
	}
	if n := in.size(); n != internCap {
		t.Fatalf("the table holds %d identifiers after the stream, want its cap %d", n, internCap)
	}
	// What it holds is still handed out, the same string every time; past
	// the cap, identifiers are converted afresh.
	same := func(id string) bool {
		return unsafe.StringData(in.intern([]byte(id))) == unsafe.StringData(in.intern([]byte(id)))
	}
	if !same("client-0") || same(fmt.Sprintf("client-%d", internCap+999)) {
		t.Fatal("the table does not hand out what it holds, or holds more than its cap")
	}
}

// size is how many identifiers the table holds.
func (t *interner) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.dirty)
	if m := t.read.Load(); m != nil {
		n += len(*m)
	}
	return n
}

// Dispatch workers and the ORB receive loop decode at once: the table
// hands every one of them the identifier it was given while misses file
// and publish under their feet (run under -race by ci.sh).
func TestInternTableConcurrent(t *testing.T) {
	var in interner
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := fmt.Sprintf("p%d", (i*7+g)%600)
				if got := in.intern([]byte(id)); got != id {
					t.Errorf("interned %q as %q", id, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := in.size(); n != 600 {
		t.Fatalf("the table holds %d identifiers, want the 600 streamed", n)
	}
}
