package flight

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// callJournal records, in one ring shared by a client (c1) and three
// replicas (s1 the request manager), the invocation-level events of one
// open wait-for-majority call under trace, in the order the processes would
// journal them, and returns the recorder.
func callJournal(t *testing.T, capacity int, trace uint64) *Recorder {
	t.Helper()
	r := New(capacity)
	c1, s1, s2, s3 := r.Proc("c1"), r.Proc("s1"), r.Proc("s2"), r.Proc("s3")
	stage := func(proc uint16, st CallStage, detail uint64, d time.Duration) {
		r.Record(Event{Type: EvStage, Proc: proc, Sender: NoSender, MsgSeq: trace, A: StageWord(st, detail), B: uint64(d)})
	}
	r.Record(Event{Type: EvCallStart, Proc: c1, Sender: NoSender, MsgSeq: trace, A: 3})
	stage(s1, StRMReceive, 3, 0)
	stage(s1, StRMForward, 0, 0)
	stage(s1, StReplicaExecute, 0, 0)
	stage(s2, StReplicaExecute, 0, 0)
	stage(s1, StRMCollect, 2, 0)
	stage(s1, StRMReply, 0, 0)
	stage(s3, StReplicaExecute, 0, 0)
	stage(c1, StClientInvoke, 3|2<<4, 0)
	return r
}

// TestTraceWriteText pins the /traces tree: stages ordered by when they
// began — not by when they ended, which is when they are journalled —
// offset from the earliest, indented by the fixed depth table.
func TestTraceWriteText(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	ev := func(proc uint16, st CallStage, detail uint64, start, end int64) Event {
		return Event{Type: EvStage, At: end, Proc: proc, MsgSeq: 0xabc, A: StageWord(st, detail), B: uint64(end - start)}
	}
	r := New(8)
	c1, s1, s2 := r.Proc("c1"), r.Proc("s1"), r.Proc("s2")
	events := []Event{
		{Type: EvCallStart, At: ms(10), Proc: c1, MsgSeq: 0xabc, A: 4},
		ev(s1, StRMReceive, 4, ms(11), ms(11)),
		ev(s1, StRMForward, 0, ms(12), ms(13)),
		ev(s2, StReplicaExecute, 0, ms(14), ms(15)),
		ev(s1, StReplicaExecute, 0, ms(14)+1, ms(16)),
		ev(s1, StRMCollect, 2, ms(11)+1, ms(17)),
		ev(s1, StRMReply, 0, ms(17), ms(18)),
		ev(c1, StClientInvoke, 4|2<<4, ms(10), ms(19)),
		ev(c1, StClientInvoke, 2|1<<4|StageFailed, ms(30), ms(31)), // another trace below
	}
	events[len(events)-1].MsgSeq = 0xdef

	trs := Traces(events)
	if len(trs) != 2 || trs[0].ID != 0xdef || trs[1].ID != 0xabc {
		t.Fatalf("Traces = %+v, want 0xdef then 0xabc (newest first)", trs)
	}
	if trs[1].Partial || !trs[0].Partial {
		t.Fatalf("partial = %v, %v: 0xabc shows its launch, 0xdef does not", trs[1].Partial, trs[0].Partial)
	}
	var sb strings.Builder
	trs[1].WriteText(&sb, r.Meta())
	want := `trace 0000000000000abc  stages=7
       +0s  client.invoke     proc=c1  dur=9ms mode=4 style=2
      +1ms    rm.receive        proc=s1  dur=0s mode=4
      +1ms      rm.collect        proc=s1  dur=6ms replies=2
      +2ms      rm.forward        proc=s1  dur=1ms
      +4ms        replica.execute   proc=s2  dur=1ms
      +4ms        replica.execute   proc=s1  dur=2ms
      +7ms      rm.reply          proc=s1  dur=1ms
`
	if sb.String() != want {
		t.Fatalf("tree:\n%s\nwant:\n%s", sb.String(), want)
	}
	sb.Reset()
	trs[0].WriteText(&sb, r.Meta())
	if got := sb.String(); !strings.Contains(got, "stages=1  partial\n") || !strings.Contains(got, "failed mode=2 style=1\n") {
		t.Fatalf("failed, partial trace renders as:\n%s", got)
	}
}

// TestTraceCutByRingWrapIsPartial: wherever the ring's wrap cuts a call's
// events, the tree rendered from what is left is marked partial — never an
// unmarked tree that lacks its beginning.
func TestTraceCutByRingWrapIsPartial(t *testing.T) {
	const trace = 0x77
	whole, _ := callJournal(t, 16, trace).Since(0)
	for lost := 0; lost <= len(whole); lost++ {
		r := callJournal(t, 16, trace)
		for i := 0; i < 16-len(whole)+lost; i++ { // later traffic pushes the call's first events out
			r.Record(Event{Type: EvIngest, MsgSeq: uint64(i)})
		}
		events, dropped := r.Since(0)
		if int(dropped) != lost {
			t.Fatalf("lost %d events, want %d", dropped, lost)
		}
		trs := Traces(events)
		switch {
		case lost == 0:
			if len(trs) != 1 || trs[0].Partial || len(trs[0].Stages) != 8 {
				t.Fatalf("uncut journal: %+v", trs)
			}
		case lost == len(whole):
			if len(trs) != 0 {
				t.Fatalf("every event lost, still %+v", trs)
			}
		case !trs[0].Partial:
			t.Fatalf("%d events lost and the %d-stage remainder is not marked partial", lost, len(trs[0].Stages))
		}
	}
}

// TestCheckCalls: call conservation, and the mutations that must trip it.
func TestCheckCalls(t *testing.T) {
	events, _ := callJournal(t, 16, 0x55).Since(0)
	if inFlight, probs := CheckCalls(events, true); inFlight != 0 || len(probs) != 0 {
		t.Fatalf("clean journal: %d in flight, %v", inFlight, probs)
	}
	last := len(events) - 1 // the client.invoke
	if inFlight, probs := CheckCalls(events[:last], true); inFlight != 1 || len(probs) != 0 {
		t.Fatalf("completion removed: %d in flight, %v; want the call in flight", inFlight, probs)
	}
	twice := append(append([]Event(nil), events...), events[last])
	if _, probs := CheckCalls(twice, true); len(probs) != 1 || !strings.Contains(probs[0], "0000000000000055") {
		t.Fatalf("completion doubled: %v, want one finding naming the trace", probs)
	}
	if _, probs := CheckCalls(events[1:], true); len(probs) != 1 {
		t.Fatalf("launch removed from a complete window: %v, want one finding", probs)
	}
	if inFlight, probs := CheckCalls(events[1:], false); inFlight != 0 || len(probs) != 0 {
		t.Fatalf("launch outside an incomplete window: %d in flight, %v; want it let pass", inFlight, probs)
	}
	// The same trace launched by another process is another call.
	other := events[0]
	other.Proc++
	if inFlight, _ := CheckCalls(append(events, other), true); inFlight != 1 {
		t.Fatalf("a sibling's launch: %d in flight, want 1", inFlight)
	}
}

// TestAnalyzersIgnoreStageEvents: the ordering-layer analyzers read the same
// journal the invocation stages are in and must not see them.
func TestAnalyzersIgnoreStageEvents(t *testing.T) {
	r := New(8)
	pa, pb := r.Proc("nodeA"), r.Proc("nodeB")
	g := r.Group("grp")
	r.SetView(g, 1, []string{"a", "b"})
	m := r.Meta()
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	plain := []Event{
		{Type: EvViewInstall, At: us(0), Proc: pa, Group: g, View: 1, A: 2, B: 2},
		{Type: EvMulticast, At: us(10), Proc: pa, Group: g, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvBatchFlush, At: us(20), Proc: pa, Group: g, Sender: 0, View: 1, MsgSeq: 1, A: 1},
		{Type: EvIngest, At: us(30), Proc: pb, Group: g, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvDeliver, At: us(40), Proc: pb, Group: g, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvDeliver, At: us(50), Proc: pb, Group: g, Sender: 0, View: 1, MsgSeq: 3, A: 7}, // a gap
		{Type: EvLocalRead, At: us(60), Proc: pb, Group: g, View: 1, A: 9, B: 4},               // past its bound
		{Type: EvIngest, At: us(70), Proc: pa, Group: g, Sender: 1, View: 1, MsgSeq: 1, A: 8},  // never delivered
	}
	var mixed []Event
	for i, e := range plain {
		mixed = append(mixed, e,
			Event{Type: EvStage, At: e.At, Proc: e.Proc, Sender: NoSender, MsgSeq: uint64(i + 1), A: StageWord(CallStage(i%int(StReplicaRead)+1), 3), B: 5000})
	}
	cfg := StallConfig{MinAge: -1}
	if a, b := CheckOrder(plain, m, true), CheckOrder(mixed, m, true); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("CheckOrder: %v without stage events, %v with", a, b)
	}
	if a, b := DetectStalls(plain, m, cfg), DetectStalls(mixed, m, cfg); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("DetectStalls: %v without stage events, %v with", a, b)
	}
	if a, b := CheckLeases(plain), CheckLeases(mixed); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("CheckLeases: %v without stage events, %v with", a, b)
	}
	if a, b := Decompose(Timelines(plain)), Decompose(Timelines(mixed)); a.Wire.Count == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("Decompose: %+v without stage events, %+v with", a, b)
	}
}
