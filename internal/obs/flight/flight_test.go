package flight

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"newtop/internal/lint/allocs"
)

func TestRecorderRoundtrip(t *testing.T) {
	r := New(8)
	if !r.Enabled() || r.Cap() != 8 {
		t.Fatalf("Enabled=%v Cap=%d, want enabled cap 8", r.Enabled(), r.Cap())
	}
	p := r.Proc("nodeA")
	g := r.Group("grp")
	if p == 0 || g == 0 {
		t.Fatalf("interned IDs must not be 0 (reserved): proc=%d group=%d", p, g)
	}
	if again := r.Proc("nodeA"); again != p {
		t.Fatalf("re-interning nodeA: got %d want %d", again, p)
	}

	r.Record(Event{Type: EvMulticast, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 7, A: 42})
	r.Record(Event{Type: EvDeliver, Proc: p, Group: g, Sender: 2, View: 1, MsgSeq: 7, A: 42, B: 3})
	r.Record(Event{Type: EvTCPFlush, Proc: p, Sender: NoSender, A: 4, B: 512})

	events, dropped := r.Since(0)
	if dropped != 0 || len(events) != 3 {
		t.Fatalf("Since(0) = %d events dropped=%d, want 3/0", len(events), dropped)
	}
	e := events[1]
	if e.Type != EvDeliver || e.Proc != p || e.Group != g || e.Sender != 2 ||
		e.View != 1 || e.MsgSeq != 7 || e.A != 42 || e.B != 3 || e.Seq != 2 {
		t.Fatalf("roundtrip mismatch: %+v", e)
	}
	if events[2].Sender != NoSender {
		t.Fatalf("NoSender roundtrip: got %d", events[2].Sender)
	}

	cur := r.Cursor()
	if cur != 3 {
		t.Fatalf("Cursor=%d want 3", cur)
	}
	tail, _ := r.Since(cur)
	if len(tail) != 0 {
		t.Fatalf("Since(cursor) returned %d events, want 0", len(tail))
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := New(8)
	for i := 0; i < 20; i++ {
		r.Record(Event{Type: EvIngest, MsgSeq: uint64(i + 1)})
	}
	events, dropped := r.Since(0)
	if len(events) != 8 {
		t.Fatalf("got %d events after wrap, want 8", len(events))
	}
	if dropped != 12 {
		t.Fatalf("dropped=%d, want 12", dropped)
	}
	// The survivors are the newest 8, oldest first.
	if events[0].MsgSeq != 13 || events[7].MsgSeq != 20 {
		t.Fatalf("window = [%d..%d], want [13..20]", events[0].MsgSeq, events[7].MsgSeq)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("journal seqs not contiguous: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
}

func TestRecorderDisabled(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record(Event{Type: EvIngest}) // must not panic
	if nilRec.Enabled() || nilRec.Cursor() != 0 {
		t.Fatal("nil recorder must be disabled")
	}
	if ev, _ := nilRec.Since(0); ev != nil {
		t.Fatal("nil recorder returned events")
	}
	off := New(0)
	off.Record(Event{Type: EvIngest})
	if off.Enabled() || off.Cursor() != 0 {
		t.Fatal("zero-capacity recorder must be disabled")
	}
}

func TestViewMeta(t *testing.T) {
	r := New(8)
	g := r.Group("grp")
	r.SetView(g, 3, []string{"a", "b", "c"})
	m := r.Meta()
	if got := m.MemberName(g, 3, 1); got != "b" {
		t.Fatalf("MemberName = %q, want b", got)
	}
	if got := m.MemberName(g, 3, 7); got != "#7" {
		t.Fatalf("MemberName out of range = %q, want #7", got)
	}
	if got := m.MemberName(g, 3, NoSender); got != "-" {
		t.Fatalf("MemberName(NoSender) = %q, want -", got)
	}
	if got := m.GroupName(999); got != "-" {
		t.Fatalf("unknown group = %q, want -", got)
	}
}

// TestAllocGuardRecord is the flight recorder's alloc budget: recording
// must allocate nothing (enforced by ci.sh's alloc-budgets stage).
func TestAllocGuardRecord(t *testing.T) {
	r := New(1024)
	e := Event{Type: EvDeliver, Proc: 3, Group: 1, Sender: 2, View: 4, MsgSeq: 99, A: 7, B: 8}
	avg := allocs.PerOp(2000, func() { r.Record(e) })
	if avg != 0 {
		t.Fatalf("Record allocates %.3f per event, budget is 0", avg)
	}
	// An invocation stage is one more such event: packing it allocates
	// nothing either.
	avg = allocs.PerOp(2000, func() {
		r.Record(Event{Type: EvStage, Proc: 3, Sender: NoSender, MsgSeq: 99, A: StageWord(StRMCollect, 3), B: 1500})
	})
	if avg != 0 {
		t.Fatalf("a stage event allocates %.3f, budget is 0", avg)
	}
	// A dispatch event is stamped with a time its recorder already read.
	at := Now()
	avg = allocs.PerOp(2000, func() {
		r.RecordAt(at, Event{Type: EvDispatch, Proc: 3, Group: 1, Sender: 2, View: 4, MsgSeq: 99, B: 1500})
	})
	if avg != 0 {
		t.Fatalf("RecordAt allocates %.3f per event, budget is 0", avg)
	}
	if events, _ := r.Since(r.Cursor() - 1); len(events) != 1 || events[0].At != at {
		t.Fatalf("RecordAt journalled %+v, want one event at %d", events, at)
	}
}

func TestFormatIncludesNames(t *testing.T) {
	r := New(8)
	p := r.Proc("nodeA")
	g := r.Group("grp")
	r.SetView(g, 1, []string{"nodeA", "nodeB"})
	r.Record(Event{Type: EvDeliver, Proc: p, Group: g, Sender: 1, View: 1, MsgSeq: 5, A: 9})
	r.Record(Event{Type: EvDispatch, Proc: p, Group: g, Sender: 1, View: 1, MsgSeq: 5, B: 1500})
	events, _ := r.Since(0)
	var sb strings.Builder
	WriteText(&sb, events, r.Meta())
	out := sb.String()
	for _, want := range []string{"deliver", "nodeA", "grp/v1", "nodeB", "seq=5", "dispatch", "dur="} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted journal missing %q:\n%s", want, out)
		}
	}
}

func TestTimelinesAndDecompose(t *testing.T) {
	const (
		sender uint16 = 1
		peer   uint16 = 2
		grp    uint16 = 1
	)
	us := func(n int64) int64 { return n * int64(time.Microsecond) }
	events := []Event{
		{Type: EvMulticast, At: us(0), Proc: sender, Group: grp, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvMulticast, At: us(10), Proc: sender, Group: grp, Sender: 0, View: 1, MsgSeq: 2, A: 6, B: 1}, // null: ignored
		{Type: EvBatchFlush, At: us(100), Proc: sender, Group: grp, Sender: 0, View: 1, MsgSeq: 1, A: 2},
		{Type: EvIngest, At: us(150), Proc: sender, Group: grp, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvIngest, At: us(300), Proc: peer, Group: grp, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvDeliver, At: us(200), Proc: sender, Group: grp, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		{Type: EvDeliver, At: us(400), Proc: peer, Group: grp, Sender: 0, View: 1, MsgSeq: 1, A: 5},
		// One event per fan-out, stamped at its end with its duration.
		{Type: EvDispatch, At: us(260), Proc: sender, Group: grp, Sender: 0, View: 1, MsgSeq: 1, B: uint64(us(30))},
		{Type: EvDispatch, At: us(700), Proc: peer, Group: grp, Sender: 0, View: 1, MsgSeq: 1, B: uint64(us(250))},
	}
	tls := Timelines(events)
	if len(tls) != 1 {
		t.Fatalf("got %d timelines, want 1 (nulls excluded)", len(tls))
	}
	tl := tls[MsgKey{Group: grp, View: 1, Sender: 0, Seq: 1}]
	if tl == nil {
		t.Fatal("timeline for msg 0#1 missing")
	}
	if tl.Sent != us(0) || tl.Flushed != us(100) {
		t.Fatalf("Sent=%d Flushed=%d, want 0/%d", tl.Sent, tl.Flushed, us(100))
	}
	if tl.Ingest[peer] != us(300) || tl.Deliver[peer] != us(400) {
		t.Fatalf("peer ingest/deliver = %d/%d", tl.Ingest[peer], tl.Deliver[peer])
	}
	if tl.DispStart[peer] != us(450) || tl.DispDone[peer] != us(700) {
		t.Fatalf("peer dispatch start/done = %d/%d, want %d/%d (start = end − duration)",
			tl.DispStart[peer], tl.DispDone[peer], us(450), us(700))
	}

	d := Decompose(tls)
	if d.Queue.Count != 1 || d.Queue.Max != 100*time.Microsecond {
		t.Fatalf("queue stage = %+v, want 1 sample of 100µs", d.Queue)
	}
	if d.Wire.Count != 1 || d.Wire.Max != 200*time.Microsecond {
		t.Fatalf("wire stage = %+v, want 1 sample of 200µs", d.Wire)
	}
	if d.Order.Count != 2 || d.Order.Max != 100*time.Microsecond {
		t.Fatalf("order stage = %+v, want 2 samples max 100µs", d.Order)
	}
	if d.Spread.Count != 1 || d.Spread.Max != 200*time.Microsecond {
		t.Fatalf("spread stage = %+v, want 1 sample of 200µs", d.Spread)
	}
	if d.Dispatch.Count != 2 || d.Dispatch.Max != 50*time.Microsecond {
		t.Fatalf("dispatch-wait stage = %+v, want 2 samples max 50µs", d.Dispatch)
	}
	if d.Exec.Count != 2 || d.Exec.Max != 250*time.Microsecond {
		t.Fatalf("servant-exec stage = %+v, want 2 samples max 250µs", d.Exec)
	}
}

func TestTimelineUnbatchedFallback(t *testing.T) {
	events := []Event{
		{Type: EvMulticast, At: 50, Proc: 1, Group: 1, Sender: 0, View: 1, MsgSeq: 1, A: 5},
	}
	tl := Timelines(events)[MsgKey{Group: 1, View: 1, Sender: 0, Seq: 1}]
	if tl.Flushed != tl.Sent {
		t.Fatalf("unbatched message: Flushed=%d Sent=%d, want equal", tl.Flushed, tl.Sent)
	}
}

func TestDetectStuckFrontier(t *testing.T) {
	r := New(8)
	p := r.Proc("nodeA")
	g := r.Group("grp")
	r.SetView(g, 1, []string{"a", "b", "c"})
	m := r.Meta()

	events := []Event{
		{Type: EvViewInstall, At: 0, Proc: p, Group: g, View: 1, A: 3, B: 2},
		// b's message enters the pending set but never delivers; a and c
		// have said nothing, so the symmetric order waits on them.
		{Type: EvIngest, At: 1000, Proc: p, Group: g, Sender: 1, View: 1, MsgSeq: 1, A: 10},
	}
	stalls := DetectStalls(events, m, StallConfig{MinAge: -1})
	var frontier *Stall
	for i := range stalls {
		if stalls[i].Kind == "stuck-frontier" {
			frontier = &stalls[i]
		}
	}
	if frontier == nil {
		t.Fatalf("no stuck-frontier diagnosis in %v", stalls)
	}
	if frontier.Proc != "nodeA" {
		t.Fatalf("diagnosis proc = %q, want nodeA", frontier.Proc)
	}
	for _, want := range []string{"b#1", "waiting on traffic from", "a (last heard lamport 0)", "c (last heard lamport 0)"} {
		if !strings.Contains(frontier.Diag, want) {
			t.Fatalf("diagnosis %q missing %q", frontier.Diag, want)
		}
	}

	// Once the message delivers there is nothing to report.
	done := append(events, Event{Type: EvDeliver, At: 2000, Proc: p, Group: g, Sender: 1, View: 1, MsgSeq: 1, A: 10})
	for _, s := range DetectStalls(done, m, StallConfig{MinAge: -1}) {
		if s.Kind == "stuck-frontier" {
			t.Fatalf("delivered message still diagnosed: %v", s)
		}
	}
}

func TestDetectSilentMember(t *testing.T) {
	r := New(8)
	p := r.Proc("nodeA")
	g := r.Group("grp")
	r.SetView(g, 1, []string{"a", "b", "c"})
	m := r.Meta()

	events := []Event{{Type: EvViewInstall, At: 0, Proc: p, Group: g, View: 1, A: 3, B: 1}}
	for i := 0; i < 10; i++ {
		events = append(events,
			Event{Type: EvIngest, At: int64(i + 1), Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: uint64(i + 1), A: uint64(i + 1), B: 1},
			Event{Type: EvIngest, At: int64(i + 1), Proc: p, Group: g, Sender: 1, View: 1, MsgSeq: uint64(i + 1), A: uint64(i + 1), B: 1},
		)
	}
	stalls := DetectStalls(events, m, StallConfig{MinAge: -1, MinActivity: 10})
	found := false
	for _, s := range stalls {
		if s.Kind == "silent-member" && strings.Contains(s.Diag, "from c") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no silent-member diagnosis for c in %v", stalls)
	}
}

func TestCheckOrderRegression(t *testing.T) {
	r := New(8)
	p := r.Proc("nodeA")
	g := r.Group("grp")
	r.SetView(g, 1, []string{"a", "b"})
	m := r.Meta()

	events := []Event{
		{Type: EvDeliver, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 2},
		{Type: EvDeliver, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 1},
	}
	v := CheckOrder(events, m, false)
	if len(v) != 1 || !strings.Contains(v[0], "regression") {
		t.Fatalf("violations = %v, want one regression", v)
	}
}

func TestCheckOrderGapOnlyWhenStrict(t *testing.T) {
	r := New(8)
	p := r.Proc("nodeA")
	g := r.Group("grp")
	m := r.Meta()
	events := []Event{
		{Type: EvDeliver, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 1},
		{Type: EvDeliver, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 3},
	}
	if v := CheckOrder(events, m, false); len(v) != 0 {
		t.Fatalf("lenient check flagged a gap: %v", v)
	}
	v := CheckOrder(events, m, true)
	if len(v) != 1 || !strings.Contains(v[0], "gap") {
		t.Fatalf("strict check = %v, want one gap", v)
	}

	// A seq consumed by an ingested null is not a gap: nulls are never
	// delivered, so the delivered sequence legitimately skips them.
	withNull := append([]Event{
		{Type: EvIngest, Proc: p, Group: g, Sender: 0, View: 1, MsgSeq: 2, B: 1},
	}, events...)
	if v := CheckOrder(withNull, m, true); len(v) != 0 {
		t.Fatalf("null-covered gap flagged: %v", v)
	}
}

func TestCheckOrderTotalDisagreement(t *testing.T) {
	r := New(8)
	pa, pb := r.Proc("nodeA"), r.Proc("nodeB")
	g := r.Group("grp")
	r.SetView(g, 1, []string{"a", "b"})
	m := r.Meta()

	// Two senders' messages delivered in opposite interleavings: legal
	// under causal order, a violation under a total order.
	events := []Event{
		{Type: EvViewInstall, Proc: pa, Group: g, View: 1, A: 2, B: 2},
		{Type: EvDeliver, Proc: pa, Group: g, Sender: 0, View: 1, MsgSeq: 1},
		{Type: EvDeliver, Proc: pa, Group: g, Sender: 1, View: 1, MsgSeq: 1},
		{Type: EvDeliver, Proc: pb, Group: g, Sender: 1, View: 1, MsgSeq: 1},
		{Type: EvDeliver, Proc: pb, Group: g, Sender: 0, View: 1, MsgSeq: 1},
	}
	v := CheckOrder(events, m, true)
	if len(v) != 1 || !strings.Contains(v[0], "disagree on total order") {
		t.Fatalf("violations = %v, want one total-order disagreement", v)
	}

	// The same interleavings under a causal-only view are fine.
	events[0].B = 1
	if v := CheckOrder(events, m, true); len(v) != 0 {
		t.Fatalf("causal view flagged: %v", v)
	}
}

// TestRecordConcurrent: more writers than Ps journal into a ring while a
// reader polls it, on a split ring and on one too small to split. Every
// read is a run of strictly increasing seqs, and no event is torn: each
// carries A == sig(writer, MsgSeq) and B == ^A. Once the writers are done,
// Since(0) is exactly the journal's suffix after the dropped prefix.
func TestRecordConcurrent(t *testing.T) {
	sig := func(w uint16, i uint64) uint64 { return i*0x9e3779b97f4a7c15 ^ uint64(w)<<48 }
	for _, capacity := range []int{16, 1 << 10} {
		r := New(capacity)
		writers := 2*runtime.GOMAXPROCS(0) + 1
		const per = 4000
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w uint16) {
				defer wg.Done()
				for i := uint64(1); i <= per; i++ {
					a := sig(w, i)
					r.Record(Event{Type: EvIngest, Proc: w, MsgSeq: i, A: a, B: ^a})
				}
			}(uint16(w))
		}
		check := func(events []Event) {
			t.Helper()
			for i, e := range events {
				if e.Type != EvIngest || e.A != sig(e.Proc, e.MsgSeq) || e.B != ^e.A {
					t.Fatalf("cap %d: torn read: %+v", capacity, e)
				}
				if i > 0 && e.Seq <= events[i-1].Seq {
					t.Fatalf("cap %d: seq %d after %d", capacity, e.Seq, events[i-1].Seq)
				}
			}
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		reads := 0
		for polling := true; polling; reads++ {
			select {
			case <-done:
				polling = false
			default:
			}
			cursor := r.Cursor()
			if reads%2 == 0 && cursor > 100 {
				cursor -= 100
			} else {
				cursor = 0
			}
			events, _ := r.Since(cursor)
			check(events)
		}
		total := uint64(writers * per)
		if got := r.Cursor(); got != total {
			t.Fatalf("cap %d: cursor = %d, want %d", capacity, got, total)
		}
		events, dropped := r.Since(0)
		check(events)
		if dropped+uint64(len(events)) != total || len(events) == 0 || events[0].Seq != dropped+1 {
			t.Fatalf("cap %d: %d events after %d dropped, want the suffix of %d", capacity, len(events), dropped, total)
		}
		t.Logf("cap %d: %d writers, %d reads, %d events kept", capacity, writers, reads, len(events))
	}
}

// newSplit is a recorder of nseg segments of per slots each, whatever the
// P count, for tests that place events in segments by hand (put).
func newSplit(nseg, per int) *Recorder {
	r := New(0)
	r.own = make([]segment, nseg)
	for i := range r.own {
		r.own[i].init(per)
	}
	r.segCap, r.size = per, nseg*per
	return r
}

// TestSinceWhenOneSegmentWraps: one segment laps its slots while another
// stays idle. Since still returns a contiguous suffix: every seq at or
// below the newest one overwritten counts as dropped — the idle segment's
// older events too — and the rest merge in seq order.
func TestSinceWhenOneSegmentWraps(t *testing.T) {
	r := newSplit(2, 8)
	put := func(seg, n int) {
		for i := 0; i < n; i++ {
			r.own[seg].put(&r.ctr, Now(), &Event{Type: EvIngest, MsgSeq: uint64(seg)})
		}
	}
	expect := func(cursor, first, last, dropped uint64) {
		t.Helper()
		events, d := r.Since(cursor)
		if d != dropped || uint64(len(events)) != last-first+1 {
			t.Fatalf("Since(%d): %d events, %d dropped; want %d..%d, %d dropped", cursor, len(events), d, first, last, dropped)
		}
		for i, e := range events {
			if e.Seq != first+uint64(i) {
				t.Fatalf("Since(%d): event %d has seq %d, want %d", cursor, i, e.Seq, first+uint64(i))
			}
		}
	}
	put(1, 3) // seqs 1..3 in segment 1
	put(0, 4) // 4..7 in segment 0
	put(1, 2) // 8..9
	expect(0, 1, 9, 0)
	put(0, 16) // 10..25: segment 0 holds 18..25, the newest it overwrote is 17
	expect(0, 18, 25, 17)
	expect(17, 18, 25, 0)
	expect(20, 21, 25, 0)
	put(1, 1) // 26 in the idle segment, which still holds 1..3 and 8..9
	expect(0, 18, 26, 17)
	expect(26, 1, 0, 0)
	if events, _ := r.Since(0); events[len(events)-1].MsgSeq != 1 {
		t.Fatalf("newest event came from segment %d, want 1", events[len(events)-1].MsgSeq)
	}
}

// BenchmarkRecord is the journal's cost per event at one writer, stamped
// with a time the caller already read (the clock is not part of it).
func BenchmarkRecord(b *testing.B) {
	r := New(DefaultCap)
	e := Event{Type: EvDeliver, Proc: 3, Group: 1, Sender: 2, View: 4, MsgSeq: 99, A: 7, B: 8}
	at := Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordAt(at, e)
	}
}

// BenchmarkRecordParallel is BenchmarkRecord with GOMAXPROCS writers.
func BenchmarkRecordParallel(b *testing.B) {
	r := New(DefaultCap)
	e := Event{Type: EvDeliver, Proc: 3, Group: 1, Sender: 2, View: 4, MsgSeq: 99, A: 7, B: 8}
	at := Now()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.RecordAt(at, e)
		}
	})
}

// TestInternCaps: the name tables must stay bounded — a sharded fabric
// interns a cs/ group per client per shard, so a long-lived node would
// otherwise grow (and re-snapshot on every Meta) without limit. Past the
// cap new names collapse to ID 0 ("-") but old names keep resolving.
func TestInternCaps(t *testing.T) {
	r := New(8)
	first := r.Group("g0")
	for i := 1; i < maxInterned+100; i++ {
		r.Group(fmt.Sprintf("g%d", i))
	}
	if id := r.Group("overflow"); id != 0 {
		t.Fatalf("group intern past cap = %d, want 0", id)
	}
	if id := r.Group("g0"); id != first {
		t.Fatalf("existing group re-intern = %d, want %d", id, first)
	}
	m := r.Meta()
	if got := m.GroupName(first); got != "g0" {
		t.Fatalf("GroupName(first) = %q, want g0", got)
	}
	if got := m.GroupName(0); got != "-" {
		t.Fatalf("GroupName(0) = %q, want -", got)
	}

	for i := 0; i < maxInterned+100; i++ {
		r.Proc(fmt.Sprintf("p%d", i))
	}
	if id := r.Proc("overflow"); id != 0 {
		t.Fatalf("proc intern past cap = %d, want 0", id)
	}
}

// TestViewEviction: the view table evicts FIFO at maxViews so name
// resolution for live views survives while dead views are forgotten.
func TestViewEviction(t *testing.T) {
	r := New(8)
	g := r.Group("grp")
	for v := uint32(0); v < maxViews+10; v++ {
		r.SetView(g, v, []string{"a", "b"})
	}
	m := r.Meta()
	if m.Members(g, 0) != nil {
		t.Fatalf("oldest view survived eviction")
	}
	if got := m.MemberName(g, maxViews+9, 1); got != "b" {
		t.Fatalf("newest view member = %q, want b", got)
	}
	r.mu.Lock()
	n := len(r.views)
	r.mu.Unlock()
	if n > maxViews {
		t.Fatalf("views table holds %d entries, cap is %d", n, maxViews)
	}
}

// TestGroupIDAndFilter: the /journal?group= path — reverse name lookup
// plus event scoping, dropping group-unattributed transport events.
func TestGroupIDAndFilter(t *testing.T) {
	r := New(16)
	p := r.Proc("n1")
	ga := r.Group("kv/s0")
	gb := r.Group("kv/s1")
	r.Record(Event{Type: EvDeliver, Proc: p, Group: ga, MsgSeq: 1})
	r.Record(Event{Type: EvDeliver, Proc: p, Group: gb, MsgSeq: 2})
	r.Record(Event{Type: EvTCPFlush, Proc: p, Sender: NoSender, A: 3}) // no group
	events, _ := r.Since(0)

	m := r.Meta()
	id, ok := m.GroupID("kv/s1")
	if !ok || id != gb {
		t.Fatalf("GroupID(kv/s1) = %d,%v want %d,true", id, ok, gb)
	}
	if _, ok := m.GroupID("nope"); ok {
		t.Fatalf("GroupID(nope) resolved")
	}
	got := FilterGroup(events, gb)
	if len(got) != 1 || got[0].MsgSeq != 2 {
		t.Fatalf("FilterGroup = %+v, want the one kv/s1 event", got)
	}
}
