package flight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// MsgKey identifies one application message across every process that
// touched it: the sender's view position plus its per-sender sequence,
// scoped by group and view.
type MsgKey struct {
	Group  uint16
	View   uint32
	Sender int16
	Seq    uint64
}

// Timeline is the reconstructed lifecycle of one message: when the
// sender enqueued and flushed it, and when each process ingested and
// delivered it. Absent observations are -1 (times) or missing map keys.
type Timeline struct {
	Key MsgKey
	// SenderProc is the proc that recorded the EvMulticast, -1-as-0 when
	// the sender's journal is not part of this event set.
	SenderProc uint16
	// Sent is the EvMulticast time, Flushed the covering EvBatchFlush
	// time. A message sent outside a batch envelope has Flushed == Sent.
	Sent, Flushed int64
	// Ingest and Deliver map proc ID → event time. The sender's own
	// self-ingest and delivery are included.
	Ingest  map[uint16]int64
	Deliver map[uint16]int64
	// DispStart and DispDone map proc ID → dispatch-stage times: when a
	// worker picked the delivered message up for fan-out and when the
	// servant/consumer returned (an EvDispatch's At−B and At). Empty for
	// journals predating the stage.
	DispStart map[uint16]int64
	DispDone  map[uint16]int64
	// Cut marks a message force-delivered by a view-change cut somewhere.
	Cut bool
}

// batchSpan is one EvBatchFlush, indexed for the join.
type batchSpan struct {
	first, count uint64
	at           int64
}

// Timelines joins an event set into per-message lifecycles. Only
// application messages appear (nulls carry no payload and are never
// delivered; they are excluded by their B flag).
func Timelines(events []Event) map[MsgKey]*Timeline {
	tls := make(map[MsgKey]*Timeline)
	get := func(e Event) *Timeline {
		k := MsgKey{Group: e.Group, View: e.View, Sender: e.Sender, Seq: e.MsgSeq}
		tl, ok := tls[k]
		if !ok {
			tl = &Timeline{Key: k, Sent: -1, Flushed: -1,
				Ingest: make(map[uint16]int64), Deliver: make(map[uint16]int64),
				DispStart: make(map[uint16]int64), DispDone: make(map[uint16]int64)}
			tls[k] = tl
		}
		return tl
	}
	type flushScope struct {
		proc   uint16
		group  uint16
		view   uint32
		sender int16
	}
	flushes := make(map[flushScope][]batchSpan)
	for _, e := range events {
		switch e.Type {
		case EvMulticast:
			if e.B == 1 {
				continue // null
			}
			tl := get(e)
			tl.Sent = e.At
			tl.SenderProc = e.Proc
		case EvBatchFlush:
			fs := flushScope{e.Proc, e.Group, e.View, e.Sender}
			flushes[fs] = append(flushes[fs], batchSpan{first: e.MsgSeq, count: e.A, at: e.At})
		case EvIngest:
			if e.B == 1 {
				continue
			}
			tl := get(e)
			if _, ok := tl.Ingest[e.Proc]; !ok {
				tl.Ingest[e.Proc] = e.At
			}
		case EvDeliver:
			tl := get(e)
			if _, ok := tl.Deliver[e.Proc]; !ok {
				tl.Deliver[e.Proc] = e.At
			}
		case EvCutDeliver:
			tl := get(e)
			tl.Cut = true
			if _, ok := tl.Deliver[e.Proc]; !ok {
				tl.Deliver[e.Proc] = e.At
			}
		case EvDispatch:
			tl := get(e)
			if _, ok := tl.DispDone[e.Proc]; !ok {
				tl.DispStart[e.Proc] = e.At - int64(e.B)
				tl.DispDone[e.Proc] = e.At
			}
		}
	}
	// Second pass: attribute each sent message to the batch envelope that
	// carried it. Own seqs are contiguous, so a flush covers
	// [first, first+count).
	for k, tl := range tls {
		if tl.Sent < 0 {
			continue
		}
		for _, sp := range flushes[flushScope{tl.SenderProc, k.Group, k.View, k.Sender}] {
			if k.Seq >= sp.first && k.Seq < sp.first+sp.count {
				tl.Flushed = sp.at
				break
			}
		}
		if tl.Flushed < 0 {
			tl.Flushed = tl.Sent // sent bare, no envelope wait
		}
	}
	return tls
}

// Stage is the distribution of one lifecycle stage across the event set.
type Stage struct {
	Name  string
	Count int
	P50   time.Duration
	P95   time.Duration
	Mean  time.Duration
	Max   time.Duration
}

// Decomposition is the per-stage latency breakdown of a journal:
//
//	queue-wait     multicast enqueue → batch flush (sender-local)
//	wire           sender flush → receiver ingest (cross-process; valid
//	               when the recorders share the process journal epoch)
//	ordering-wait  ingest → deliver at each receiver (the protocol's
//	               ordering cost, ending at the ordered hand-off)
//	dispatch-wait  deliver → dispatch-start: how long the ordered message
//	               queued behind its group's earlier fan-outs
//	servant-exec   dispatch-start → dispatch-done: the handler / consumer
//	               push itself, off the group lock
//	delivery       first member's delivery → last member's delivery
//	               (the deliver-all spread)
//
// Splitting ordering-wait from dispatch-wait and servant-exec is what the
// dispatch stage buys observability: before it, handler time was
// indistinguishable from protocol ordering stall.
type Decomposition struct {
	Queue, Wire, Order, Dispatch, Exec, Spread Stage
}

// Stages returns the stages in display order.
func (d *Decomposition) Stages() []Stage {
	return []Stage{d.Queue, d.Wire, d.Order, d.Dispatch, d.Exec, d.Spread}
}

// Decompose computes the stage breakdown of a set of timelines.
func Decompose(tls map[MsgKey]*Timeline) Decomposition {
	var queue, wire, order, disp, exec, spread []time.Duration
	for _, tl := range tls {
		if tl.Sent >= 0 && tl.Flushed >= 0 {
			queue = append(queue, time.Duration(tl.Flushed-tl.Sent))
		}
		if tl.Flushed >= 0 {
			for proc, ing := range tl.Ingest {
				if proc == tl.SenderProc {
					continue
				}
				wire = append(wire, time.Duration(ing-tl.Flushed))
			}
		}
		var first, last int64 = -1, -1
		for proc, del := range tl.Deliver {
			if ing, ok := tl.Ingest[proc]; ok {
				order = append(order, time.Duration(del-ing))
			}
			if st, ok := tl.DispStart[proc]; ok {
				disp = append(disp, time.Duration(st-del))
				if done, ok := tl.DispDone[proc]; ok {
					exec = append(exec, time.Duration(done-st))
				}
			}
			if first < 0 || del < first {
				first = del
			}
			if del > last {
				last = del
			}
		}
		if first >= 0 && len(tl.Deliver) > 1 {
			spread = append(spread, time.Duration(last-first))
		}
	}
	return Decomposition{
		Queue:    stageOf("queue-wait", queue),
		Wire:     stageOf("wire", wire),
		Order:    stageOf("ordering-wait", order),
		Dispatch: stageOf("dispatch-wait", disp),
		Exec:     stageOf("servant-exec", exec),
		Spread:   stageOf("delivery", spread),
	}
}

func stageOf(name string, durs []time.Duration) Stage {
	s := Stage{Name: name, Count: len(durs)}
	if len(durs) == 0 {
		return s
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	at := func(q float64) time.Duration {
		i := int(q*float64(len(durs))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(durs) {
			i = len(durs) - 1
		}
		return durs[i]
	}
	s.P50 = at(0.50)
	s.P95 = at(0.95)
	s.Mean = sum / time.Duration(len(durs))
	s.Max = durs[len(durs)-1]
	return s
}

// WriteText renders the decomposition as the table served by
// /journal/analyze and printed by newtop-bench.
func (d *Decomposition) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s %10s\n", "stage", "samples", "p50", "p95", "mean", "max")
	for _, s := range d.Stages() {
		if s.Count == 0 {
			fmt.Fprintf(w, "%-14s %8d %10s %10s %10s %10s\n", s.Name, 0, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-14s %8d %10s %10s %10s %10s\n", s.Name, s.Count,
			rd(s.P50), rd(s.P95), rd(s.Mean), rd(s.Max))
	}
}

func rd(d time.Duration) string { return d.Round(time.Microsecond).String() }
