package gcs

import (
	"runtime"
	"sync"

	"newtop/internal/obs"
	"newtop/internal/obs/flight"
	"newtop/internal/queue"
)

// The post-order dispatch stage. Ordering (everything under g.mu) ends at
// deliverLocked, which only appends to the group's event queue; a
// node-wide worker pool drains the queues and hands each event to the
// group's one consumer, its handler (SetHandler; Events is an adaptor over
// it), off g.mu. One group is drained by at most one worker at a time (a
// single-writer state machine), so per-group delivery order is preserved
// by construction, while independent groups dispatch on different cores
// and ingest of message N+1 overlaps servant execution of message N. The
// queue is the only one between an ordering decision and its consumer.
//
// No protocol progress depends on a dispatch completing: ordering, flush
// and failure detection run on the receive loop and the wheel. A handler
// that blocks delays its own group and, by holding a worker, other groups'
// fan-out (pool exhaustion), but cannot stall the protocol.

// dispatchBatch bounds how many queued events one scheduling round
// processes before the group re-queues behind its peers — the fairness
// bound of the per-group queue (memory stays bounded by the consumer
// keeping up).
const dispatchBatch = 256

// dispatchWorkers sizes the pool: GOMAXPROCS, capped at 8. Per-group
// delivery order holds at any size (single-writer per group).
func dispatchWorkers() int {
	return min(runtime.GOMAXPROCS(0), 8)
}

// dispItem is one queued consumer event, carrying the flight-journal
// identity of the message it came from (deliveries only) so the dispatch
// stage joins against the message's timeline.
type dispItem struct {
	ev     Event
	sender int16
	seq    uint64
	view   uint32
}

// dispatcher is the node-wide worker pool. Lock order: g.mu → g.evmu →
// disp.mu; workers take them strictly one at a time.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	runq   []*Group
	head   int
	closed bool

	queueHigh *obs.Gauge
	done      sync.WaitGroup
}

func newDispatcher(workers int, o *obs.Obs) *dispatcher {
	d := &dispatcher{queueHigh: o.Reg.Gauge("gcs_dispatch_queue_highwater")}
	d.cond = sync.NewCond(&d.mu)
	d.done.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

// ready queues a group for draining. The caller must have set the group's
// evActive flag under g.evmu (the single-writer handoff).
func (d *dispatcher) ready(g *Group) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if d.head > 0 && len(d.runq) == cap(d.runq) {
		n := copy(d.runq, d.runq[d.head:])
		for i := n; i < len(d.runq); i++ {
			d.runq[i] = nil
		}
		d.runq = d.runq[:n]
		d.head = 0
	}
	d.runq = append(d.runq, g)
	d.mu.Unlock()
	d.cond.Signal()
}

func (d *dispatcher) worker() {
	defer d.done.Done()
	for {
		d.mu.Lock()
		for d.head == len(d.runq) && !d.closed {
			d.cond.Wait() //lint:ok lockblock Cond.Wait atomically releases d.mu while the worker is parked; producers keep enqueueing
		}
		if d.head == len(d.runq) {
			d.mu.Unlock()
			return
		}
		g := d.runq[d.head]
		d.runq[d.head] = nil
		d.head++
		if d.head == len(d.runq) {
			d.runq = d.runq[:0]
			d.head = 0
		}
		d.mu.Unlock()
		g.drainDispatch()
	}
}

// close wakes the workers and waits for them to exit. Queued groups are
// abandoned: close runs only after every group has left.
func (d *dispatcher) close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
	} else {
		d.closed = true
		d.mu.Unlock()
		d.cond.Broadcast()
	}
	d.done.Wait()
}

// SetHandler installs the group's consumer: each event is handed to fn from
// a dispatch worker, in delivery order, with no consumer goroutine or
// channel hop. It is the one way a group is consumed (Events is an adaptor
// over it) and is installed once. Events produced before it — the founding
// view, deliveries that overtook the caller — wait in the dispatch queue
// and reach fn first, in order, then live traffic.
//
// fn may send, and may park: Leave wakes a Multicast parked on the group's
// own view change, and a wait on another group must run under a context its
// owner cancels before it leaves this one. It must not Leave its own group:
// closeDispatch waits out the running drain, so it would wait for itself.
func (g *Group) SetHandler(fn func(Event)) {
	g.evmu.Lock()
	sched := g.setHandlerLocked(fn)
	g.evmu.Unlock()
	if sched {
		g.node.disp.ready(g)
	}
}

// setHandlerLocked installs fn (g.evmu held) and reports whether the caller
// must schedule the drain of the backlog.
func (g *Group) setHandlerLocked(fn func(Event)) bool {
	if g.evClosed {
		return false
	}
	g.handler = fn
	sched := !g.evActive && len(g.evq) > 0
	if sched {
		g.evActive = true
	}
	return sched
}

// Events returns the ordered stream of deliveries and view changes as a
// channel, which closes after Leave (or node close). It is the adaptor over
// SetHandler kept for applications and tests: the first call installs a
// FIFO's Push as the handler (the FIFO's pump feeds the channel), later
// calls return the same channel, and a call after Leave returns a closed
// one. Do not combine with SetHandler.
func (g *Group) Events() <-chan Event {
	g.evmu.Lock()
	f, sched := g.events, false
	if f == nil {
		f = queue.New[Event]()
		g.events = f
		if g.evClosed {
			f.Close() // never started: returns at once
		} else {
			sched = g.setHandlerLocked(f.Push)
		}
	}
	g.evmu.Unlock()
	if sched {
		g.node.disp.ready(g)
	}
	return f.Out()
}

// pushEventLocked queues one consumer event (g.mu held). sender/seq/view
// identify the originating message for the flight journal; non-delivery
// events pass flight.NoSender. Until a handler is installed the event only
// waits in the queue.
func (g *Group) pushEventLocked(ev Event, sender int, seq uint64, view uint32) {
	g.evmu.Lock()
	if g.evClosed {
		g.evmu.Unlock()
		return
	}
	g.evq = append(g.evq, dispItem{ev: ev, sender: int16(sender), seq: seq, view: view})
	depth := len(g.evq)
	sched := g.handler != nil && !g.evActive
	if sched {
		g.evActive = true
	}
	g.evmu.Unlock()
	g.node.disp.queueHigh.SetMax(int64(depth))
	if sched {
		g.node.disp.ready(g)
	}
}

// drainDispatch is the worker-side drain: swap out the queued batch, run
// it, and either go idle or re-queue behind the other ready groups. Only
// one worker runs this per group at a time (evActive handoff). It never
// takes g.mu. Without a handler the events stay queued for the handler.
func (g *Group) drainDispatch() {
	g.evmu.Lock()
	h := g.handler
	var batch []dispItem
	if h != nil {
		batch = g.evq
		if len(batch) > dispatchBatch {
			// Fairness bound: leave the tail queued for the next round (the
			// spill is copied so the prefix's backing array can be reused, and
			// the copied-from slots are zeroed so nothing stays pinned).
			spill := batch[dispatchBatch:]
			batch = batch[:dispatchBatch]
			g.evq = append(g.evScratch[:0], spill...)
			for i := range spill {
				spill[i] = dispItem{}
			}
		} else {
			g.evq = g.evScratch[:0]
		}
		g.evScratch = batch[:0]
	}
	if len(batch) == 0 {
		g.evActive = false
		g.evmu.Unlock()
		return
	}
	g.evDraining = true
	g.evmu.Unlock()

	// The journal clock is read once before the batch and once after each
	// handler: one handler's end is the next one's start.
	journal := g.fr.Enabled()
	var t int64
	if journal {
		t = flight.Now()
	}
	for i := range batch {
		it := &batch[i]
		h(it.ev)
		if journal {
			end := flight.Now()
			if it.ev.Type == EventDeliver {
				g.frDispatch(end, end-t, it)
			}
			t = end
		}
		batch[i] = dispItem{}
	}

	g.evmu.Lock()
	g.evDraining = false
	if g.evClosed {
		g.evCond.Broadcast() // closeDispatch may be waiting out this drain
	}
	more := g.handler != nil && len(g.evq) > 0
	if !more {
		g.evActive = false
	}
	g.evmu.Unlock()
	if more {
		g.node.disp.ready(g)
	}
}

// frDispatch journals the fan-out of one delivered message, which ended at
// end after running for d nanoseconds.
func (g *Group) frDispatch(end, d int64, it *dispItem) {
	g.fr.RecordAt(end, flight.Event{
		Type:   flight.EvDispatch,
		Proc:   g.frProc,
		Group:  g.frGroup,
		Sender: it.sender,
		View:   it.view,
		MsgSeq: it.seq,
		B:      uint64(d),
	})
}

// closeDispatch shuts the group's dispatch queue: drops queued events,
// refuses new ones, waits out an in-flight drain so no handler call
// survives the close, and closes the Events channel if there is one. Must
// not be called from inside the group's own handler (the drain cannot wait
// for itself), nor with g.mu held: a drain never takes g.mu, but the
// handler it is running may call into the group.
func (g *Group) closeDispatch() {
	g.evmu.Lock()
	g.evClosed = true
	g.evq = nil
	for g.evDraining {
		g.evCond.Wait() //lint:ok lockblock Cond.Wait atomically releases g.evmu while waiting out the in-flight drain; the worker re-takes it to finish
	}
	events := g.events
	g.evmu.Unlock()
	if events != nil {
		events.Close()
	}
}
