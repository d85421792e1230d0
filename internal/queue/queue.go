// Package queue provides an unbounded, order-preserving FIFO that bridges
// producers that must never block and one consumer. The transport's
// endpoints and mux channels queue inbound frames in one (consumed by
// PopBatch), and a gcs group's Events adaptor buffers the group's stream in
// one (consumed through Out); a group's own consumer runs off the dispatch
// stage and needs none.
package queue

import "sync"

// FIFO is an unbounded buffer. The zero value is not usable; create with
// New. Closing discards pending items, mirroring a socket close.
//
// A FIFO has one of two consumption modes for its lifetime: the blocking
// batch pull (PopBatch — what every product loop uses: one wake-up and one
// lock hold move a whole burst, and no goroutine or channel rendezvous sits
// between producer and consumer), or the Out channel (a pump goroutine, one
// rendezvous per item — the adaptor kept for applications and tests).
//
// The buffer is a sliding window over one backing array: head indexes the
// front element and pops advance it in place, so steady-state traffic
// recycles the same capacity instead of abandoning a prefix of the array
// on every pop (re-slicing buf[1:] forfeits the popped slot forever and
// forces append to grow a fresh array once the suffix runs out).
type FIFO[T any] struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []T
	head    int // index of the front element; len(buf)-head items queued
	closed  bool
	started bool // pump goroutine running (first Out() call starts it)
	closeCh chan struct{}
	out     chan T
	done    chan struct{}
}

// New returns a FIFO. The pump goroutine that feeds the Out channel is
// started lazily by the first Out() call, so a FIFO consumed through
// PopBatch costs no goroutine. Call Close to stop it.
func New[T any]() *FIFO[T] {
	f := &FIFO[T]{
		out:     make(chan T),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Push appends one item; it never blocks. Pushes after Close are silently
// dropped.
func (f *FIFO[T]) Push(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	if f.head > 0 && len(f.buf) == cap(f.buf) {
		// Out of tail room: slide the live window back to the base of the
		// backing array before appending, reusing the popped slots instead
		// of growing.
		n := copy(f.buf, f.buf[f.head:])
		var zero T
		for i := n; i < len(f.buf); i++ {
			f.buf[i] = zero
		}
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
	f.cond.Signal()
}

// Out returns the consumer channel; it is closed when the FIFO closes.
// The first call starts the pump goroutine.
func (f *FIFO[T]) Out() <-chan T {
	f.mu.Lock()
	if !f.started && !f.closed {
		f.started = true
		go f.pump()
	}
	f.mu.Unlock()
	return f.out
}

// PopBatch blocks until at least one item is buffered, then moves up to
// len(dst) items into dst, front first, under a single lock hold. It
// reports ok=false once the FIFO is closed; like the Out channel, it does
// not hand out items still buffered at Close.
func (f *FIFO[T]) PopBatch(dst []T) (n int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.buf) == f.head && !f.closed {
		f.cond.Wait()
	}
	if f.closed {
		return 0, false
	}
	n = copy(dst, f.buf[f.head:])
	clear(f.buf[f.head : f.head+n]) // release the references for GC
	f.head += n
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return n, true
}

// Len returns the number of buffered (not yet consumed) items.
func (f *FIFO[T]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf) - f.head
}

// Close wakes every blocked PopBatch, stops the pump and closes the output
// channel. It is idempotent and waits for the pump goroutine (if one ever
// started) to exit.
func (f *FIFO[T]) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.closeCh)
		f.cond.Broadcast()
		if !f.started {
			// No pump to close the channels; do it here so Out() readers
			// and Close() callers see the same shutdown either way.
			close(f.out)
			close(f.done)
		}
	}
	f.mu.Unlock()
	<-f.done
}

func (f *FIFO[T]) pump() {
	defer close(f.done)
	defer close(f.out)
	for {
		f.mu.Lock()
		for len(f.buf) == f.head && !f.closed {
			f.cond.Wait()
		}
		if f.closed {
			f.mu.Unlock()
			return
		}
		v := f.buf[f.head]
		var zero T
		f.buf[f.head] = zero // release the reference for GC
		f.head++
		if f.head == len(f.buf) {
			// Drained: rewind so the next burst refills from the base.
			f.buf = f.buf[:0]
			f.head = 0
		}
		f.mu.Unlock()

		// Deliver outside the lock so a slow consumer only delays
		// delivery, never producers; a concurrent Close interrupts the
		// blocked send.
		select {
		case f.out <- v:
		case <-f.closeCh:
			return
		}
	}
}
