// Package goorphan is a lint fixture: goroutines with unbounded loops and
// the stop signals that make them reapable. Expectations live in the
// `// want` comments.
package goorphan

import (
	"context"

	"newtop/internal/queue"
)

type pump struct {
	stop chan struct{}
}

func step() {}

// An infinite loop with nothing to stop it: orphaned.
func (p *pump) bad() {
	go func() { // want goorphan "no stop signal"
		for {
			step()
		}
	}()
}

// Same orphan, spawned through a named same-package function.
func (p *pump) badNamed() {
	go p.spin() // want goorphan "no stop signal"
}

func (p *pump) spin() {
	for {
		step()
	}
}

// The loop is reached transitively through a helper call.
func (p *pump) badDeep() {
	go func() { // want goorphan "no stop signal"
		p.run()
	}()
}

func (p *pump) run() {
	for {
		step()
	}
}

// A select gives Stop/Close a way in: fine.
func (p *pump) okSelect() {
	go func() {
		for {
			select {
			case <-p.stop:
				return
			default:
				step()
			}
		}
	}()
}

// Bounded work needs no stop signal.
func (p *pump) okBounded() {
	go func() {
		for i := 0; i < 3; i++ {
			step()
		}
	}()
}

// Ranging over a channel ends when the channel closes: fine.
func (p *pump) okRange(in chan int) {
	go func() {
		for range in {
			step()
		}
	}()
}

// A context in scope counts as a stop signal.
func (p *pump) okCtx(ctx context.Context) {
	go func() {
		for {
			if ctx.Err() != nil {
				return
			}
			step()
		}
	}()
}

// The escape hatch: a process-lifetime pump, annotated.
func (p *pump) suppressed() {
	go func() { //lint:ok goorphan process-lifetime pump, reaped at exit
		for {
			step()
		}
	}()
}

// --- Call-future completion goroutines (the core async surface) ---

// future models the Call future: a done channel plus a reply stream.
type future struct {
	done    chan struct{}
	replies chan int
}

// await parks in a select until completion or cancellation — the shape of
// core's awaitReplySet helper.
func (f *future) await() bool {
	select {
	case <-f.replies:
		return true
	case <-f.done:
		return true
	}
}

// completed is a non-blocking probe with no stop signal in it.
func (f *future) completed() bool { return false }

// A completion goroutine that parks in the await helper is reapable:
// cancelling the future closes done and the select wakes. Clean.
func (p *pump) okFutureCompletion(f *future) {
	go func() {
		for {
			if f.await() {
				return
			}
			step()
		}
	}()
}

// The polling variant spins forever when the future never completes —
// nothing in reach can stop it. Flagged.
func (p *pump) badFuturePoll(f *future) {
	go func() { // want goorphan "no stop signal"
		for {
			if f.completed() {
				return
			}
			step()
		}
	}()
}

// --- Batch-pull loops (the receive path between socket and group) ---

func handle(int) {}

// A loop that leaves when its batch pull reports the source closed is
// reapable: Close turns ok false. This is the shape of every converted
// receive loop (Mux.pump, Node.recvLoop, ORB.recvLoop).
func (p *pump) okBatchPull(f *queue.FIFO[int]) {
	go func() {
		dst := make([]int, 8)
		for {
			n, ok := f.PopBatch(dst)
			if !ok {
				return
			}
			for _, v := range dst[:n] {
				handle(v)
			}
		}
	}()
}

// The same loop through a helper, with break as the exit.
func (p *pump) okBatchPullNamed(f *queue.FIFO[int]) {
	go p.drain(f)
}

func (p *pump) drain(f *queue.FIFO[int]) {
	dst := make([]int, 8)
	for {
		if n, ok := f.PopBatch(dst); !ok {
			break
		} else if n > 0 {
			handle(dst[0])
		}
	}
}

// Ignoring ok spins forever on a closed FIFO: nothing stops it.
func (p *pump) badBatchPullIgnoresClose(f *queue.FIFO[int]) {
	go func() { // want goorphan "no stop signal"
		dst := make([]int, 8)
		for {
			n, _ := f.PopBatch(dst)
			for _, v := range dst[:n] {
				handle(v)
			}
		}
	}()
}

// Testing ok without leaving the loop is no stop signal either.
func (p *pump) badBatchPullNeverLeaves(f *queue.FIFO[int]) {
	go func() { // want goorphan "no stop signal"
		dst := make([]int, 8)
		for {
			n, ok := f.PopBatch(dst)
			if !ok {
				step()
			}
			for _, v := range dst[:n] {
				handle(v)
			}
		}
	}()
}
