// Package lockblock is a lint fixture: blocking operations under a mutex,
// the *Locked naming convention, and under-lock propagation through
// helpers. Expectations live in the `// want` comments.
package lockblock

import (
	"context"
	"sync"
	"time"

	"newtop/internal/core"
	"newtop/internal/queue"
	"newtop/internal/transport"
)

type loop struct {
	mu   sync.Mutex
	cond *sync.Cond
	wake chan struct{}
}

func (l *loop) sleepHeld() {
	l.mu.Lock()
	time.Sleep(time.Millisecond) // want lockblock "time.Sleep while l.mu is held"
	l.mu.Unlock()
	time.Sleep(time.Millisecond) // released before this point: no finding
}

func (l *loop) sendHeld() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wake <- struct{}{} // want lockblock "channel send"
}

func (l *loop) recvHeld() {
	l.mu.Lock()
	<-l.wake // want lockblock "channel receive"
	l.mu.Unlock()
}

func (l *loop) selectHeld() {
	l.mu.Lock()
	defer l.mu.Unlock()
	select { // want lockblock "select without default"
	case <-l.wake:
	}
}

// A select with a default branch never parks the goroutine.
func (l *loop) pollHeld() {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.wake:
	default:
	}
}

func (l *loop) rangeHeld() {
	l.mu.Lock()
	for range l.wake { // want lockblock "range over channel"
		break
	}
	l.mu.Unlock()
}

func (l *loop) condHeld() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cond.Wait() // want lockblock "sync.Cond.Wait"
}

// drainLocked is entered with the mutex held by naming convention.
func (l *loop) drainLocked() {
	time.Sleep(time.Millisecond) // want lockblock "the caller's mutex"
}

// helper inherits the under-lock property from its *Locked caller.
func (l *loop) pumpLocked() {
	l.helper()
}

func (l *loop) helper() {
	time.Sleep(time.Millisecond) // want lockblock "can run with a mutex held"
}

// A spawned goroutine does not inherit the spawner's locks.
func (l *loop) spawn() {
	l.mu.Lock()
	defer l.mu.Unlock()
	go l.sleeper()
}

func (l *loop) sleeper() {
	time.Sleep(time.Millisecond)
}

// The escape hatch: an annotated deliberate block under the lock.
func (l *loop) paced() {
	l.mu.Lock()
	time.Sleep(time.Millisecond) //lint:ok lockblock fixture: simulated processing cost, deliberate
	l.mu.Unlock()
}

// --- the core invocation surface blocks; never call it under a mutex ---

// Awaiting a Call future parks until the reply set (or cancellation).
func (l *loop) awaitHeld(c *core.Call) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = c.Await(context.Background()) // want lockblock "core.Call.Await"
}

// A blocking invocation under an event-loop mutex stalls the group.
func (l *loop) invokeHeld(b *core.Binding) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = b.Call(context.Background(), "m", nil) // want lockblock "core.Binding.Call"
}

// Even the async launch blocks when the call window is full.
func (l *loop) launchHeld(b *core.Binding) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = b.InvokeAsync(context.Background(), "m", nil) // want lockblock "core.Binding.InvokeAsync"
}

// The future's done channel is an ordinary channel: receiving it under a
// mutex is the plain channel-receive finding.
func (l *loop) doneHeld(c *core.Call) {
	l.mu.Lock()
	<-c.Done() // want lockblock "channel receive"
	l.mu.Unlock()
}

// Launching async and deferring the await past the unlock is the correct
// shape: no findings.
func (l *loop) launchThenAwait(b *core.Binding) {
	l.mu.Lock()
	held := l.wake // snapshot state under the lock
	l.mu.Unlock()
	_ = held
	c, err := b.InvokeAsync(context.Background(), "m", nil)
	if err != nil {
		return
	}
	_, _ = c.Await(context.Background())
}

// --- the batch pulls park until an item arrives or their source closes ---

func (l *loop) popBatchHeld(f *queue.FIFO[int]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = f.PopBatch(make([]int, 4)) // want lockblock "queue.FIFO.PopBatch"
}

func (l *loop) endpointRecvHeld(ep transport.Endpoint, r transport.BatchReceiver) {
	l.mu.Lock()
	defer l.mu.Unlock()
	dst := make([]transport.Inbound, 4)
	_, _ = r.Recv(dst)             // want lockblock "transport Recv"
	_, _ = transport.Recv(ep, dst) // want lockblock "transport.Recv"
}

// Pulling first and taking the lock per item is the correct shape.
func (l *loop) pullThenLock(f *queue.FIFO[int]) {
	items := make([]int, 4)
	n, ok := f.PopBatch(items)
	if !ok {
		return
	}
	l.mu.Lock()
	_ = items[:n]
	l.mu.Unlock()
}
