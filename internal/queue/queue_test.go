package queue_test

import (
	"sync"
	"testing"
	"time"

	"newtop/internal/queue"
)

func TestFIFOOrder(t *testing.T) {
	f := queue.New[int]()
	defer f.Close()
	const n = 1000
	for i := 0; i < n; i++ {
		f.Push(i)
	}
	for i := 0; i < n; i++ {
		got := <-f.Out()
		if got != i {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
}

func TestFIFOProducerNeverBlocks(t *testing.T) {
	f := queue.New[int]()
	defer f.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Nobody consumes; a million pushes must still complete.
		for i := 0; i < 1_000_000; i++ {
			f.Push(i)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Push blocked")
	}
	if f.Len() < 1_000_000-1 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestFIFOCloseClosesOut(t *testing.T) {
	f := queue.New[string]()
	f.Push("x")
	f.Close()
	// After Close, the output channel is (eventually) closed; drains may
	// or may not see pending items, but must terminate.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-f.Out():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("Out never closed")
		}
	}
}

func TestFIFOCloseIdempotentAndConcurrent(t *testing.T) {
	f := queue.New[int]()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Close()
		}()
	}
	wg.Wait()
	f.Push(1) // push after close is a silent no-op
}

func TestFIFOCloseUnblocksPendingDelivery(t *testing.T) {
	f := queue.New[int]()
	f.Push(1) // pump picks it up and blocks on the unconsumed Out
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		f.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an undelivered item")
	}
}

func TestFIFOManyProducers(t *testing.T) {
	f := queue.New[int]()
	defer f.Close()
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Push(p*per + i)
			}
		}()
	}
	seen := make(map[int]bool)
	got := 0
	for got < producers*per {
		v := <-f.Out()
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
		got++
	}
	wg.Wait()
}

func TestPopBatchBlocksUntilPush(t *testing.T) {
	f := queue.New[int]()
	defer f.Close()
	type result struct {
		n  int
		ok bool
		v  int
	}
	got := make(chan result, 1)
	go func() {
		dst := make([]int, 4)
		n, ok := f.PopBatch(dst)
		got <- result{n, ok, dst[0]}
	}()
	select {
	case r := <-got:
		t.Fatalf("PopBatch returned %+v on an empty FIFO", r)
	case <-time.After(20 * time.Millisecond):
	}
	f.Push(7)
	select {
	case r := <-got:
		if r.n != 1 || !r.ok || r.v != 7 {
			t.Fatalf("PopBatch = %+v, want one item, 7", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Push did not wake PopBatch")
	}
}

func TestPopBatchRespectsLenDst(t *testing.T) {
	f := queue.New[int]()
	defer f.Close()
	for i := 0; i < 10; i++ {
		f.Push(i)
	}
	dst := make([]int, 4)
	next := 0
	for _, want := range []int{4, 4, 2} {
		n, ok := f.PopBatch(dst)
		if !ok || n != want {
			t.Fatalf("PopBatch = %d, %v; want %d, true", n, ok, want)
		}
		for _, v := range dst[:n] {
			if v != next {
				t.Fatalf("popped %d, want %d", v, next)
			}
			next++
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after draining", f.Len())
	}
}

func TestCloseWakesBlockedPopBatch(t *testing.T) {
	f := queue.New[int]()
	const waiters = 3
	done := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, ok := f.PopBatch(make([]int, 1))
			done <- ok
		}()
	}
	time.Sleep(10 * time.Millisecond) // let them park
	f.Close()
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("PopBatch reported ok after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a PopBatch blocked")
		}
	}
}

// Items still queued at Close are dropped, as on the Out channel.
func TestPopBatchAfterCloseDropsQueued(t *testing.T) {
	f := queue.New[int]()
	f.Push(1)
	f.Push(2)
	f.Close()
	if n, ok := f.PopBatch(make([]int, 4)); ok || n != 0 {
		t.Fatalf("PopBatch after Close = %d, %v; want 0, false", n, ok)
	}
}

// One producer, one batch consumer, under the race detector.
func TestPopBatchConcurrentOrder(t *testing.T) {
	f := queue.New[int]()
	defer f.Close()
	const n = 20000
	go func() {
		for i := 0; i < n; i++ {
			f.Push(i)
		}
	}()
	dst := make([]int, 64)
	next := 0
	for next < n {
		got, ok := f.PopBatch(dst)
		if !ok {
			t.Fatal("closed")
		}
		for _, v := range dst[:got] {
			if v != next {
				t.Fatalf("popped %d, want %d", v, next)
			}
			next++
		}
	}
}
