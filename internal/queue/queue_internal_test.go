package queue

import "testing"

// PopBatch must not leave references behind in the backing array: the
// FIFO carries frame payloads, and a slot that keeps its pointer pins the
// frame's arena chunk until the slot is overwritten.
func TestPopBatchZeroesPoppedSlots(t *testing.T) {
	f := New[*int]()
	defer f.Close()
	for i := 0; i < 5; i++ {
		f.Push(new(int))
	}
	dst := make([]*int, 3)
	if n, _ := f.PopBatch(dst); n != 3 {
		t.Fatalf("PopBatch = %d, want 3", n)
	}
	for i, p := range f.buf[:f.head] {
		if p != nil {
			t.Fatalf("slot %d still holds its item after being popped", i)
		}
	}
	if f.head != 3 || len(f.buf) != 5 {
		t.Fatalf("head=%d len=%d, want 3 and 5", f.head, len(f.buf))
	}
}

// A push that finds the tail full slides the live window back to the base
// of the backing array; PopBatch must keep its place across that.
func TestPopBatchSurvivesSlideBack(t *testing.T) {
	f := New[int]()
	defer f.Close()
	next, want := 0, 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			f.Push(next)
			next++
		}
	}
	pop := func(k int) {
		dst := make([]int, k)
		n, ok := f.PopBatch(dst)
		if !ok || n != k {
			t.Fatalf("PopBatch = %d, %v; want %d, true", n, ok, k)
		}
		for _, v := range dst {
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}
	push(8)
	full := cap(f.buf)
	push(full - 8) // tail exactly full
	pop(5)         // head > 0, no tail room
	slid := false
	for i := 0; i < 3; i++ {
		before := f.head
		push(1) // the first of these compacts instead of growing
		if before > 0 && f.head == 0 {
			slid = true
		}
	}
	if !slid {
		t.Fatal("the push never slid the window back; the test no longer exercises compaction")
	}
	if cap(f.buf) != full {
		t.Fatalf("backing array grew from %d to %d", full, cap(f.buf))
	}
	pop(full - 5 + 3)
	if f.Len() != 0 {
		t.Fatalf("Len = %d", f.Len())
	}
}
