package vclock_test

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"newtop/internal/ids"
	"newtop/internal/vclock"
)

func TestStampTotalOrder(t *testing.T) {
	// (time, sender) is a strict total order: irreflexive, antisymmetric,
	// transitive, and total on distinct stamps.
	f := func(t1, t2, t3 uint16, s1, s2, s3 uint8) bool {
		a := vclock.Stamp{Time: uint64(t1), Sender: ids.ProcessID(string(rune('a' + s1%4)))}
		b := vclock.Stamp{Time: uint64(t2), Sender: ids.ProcessID(string(rune('a' + s2%4)))}
		c := vclock.Stamp{Time: uint64(t3), Sender: ids.ProcessID(string(rune('a' + s3%4)))}
		if a.Less(a) {
			return false
		}
		if a != b && !a.Less(b) && !b.Less(a) {
			return false
		}
		if a.Less(b) && b.Less(a) {
			return false
		}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLamportMonotonic(t *testing.T) {
	l := vclock.NewLamport()
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		next := l.Next()
		if next <= prev {
			t.Fatalf("clock went backwards: %d after %d", next, prev)
		}
		prev = next
	}
	if w := l.Witness(1000); w <= 1000 {
		t.Fatalf("Witness(1000) = %d, want > 1000", w)
	}
	if l.Now() < 1000 {
		t.Fatal("Now must not regress after Witness")
	}
	// Witnessing the past still advances the clock.
	before := l.Now()
	if w := l.Witness(1); w <= before {
		t.Fatalf("Witness(past) = %d, want > %d", w, before)
	}
}

func TestLamportConcurrent(t *testing.T) {
	l := vclock.NewLamport()
	const goroutines, perG = 8, 200
	seen := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				if r.Intn(2) == 0 {
					seen[g] = append(seen[g], l.Next())
				} else {
					l.Witness(uint64(r.Intn(100)))
				}
			}
		}()
	}
	wg.Wait()
	all := make(map[uint64]bool)
	for _, s := range seen {
		for _, v := range s {
			if all[v] {
				t.Fatalf("duplicate Next() value %d", v)
			}
			all[v] = true
		}
	}
}
