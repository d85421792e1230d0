package seqring

import (
	"math/rand"
	"testing"
)

// Advance pops the dense span entry by entry, handing each entry to drop,
// and jumps past it: a floor named far ahead costs what the ring holds.
func TestAdvanceDropsWhatItPasses(t *testing.T) {
	var r Ring[int]
	for seq := uint64(1); seq <= 10; seq++ {
		*r.Ensure(seq) = int(seq)
	}
	*r.Ensure(1 << 40) = -1 // beyond the dense span: spilled
	var dropped []uint64
	drop := func(seq uint64, e *int) { dropped = append(dropped, seq) }
	r.Advance(4, drop)
	if r.Floor() != 4 || r.Span() != 6 || len(dropped) != 4 || r.Get(5) != 5 {
		t.Fatalf("after Advance(4): floor %d, span %d, dropped %v, entry 5 = %d", r.Floor(), r.Span(), dropped, r.Get(5))
	}
	r.Advance(1<<50, drop)
	if r.Floor() != 1<<50 || r.Span() != 0 || r.FarLen() != 0 || len(dropped) != 11 {
		t.Fatalf("after a far Advance: floor %d, span %d, spill %d, dropped %d", r.Floor(), r.Span(), r.FarLen(), len(dropped))
	}
	r.Advance(3, drop) // never back
	if r.Floor() != 1<<50 {
		t.Fatalf("Advance lowered the floor to %d", r.Floor())
	}
	if e := r.Ensure(1<<50 + 1); *e != 0 || r.Span() != 1 {
		t.Fatalf("the first entry past a jumped floor: %d, span %d", *e, r.Span())
	}
}

// Trim frees an empty ring's buffer and keeps its floor.
func TestTrimKeepsTheFloor(t *testing.T) {
	var r Ring[int]
	*r.Ensure(3) = 3
	r.Trim()
	if r.Cap() == 0 {
		t.Fatal("Trim freed the buffer of a ring that holds an entry")
	}
	r.Advance(3, nil)
	r.Trim()
	if r.Cap() != 0 || r.Floor() != 3 {
		t.Fatalf("after Trim: capacity %d, floor %d; want 0 and 3", r.Cap(), r.Floor())
	}
}

// TestRingAgainstModel drives a ring through random creates, floor
// advances (near and far) and pops, and checks every entry against a map
// after each step: an entry reads back what was written to it, nothing
// below the floor is visible, and a newly named entry starts zero.
func TestRingAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r Ring[uint64]
		model := map[uint64]uint64{}
		hi := uint64(0)
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // name an entry ahead of the floor, sometimes far ahead
				seq := r.Floor() + 1 + uint64(rng.Intn(64))
				if rng.Intn(50) == 0 {
					seq += MaxSpan
				}
				e := r.Ensure(seq)
				if want := model[seq]; *e != want {
					t.Fatalf("seed %d step %d: entry %d reads %d, model %d", seed, step, seq, *e, want)
				}
				*e = uint64(rng.Int63()) | 1
				model[seq] = *e
				hi = max(hi, seq)
			case op < 9: // raise the floor a little, or past everything
				to := r.Floor() + uint64(rng.Intn(40))
				if rng.Intn(30) == 0 {
					to = hi + uint64(rng.Intn(3))
				}
				r.Advance(to, func(seq uint64, e *uint64) {
					if model[seq] != *e {
						t.Fatalf("seed %d step %d: dropped %d holding %d, model %d", seed, step, seq, *e, model[seq])
					}
				})
				for seq := range model {
					if seq <= to {
						delete(model, seq)
					}
				}
			default:
				r.PopFront()
				delete(model, r.Floor())
			}
			for seq, want := range model {
				if got := r.Get(seq); got != want {
					t.Fatalf("seed %d step %d: entry %d = %d, model %d", seed, step, seq, got, want)
				}
			}
			for seq := r.Floor() - min(r.Floor(), 5); seq <= r.Floor(); seq++ {
				if r.At(seq) != nil && seq != 0 {
					t.Fatalf("seed %d step %d: entry %d at or below the floor %d is visible", seed, step, seq, r.Floor())
				}
			}
		}
	}
}
