package gcs

import (
	"testing"
	"time"

	"newtop/internal/lint/allocs"
	"newtop/internal/obs"
)

// Unit tests for the hierarchical wheel's mechanics (placement, cascade,
// clamping, cancellation) plus the allocation guard on the sweep path.
// The wheel is exercised bare — no run goroutine — so the tests drive
// collectLocked deterministically in wheel units.

// newBareWheel builds a wheel without starting the run loop.
func newBareWheel() *wheel {
	w := &wheel{
		start:      time.Now(),
		armed:      0,
		depthGauge: obs.New().Reg.Gauge("gcs_wheel_depth"),
		wake:       make(chan struct{}, 1),
	}
	for i := range w.l0 {
		w.l0[i].init()
	}
	for l := range w.ln {
		for i := range w.ln[l] {
			w.ln[l][i].init()
		}
	}
	return w
}

// addAt files an entry at an absolute unit deadline, like schedule does.
func addAt(w *wheel, units int64) *wheelEntry {
	e := &wheelEntry{expire: units}
	w.placeLocked(e)
	w.count++
	return e
}

// sweepTo advances the wheel and returns the entries fired.
func sweepTo(w *wheel, units int64) []*wheelEntry {
	w.fired = w.fired[:0]
	w.collectLocked(units)
	return w.fired
}

func TestWheelFireAndCascade(t *testing.T) {
	w := newBareWheel()
	near := addAt(w, 3)                     // level 0
	mid := addAt(w, int64(wheelL0Slots)+44) // level 1: must cascade, then fire exactly
	far := addAt(w, wheelMax+5000)          // beyond range: clamps, never lost

	if got := sweepTo(w, 2); len(got) != 0 {
		t.Fatalf("fired %d entries before any deadline", len(got))
	}
	if got := sweepTo(w, 3); len(got) != 1 || got[0] != near {
		t.Fatalf("near deadline: fired %v", got)
	}

	// One unit short of the mid deadline nothing fires (the cascade
	// re-files with exact times); at the deadline it fires.
	if got := sweepTo(w, mid.expire-1); len(got) != 0 {
		t.Fatalf("mid entry fired %d units early", mid.expire-int64(wheelL0Slots)-44)
	}
	if got := sweepTo(w, mid.expire); len(got) != 1 || got[0] != mid {
		t.Fatalf("mid deadline: fired %v", got)
	}

	// The clamped entry is re-examined at the horizon, not dropped.
	if far.expire >= wheelMax {
		t.Fatalf("far entry not clamped: expire %d", far.expire)
	}
	if got := sweepTo(w, far.expire); len(got) != 1 || got[0] != far {
		t.Fatalf("clamped deadline: fired %v", got)
	}
	if w.count != 0 {
		t.Fatalf("count %d after all entries fired, want 0", w.count)
	}
}

func TestWheelCancel(t *testing.T) {
	w := newBareWheel()
	e1 := addAt(w, 5)
	e2 := addAt(w, 5)
	w.mu.Lock()
	if e1.linked {
		unlink(e1)
		w.count--
	}
	w.mu.Unlock()
	got := sweepTo(w, 10)
	if len(got) != 1 || got[0] != e2 {
		t.Fatalf("after cancel, fired %v (want just e2)", got)
	}
	if e1.linked {
		t.Fatal("cancelled entry still linked")
	}
	if w.count != 0 {
		t.Fatalf("count %d, want 0", w.count)
	}
}

// TestWheelRescheduleMoves pins schedule's re-registration: an entry that
// is already linked moves to its new deadline rather than firing twice.
func TestWheelRescheduleMoves(t *testing.T) {
	w := newBareWheel()
	e := &wheelEntry{}
	w.schedule(e, 0)
	w.schedule(e, time.Hour)
	if w.count != 1 {
		t.Fatalf("count %d after reschedule, want 1", w.count)
	}
	if got := sweepTo(w, w.unitsOf(time.Now().Add(time.Second))); len(got) != 0 {
		t.Fatalf("rescheduled entry fired at its old deadline: %v", got)
	}
}

// TestAllocGuardWheelTick budgets the wheel's steady-state cycle — one
// schedule plus the sweep that fires it. The entry is intrusive and the
// fired buffer is reused, so it allocates nothing.
func TestAllocGuardWheelTick(t *testing.T) {
	w := newBareWheel()
	e := &wheelEntry{}
	avg := allocs.PerOp(200, func() {
		w.schedule(e, 0)
		w.mu.Lock()
		w.fired = w.fired[:0]
		w.collectLocked(e.expire)
		w.mu.Unlock()
	})
	if avg > 0.05 { // measured 0.000
		t.Errorf("wheel schedule+sweep allocates %.3f per op, budget 0.05", avg)
	}
	if e.linked || w.count != 0 {
		t.Fatalf("entry not consumed by the sweep (linked=%v count=%d)", e.linked, w.count)
	}
}
